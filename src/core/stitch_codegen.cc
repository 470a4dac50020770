#include "core/stitch_codegen.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <unordered_map>

#include "core/cuda_emitter.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

CompiledCluster
compileStitchOp(const Graph &graph, const Cluster &cluster,
                const GpuSpec &spec, const AStitchOptions &options,
                StitchDiagnostics *diagnostics)
{
    panicIf(cluster.nodes.empty(), "empty cluster in stitch codegen");
    faultPoint("codegen");

    // ---- Steps 1-2: dominants, groups, schedules. ----
    DominantAnalysis analysis =
        analyzeDominants(graph, cluster, options.dominant_merging);
    std::vector<GroupSchedule> schedules = computeGroupSchedules(
        graph, cluster, analysis, spec, options.adaptive_thread_mapping,
        options.tuning.mappings);

    // ---- Step 3: stitching schemes + memory planning. ----
    SchemeMap schemes =
        finalizeSchemes(graph, cluster, analysis, schedules);
    if (!options.tuning.schemes.empty()) {
        // Impose the tuner's scheme decisions on boundaries the
        // locality pass already classified. Correctness guard: a
        // producer finalized by atomics or task splitting publishes
        // partial values until the device-wide barrier, so it can never
        // be relaxed below Global whatever the tuner asked for.
        for (const auto &[node, scheme] : options.tuning.schemes) {
            const auto it = schemes.find(node);
            if (it == schemes.end())
                continue;
            if (scheme != StitchScheme::Global) {
                const int g = analysis.producingGroup(node);
                if (g >= 0 &&
                    (schedules[g].mapping.uses_atomics ||
                     schedules[g].mapping.split_factor > 1)) {
                    continue;
                }
            }
            it->second = scheme;
        }
    }
    MemoryPlan memory =
        planMemory(graph, cluster, analysis, schedules, std::move(schemes),
                   spec, options.smem_budget_per_block);

    // ---- Launch configuration (assume-relax-apply). ----
    std::int64_t logical_grid = 1;
    int block = 1;
    for (const GroupSchedule &sched : schedules) {
        logical_grid = std::max(logical_grid, sched.mapping.launch.grid);
        block = std::max(block, sched.mapping.launch.block);
    }

    // Count barrier requirements before capping the grid.
    const std::set<NodeId> output_set(cluster.outputs.begin(),
                                      cluster.outputs.end());
    int num_global = 0;
    int num_regional = 0;
    for (const auto &[x, scheme] : memory.schemes) {
        bool has_internal_user = false;
        for (NodeId u : graph.users(x)) {
            if (cluster.contains(u)) {
                has_internal_user = true;
                break;
            }
        }
        if (!has_internal_user)
            continue; // pure outputs need no in-kernel communication
        if (scheme == StitchScheme::Global)
            ++num_global;
        else if (scheme == StitchScheme::Regional)
            ++num_regional;
    }

    const LaunchConfig launch =
        configureLaunch(spec, logical_grid, block, memory.smem_per_block,
                        /*needs_global_barrier=*/num_global > 0);

    // ---- Emit the kernel plan. ----
    KernelPlan plan;
    plan.name = strCat("stitch_", graph.name(), "_", cluster.nodes.front(),
                       "_", cluster.nodes.back());
    plan.launch = launch.launch;
    plan.regs_per_thread = launch.regs_per_thread;
    plan.smem_per_block = memory.smem_per_block;
    plan.num_global_barriers = num_global;
    plan.shared_slots = memory.arena;

    // Partition of a group's mapping, recorded per op so the sanitizer
    // can re-derive block locality and packed trip counts.
    auto partition_of_group = [&](int g) {
        const AdaptiveMapping &m = schedules[g].mapping;
        return OpPartition{m.launch, m.rows_per_block, m.tasks_per_block};
    };

    int num_reduce = 0;
    bool has_transpose = false;
    std::unordered_map<NodeId, int> remat_extra;
    for (NodeId id : cluster.nodes) {
        const Node &node = graph.node(id);
        if (isReduce(node.kind()))
            ++num_reduce;
        if (node.kind() == OpKind::Transpose ||
            node.kind() == OpKind::Gather) {
            has_transpose = true; // strided/indirect access
        }

        ScheduledOp op;
        op.node = id;
        // Without dominant merging, ops shared between groups are
        // scheduled once per group (lost operator-level reuse).
        const auto it = analysis.groups_of_node.find(id);
        const int dup =
            it == analysis.groups_of_node.end()
                ? 1
                : static_cast<int>(it->second.size());
        op.recompute_factor = static_cast<double>(std::max(1, dup));

        if (memory.rematerialized.count(id)) {
            // Recomputed once per extra consuming group; the recompute
            // re-reads ancestors of roughly the value's own footprint.
            std::set<int> consumer_groups;
            const int own = analysis.groups_of_node.at(id).front();
            for (NodeId u : graph.users(id)) {
                if (!cluster.contains(u))
                    continue;
                const auto gi = analysis.groups_of_node.find(u);
                if (gi != analysis.groups_of_node.end()) {
                    for (int cg : gi->second) {
                        if (cg != own)
                            consumer_groups.insert(cg);
                    }
                }
            }
            const int extra =
                static_cast<int>(consumer_groups.size());
            remat_extra.emplace(id, extra);
            op.recompute_factor =
                std::max(op.recompute_factor, 1.0 + extra);
            plan.extra_bytes_read +=
                static_cast<double>(extra) *
                node.shape().numElements() *
                dtypeSizeBytes(node.dtype());
        }

        if (output_set.count(id)) {
            op.out_space = BufferSpace::Output;
        } else if (auto s = memory.schemes.find(id);
                   s != memory.schemes.end()) {
            op.out_space = schemeBufferSpace(s->second);
        } else {
            op.out_space = BufferSpace::Register;
        }

        // A boundary value takes its producing group's partition — the
        // same choice finalizeSchemes() and the memory planner make.
        int part_group = analysis.producingGroup(id);
        if (part_group < 0 && it != analysis.groups_of_node.end() &&
            !it->second.empty()) {
            part_group = it->second.front();
        }
        if (part_group >= 0)
            op.partition = partition_of_group(part_group);

        plan.ops.push_back(op);
    }
    plan.num_block_barriers = num_regional + 2 * num_reduce;
    if (has_transpose)
        plan.read_coalescing = 0.5;

    // ---- Structural barrier points (mirror of the emitted kernel). ----
    // One regional barrier after each Shared store with an in-kernel
    // reader, one device-wide barrier after each Global stitch store,
    // plus write-after-read separators wherever arena slots reuse bytes.
    std::unordered_map<NodeId, int> op_pos;
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        op_pos.emplace(plan.ops[i].node, static_cast<int>(i));
    auto last_reader_pos = [&](int i) {
        int last = i;
        for (NodeId u : graph.users(plan.ops[i].node)) {
            const auto p = op_pos.find(u);
            if (p != op_pos.end())
                last = std::max(last, p->second);
        }
        return last;
    };
    auto trip_at = [&](int i) {
        return plan.ops[i].partition.known()
                   ? plan.ops[i].partition.tasks_per_block
                   : 1;
    };
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const BufferSpace space = plan.ops[i].out_space;
        if (space != BufferSpace::Shared && space != BufferSpace::Global)
            continue;
        const int self = static_cast<int>(i);
        if (last_reader_pos(self) == self)
            continue; // streamed out: no in-kernel reader to protect
        plan.barriers.push_back(
            BarrierPoint{self,
                         space == BufferSpace::Shared
                             ? BarrierScope::Block
                             : BarrierScope::Device,
                         trip_at(self)});
    }
    // Slot pairs reusing bytes, in (a, b) order: each separator placed
    // here changes the answers for the pairs after it.
    std::vector<std::pair<int, int>> slot_live; // (def, last reader)
    for (const SharedSlot &slot : plan.shared_slots) {
        const int def = op_pos.at(slot.node);
        slot_live.emplace_back(def, last_reader_pos(def));
    }
    BarrierIndex barrier_index(plan.barriers);
    for (const auto &[a, b] : overlappingSlotPairs(plan.shared_slots)) {
        const auto [def_a, last_a] = slot_live[a];
        const auto [def_b, last_b] = slot_live[b];
        if (def_a <= last_b && def_b <= last_a)
            continue; // concurrently live (planner never does this)
        const int lo = def_a < def_b ? last_a : last_b;
        const int hi = def_a < def_b ? def_b : def_a;
        if (!barrier_index.between(lo, hi, false)) {
            plan.barriers.push_back(
                BarrierPoint{hi - 1, BarrierScope::Block, trip_at(hi - 1)});
            barrier_index.append(plan.barriers.back());
        }
    }
    std::sort(plan.barriers.begin(), plan.barriers.end(),
              [](const BarrierPoint &x, const BarrierPoint &y) {
                  return x.after_op < y.after_op;
              });

    // ---- Inputs: one load per distinct consuming group. ----
    for (NodeId in : cluster.inputs) {
        std::set<int> consuming_groups;
        for (NodeId u : graph.users(in)) {
            if (!cluster.contains(u))
                continue;
            const auto it = analysis.groups_of_node.find(u);
            if (it != analysis.groups_of_node.end())
                consuming_groups.insert(it->second.begin(),
                                        it->second.end());
        }
        plan.inputs.push_back(KernelInput{
            in, static_cast<double>(
                    std::max<std::size_t>(1, consuming_groups.size()))});
    }
    plan.outputs = cluster.outputs;

    // ---- Atomics from split / column reductions. ----
    CompiledCluster compiled;
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        const GroupSchedule &sched = schedules[g];
        if (!sched.mapping.uses_atomics)
            continue;
        const NodeId dom = analysis.groups[g].dominant;
        const Node &node = graph.node(dom);
        if (isReduce(node.kind())) {
            const ReduceInfo info = analyzeReduce(graph, dom);
            if (info.is_row_reduce) {
                // Split reduction: one atomic per cooperating block/row.
                plan.atomic_operations +=
                    static_cast<double>(info.rows) *
                    sched.mapping.split_factor;
            } else if (options.adaptive_thread_mapping) {
                // Tiled column-reduce: coalesced reads, one atomic per
                // block-aggregated partial (smem scratch already
                // budgeted by the reduction slab).
                plan.atomic_operations +=
                    static_cast<double>(info.rows * info.cols) /
                    std::max(1, sched.mapping.launch.block);
            } else {
                plan.atomic_operations +=
                    static_cast<double>(info.rows * info.cols) /
                    spec.warp_size;
                plan.read_coalescing =
                    std::min(plan.read_coalescing, 0.5);
            }
        }
        // Atomic accumulators need zero-initialization (memset).
        compiled.num_memcpy += 1;
        compiled.memcpy_bytes +=
            static_cast<double>(node.shape().numElements()) *
            dtypeSizeBytes(node.dtype());
    }

    // ---- Per-op access summaries (the kernel-access verifier's and
    // the CUDA emitter's shared view of the index arithmetic). Emitted
    // after the atomics pass so the final coalescing classes are known.
    {
        // The cost model prices coalescing as one divisor over all
        // reads/writes; the equivalent intra-warp stride class is its
        // reciprocal (1.0 -> stride 1, 0.5 -> stride 2).
        const auto stride_class = [](double coalescing) {
            if (coalescing >= 1.0)
                return std::int64_t{1};
            return static_cast<std::int64_t>(
                std::llround(1.0 / std::max(0.05, coalescing)));
        };
        const std::int64_t read_stride =
            stride_class(plan.read_coalescing);
        const std::int64_t write_stride =
            stride_class(plan.write_coalescing);

        const auto dims_of = [&](const OpPartition &part) {
            if (part.known()) {
                return std::array<std::int64_t, 3>{
                    part.launch.grid, part.tasks_per_block,
                    static_cast<std::int64_t>(part.launch.block)};
            }
            return std::array<std::int64_t, 3>{
                plan.launch.grid, 1,
                static_cast<std::int64_t>(plan.launch.block)};
        };
        const auto linear_access =
            [&](NodeId id, int pos, AccessKind kind, AccessSpace space,
                std::string buffer, const OpPartition &part,
                double repeat, std::int64_t stride, bool traffic) {
                const Node &node = graph.node(id);
                OpAccess access;
                access.node = id;
                access.op_index = pos;
                access.kind = kind;
                access.space = space;
                access.buffer = std::move(buffer);
                access.elem_bytes = dtypeSizeBytes(node.dtype());
                access.extent = node.shape().numElements();
                const auto dims = dims_of(part);
                access.index = linearEnumeration(access.extent, dims[0],
                                                 dims[1], dims[2]);
                if (access.index.maxIndex() >= access.extent)
                    access.guard = access.extent;
                access.warp_stride = stride;
                access.repeat = repeat;
                access.counts_traffic = traffic;
                plan.accesses.push_back(std::move(access));
            };
        // The shared arena is one float array; its accesses are
        // recorded in 4-byte word units regardless of the value dtype.
        const SlotIndex slots(plan.shared_slots);
        const auto smem_access = [&](NodeId id, int pos,
                                     AccessKind kind) {
            const SharedSlot *slot = slots.find(id);
            if (!slot)
                return;
            OpAccess access;
            access.node = id;
            access.op_index = pos;
            access.kind = kind;
            access.space = AccessSpace::Shared;
            access.buffer = "smem";
            access.elem_bytes = 4;
            access.extent = (plan.smem_per_block + 3) / 4;
            access.index.offset = slot->offset_bytes / 4;
            access.index.coeff_thread = 1;
            access.index.num_threads =
                std::max<std::int64_t>(1, slot->size_bytes / 4);
            access.warp_stride = 1;
            access.counts_traffic = false;
            plan.accesses.push_back(std::move(access));
        };

        // Kernel inputs: one full-tensor load per consuming group,
        // attributed to the first scheduled consumer's mapping.
        for (const KernelInput &input : plan.inputs) {
            int consumer = -1;
            for (NodeId u : graph.users(input.node)) {
                const auto p = op_pos.find(u);
                if (p != op_pos.end() &&
                    (consumer < 0 || p->second < consumer)) {
                    consumer = p->second;
                }
            }
            linear_access(input.node, std::max(0, consumer),
                          AccessKind::Read, AccessSpace::Global,
                          strCat("input:%", input.node),
                          consumer >= 0 ? plan.ops[consumer].partition
                                        : OpPartition{},
                          input.load_factor, read_stride, true);
        }

        // Scheduled ops: each result's store per its stitching scheme,
        // and the loads its in-kernel consumers perform. Off-chip
        // read-backs carry traffic once (the cost model counts one
        // read-back per Global intermediate).
        std::set<NodeId> scratch_read_counted;
        for (std::size_t i = 0; i < plan.ops.size(); ++i) {
            const ScheduledOp &op = plan.ops[i];
            const int pos = static_cast<int>(i);
            switch (op.out_space) {
              case BufferSpace::Register:
                break; // register-carried, no memory access
              case BufferSpace::Shared:
                smem_access(op.node, pos, AccessKind::Write);
                break;
              case BufferSpace::Global:
                linear_access(op.node, pos, AccessKind::Write,
                              AccessSpace::Scratch,
                              strCat("scratch:%", op.node),
                              op.partition, 1.0, write_stride, true);
                break;
              case BufferSpace::Output:
                linear_access(op.node, pos, AccessKind::Write,
                              AccessSpace::Global,
                              strCat("out:%", op.node), op.partition,
                              1.0, write_stride, true);
                break;
            }
            for (NodeId operand : graph.node(op.node).operands()) {
                const auto p = op_pos.find(operand);
                if (p == op_pos.end())
                    continue; // kernel input, recorded above
                const ScheduledOp &producer = plan.ops[p->second];
                if (producer.out_space == BufferSpace::Shared) {
                    smem_access(operand, pos, AccessKind::Read);
                } else if (producer.out_space == BufferSpace::Global) {
                    linear_access(
                        operand, pos, AccessKind::Read,
                        AccessSpace::Scratch,
                        strCat("scratch:%", operand), op.partition,
                        1.0, read_stride,
                        scratch_read_counted.insert(operand).second);
                }
            }
        }

        // Rematerialized boundary chains re-read their ancestors once
        // per extra consuming group (the extra_bytes_read term).
        for (const auto &[id, extra] : remat_extra) {
            if (extra <= 0)
                continue;
            const int pos = op_pos.at(id);
            linear_access(id, pos, AccessKind::Read,
                          AccessSpace::Global, strCat("remat:%", id),
                          plan.ops[pos].partition,
                          static_cast<double>(extra), read_stride,
                          true);
        }

        // A Global-scheme value with no in-kernel consumer is still
        // read back downstream; mirror workDescFor's accounting so the
        // AS751 cross-check holds by construction.
        for (std::size_t i = 0; i < plan.ops.size(); ++i) {
            const ScheduledOp &op = plan.ops[i];
            if (op.out_space != BufferSpace::Global ||
                scratch_read_counted.count(op.node)) {
                continue;
            }
            linear_access(op.node, static_cast<int>(i),
                          AccessKind::Read, AccessSpace::Scratch,
                          strCat("scratch:%", op.node), op.partition,
                          1.0, read_stride, true);
        }
    }

    // ---- Render the final CUDA text and attach it to the plan. The
    // plan carries its own artifact from here on: the emitted-source
    // analyzer, the session analyzer dispatch and the artifact cache's
    // warm-load re-verification gate all check this text, not the
    // codegen's self-reported metadata alone. ----
    plan.cuda_source = renderStitchKernelCuda(graph, cluster, spec, plan,
                                              analysis, schedules, memory,
                                              launch, {})
                           .source;
    compiled.global_scratch_bytes = memory.global_scratch_bytes;
    compiled.kernels.push_back(std::move(plan));

    if (diagnostics) {
        diagnostics->analysis = std::move(analysis);
        diagnostics->schedules = std::move(schedules);
        diagnostics->memory = std::move(memory);
        diagnostics->launch = launch;
    }
    return compiled;
}

} // namespace astitch
