#include "analysis/sanitizer.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sim/occupancy.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** Schedule-order view of one kernel plan, shared by all checks. */
struct ScheduleView
{
    const Graph &graph;
    const KernelPlan &plan;

    /** Op index per scheduled node. */
    std::unordered_map<NodeId, int> pos;

    /** Positions of in-kernel consumers, per producer op index. */
    std::vector<std::vector<int>> consumers;

    /** Barriers of any scope, indexed by position. */
    BarrierIndex barriers;

    /** Overlapping shared-slot pairs (a < b), sorted. */
    std::vector<std::pair<int, int>> slot_overlaps;

    /**
     * Per shared slot: the op index defining its node and the last
     * schedule position reading it, or {-1, -1} when unscheduled.
     */
    std::vector<std::pair<int, int>> slot_live;

    ScheduleView(const Graph &g, const KernelPlan &p)
        : graph(g), plan(p), barriers(p.barriers),
          slot_overlaps(overlappingSlotPairs(p.shared_slots))
    {
        for (std::size_t i = 0; i < plan.ops.size(); ++i)
            pos.emplace(plan.ops[i].node, static_cast<int>(i));
        consumers.resize(plan.ops.size());
        for (std::size_t j = 0; j < plan.ops.size(); ++j) {
            for (NodeId operand : graph.node(plan.ops[j].node).operands()) {
                const auto it = pos.find(operand);
                if (it != pos.end() && it->second != static_cast<int>(j))
                    consumers[it->second].push_back(static_cast<int>(j));
            }
        }
        for (const SharedSlot &slot : plan.shared_slots) {
            const auto it = pos.find(slot.node);
            if (it == pos.end()) {
                slot_live.emplace_back(-1, -1);
                continue;
            }
            int last = it->second;
            for (int j : consumers[it->second])
                last = std::max(last, j);
            slot_live.emplace_back(it->second, last);
        }
    }

    std::string opName(int i) const
    {
        return strCat("%", plan.ops[i].node, " (",
                      graph.node(plan.ops[i].node).name(), ")");
    }
};

/**
 * AS1xx — barrier-placement races. Every Shared producer->consumer edge
 * needs a barrier between the producer's store and the consumer's load
 * in schedule order; reused arena bytes need a barrier between the old
 * value's last reader and the new value's store (write-after-read).
 */
void
checkBarrierRaces(const ScheduleView &view, DiagnosticEngine &engine)
{
    const KernelPlan &plan = view.plan;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].out_space != BufferSpace::Shared)
            continue;
        for (int j : view.consumers[i]) {
            if (j <= static_cast<int>(i))
                continue; // schedule-order violations are AS002's domain
            if (!view.barriers.between(static_cast<int>(i), j, false)) {
                engine.report(
                    "AS101", plan.name,
                    strCat("shared-memory value ", view.opName(i),
                           " is read by ", view.opName(j),
                           " with no barrier between store and load"),
                    plan.ops[i].node);
            }
        }
    }

    // Write-after-read hazards across arena slot reuse: disjoint-lifetime
    // values sharing bytes must be separated by a barrier between the
    // earlier value's last reader and the later value's store.
    for (const auto &[a, b] : view.slot_overlaps) {
        const SharedSlot &sa = plan.shared_slots[a];
        const SharedSlot &sb = plan.shared_slots[b];
        const auto [def_a, last_a] = view.slot_live[a];
        const auto [def_b, last_b] = view.slot_live[b];
        if (def_a < 0 || def_b < 0)
            continue;
        if (def_a <= last_b && def_b <= last_a)
            continue; // concurrently live: AS401's domain
        const int last_prev = def_a < def_b ? last_a : last_b;
        const int def_next = def_a < def_b ? def_b : def_a;
        const NodeId next = def_a < def_b ? sb.node : sa.node;
        if (!view.barriers.between(last_prev, def_next, false)) {
            engine.report(
                "AS102", plan.name,
                strCat("shared-arena bytes [",
                       std::max(sa.offset_bytes, sb.offset_bytes), ", ",
                       std::min(sa.offset_bytes + sa.size_bytes,
                                sb.offset_bytes + sb.size_bytes),
                       ") are rewritten by ", view.opName(def_next),
                       " before a barrier separates the previous "
                       "value's last reader at schedule position ",
                       last_prev),
                next);
        }
    }
}

/**
 * AS2xx — global-barrier deadlock. A device-wide barrier only works if
 * every block of the grid is co-resident; a Global stitch edge with
 * in-kernel consumers needs such a barrier in the first place.
 */
void
checkDeadlocks(const ScheduleView &view, const GpuSpec &spec,
               DiagnosticEngine &engine)
{
    const KernelPlan &plan = view.plan;
    const bool has_device_barrier =
        plan.num_global_barriers > 0 ||
        std::any_of(plan.barriers.begin(), plan.barriers.end(),
                    [](const BarrierPoint &b) {
                        return b.scope == BarrierScope::Device;
                    });

    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        if (plan.ops[i].out_space != BufferSpace::Global)
            continue;
        if (view.consumers[i].empty())
            continue; // streamed out, no in-kernel communication
        if (!has_device_barrier) {
            engine.report(
                "AS202", plan.name,
                strCat("global-memory stitch value ", view.opName(i),
                       " has in-kernel consumers but the kernel "
                       "performs no device-wide barrier"),
                plan.ops[i].node);
        }
    }

    if (!has_device_barrier)
        return;
    const std::int64_t capacity = coResidentBlockCapacity(
        spec, plan.launch.block, plan.regs_per_thread,
        plan.smem_per_block);
    if (capacity == 0) {
        engine.report("AS203", plan.name,
                      strCat("device-barrier kernel cannot launch on ",
                             spec.name, ": block ", plan.launch.block,
                             ", ", plan.regs_per_thread,
                             " regs/thread, ", plan.smem_per_block,
                             " B smem"));
    } else if (plan.launch.grid > capacity) {
        engine.report(
            "AS201", plan.name,
            strCat("device-wide barrier with grid ", plan.launch.grid,
                   " exceeds the co-resident block capacity ", capacity,
                   " on ", spec.name,
                   ": non-resident blocks can never arrive and the "
                   "barrier deadlocks"));
    }
}

/**
 * AS3xx — block locality. Re-derives the dependence footprint of each
 * Shared edge from the recorded partitions: a consumer partitioned
 * differently from the producer reads elements another block wrote,
 * which shared memory cannot serve (the memory-usage optimizer should
 * have demoted the edge to Global).
 */
void
checkLocality(const ScheduleView &view, DiagnosticEngine &engine)
{
    const KernelPlan &plan = view.plan;
    for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        const ScheduledOp &producer = plan.ops[i];
        if (producer.out_space != BufferSpace::Shared ||
            !producer.partition.known()) {
            continue;
        }
        for (int j : view.consumers[i]) {
            const ScheduledOp &consumer = plan.ops[j];
            if (!consumer.partition.known())
                continue;
            if (consumer.partition != producer.partition) {
                engine.report(
                    "AS301", plan.name,
                    strCat("consumer ", view.opName(j),
                           " is partitioned ",
                           consumer.partition.launch.toString(), " x",
                           consumer.partition.tasks_per_block,
                           " tasks but reads shared-memory value ",
                           view.opName(static_cast<int>(i)),
                           " partitioned ",
                           producer.partition.launch.toString(), " x",
                           producer.partition.tasks_per_block,
                           " tasks: elements cross block boundaries"),
                    consumer.node);
            }
        }
    }
}

/**
 * AS4xx — buffer lifetimes. Interval analysis over the shared-arena
 * offsets: two values live at the same schedule position must occupy
 * disjoint byte ranges, and every slot must fit the declared arena.
 */
void
checkLifetimes(const ScheduleView &view, DiagnosticEngine &engine)
{
    const KernelPlan &plan = view.plan;
    for (const SharedSlot &slot : plan.shared_slots) {
        if (slot.offset_bytes < 0 ||
            slot.offset_bytes + slot.size_bytes > plan.smem_per_block) {
            engine.report(
                "AS402", plan.name,
                strCat("shared slot of %", slot.node, " at [",
                       slot.offset_bytes, ", ",
                       slot.offset_bytes + slot.size_bytes,
                       ") escapes the ", plan.smem_per_block,
                       "-byte shared arena"),
                slot.node);
        }
    }
    for (const auto &[a, b] : view.slot_overlaps) {
        const SharedSlot &sa = plan.shared_slots[a];
        const SharedSlot &sb = plan.shared_slots[b];
        const auto [def_a, last_a] = view.slot_live[a];
        const auto [def_b, last_b] = view.slot_live[b];
        if (def_a < 0 || def_b < 0)
            continue;
        if (def_a <= last_b && def_b <= last_a) {
            engine.report(
                "AS401", plan.name,
                strCat("values %", sa.node, " (live [", def_a, ", ",
                       last_a, "]) and %", sb.node, " (live [", def_b,
                       ", ", last_b,
                       "]) occupy overlapping shared-arena ranges [",
                       sa.offset_bytes, ", ",
                       sa.offset_bytes + sa.size_bytes, ") and [",
                       sb.offset_bytes, ", ",
                       sb.offset_bytes + sb.size_bytes, ")"),
                sb.node);
        }
    }
}

/**
 * AS5xx — barrier divergence. A barrier emitted inside a vertically-
 * packed task loop executes once per task; if its recorded trip count
 * diverges from the packing factor of the group it synchronizes — or
 * the groups on both sides disagree — some threads arrive a different
 * number of times than others (undefined for __syncthreads, deadlock
 * for the inter-block barrier).
 */
void
checkDivergence(const ScheduleView &view, DiagnosticEngine &engine)
{
    const KernelPlan &plan = view.plan;
    for (const BarrierPoint &barrier : plan.barriers) {
        if (barrier.after_op < 0 ||
            barrier.after_op >= static_cast<int>(plan.ops.size())) {
            continue;
        }
        const ScheduledOp &producer = plan.ops[barrier.after_op];
        if (!producer.partition.known())
            continue;
        if (barrier.trip_count != producer.partition.tasks_per_block) {
            engine.report(
                "AS501", plan.name,
                strCat(barrierScopeName(barrier.scope),
                       " barrier after ", view.opName(barrier.after_op),
                       " executes ", barrier.trip_count,
                       " time(s) per block but its packed task loop "
                       "iterates ",
                       producer.partition.tasks_per_block,
                       " time(s): trip counts diverge across packed "
                       "groups"),
                producer.node);
        }
    }
}

} // namespace

void
sanitizeKernelPlan(const Graph &graph, const KernelPlan &plan,
                   const GpuSpec &spec, DiagnosticEngine &engine)
{
    const ScheduleView view(graph, plan);
    checkBarrierRaces(view, engine);
    checkDeadlocks(view, spec, engine);
    checkLocality(view, engine);
    checkLifetimes(view, engine);
    checkDivergence(view, engine);
}

void
sanitizeCompiledCluster(const Graph &graph, const CompiledCluster &compiled,
                        const GpuSpec &spec, DiagnosticEngine &engine)
{
    for (const KernelPlan &plan : compiled.kernels)
        sanitizeKernelPlan(graph, plan, spec, engine);
}

} // namespace astitch
