#include "core/cuda_emitter.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <string_view>
#include <unordered_map>

#include "compiler/thread_mapping.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** C identifier for a node's value. */
std::string
valueName(const Graph &graph, NodeId id)
{
    std::string name = graph.node(id).name();
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return "v_" + name;
}

/** Append the scalar C expression computing one element of @p node. */
void
appendElementExpr(std::string &out, const Graph &graph, const Node &node,
                  const std::vector<std::string> &operand)
{
    switch (node.kind()) {
      case OpKind::Add:
        return strAppend(out, operand[0], " + ", operand[1]);
      case OpKind::Sub:
        return strAppend(out, operand[0], " - ", operand[1]);
      case OpKind::Mul:
        return strAppend(out, operand[0], " * ", operand[1]);
      case OpKind::Div:
        return strAppend(out, operand[0], " / ", operand[1]);
      case OpKind::Maximum:
        return strAppend(out, "fmaxf(", operand[0], ", ", operand[1], ")");
      case OpKind::Minimum:
        return strAppend(out, "fminf(", operand[0], ", ", operand[1], ")");
      case OpKind::Neg:
        return strAppend(out, "-(", operand[0], ")");
      case OpKind::Abs:
        return strAppend(out, "fabsf(", operand[0], ")");
      case OpKind::CompareGT:
        return strAppend(out, "(", operand[0], " > ", operand[1],
                         ") ? 1.0f : 0.0f");
      case OpKind::Select:
        return strAppend(out, "(", operand[0], " != 0.0f) ? ", operand[1],
                         " : ", operand[2]);
      case OpKind::Tanh:
        return strAppend(out, "tanhf(", operand[0], ")");
      case OpKind::Exp:
        return strAppend(out, "__expf(", operand[0], ")");
      case OpKind::Log:
        return strAppend(out, "__logf(", operand[0], ")");
      case OpKind::Power:
        return strAppend(out, "powf(", operand[0], ", ",
                         strFixed(node.attrs().exponent, 1), "f)");
      case OpKind::Sqrt:
        return strAppend(out, "sqrtf(", operand[0], ")");
      case OpKind::Rsqrt:
        return strAppend(out, "rsqrtf(", operand[0], ")");
      case OpKind::Sigmoid:
        return strAppend(out, "1.0f / (1.0f + __expf(-(", operand[0],
                         ")))");
      case OpKind::Erf:
        return strAppend(out, "erff(", operand[0], ")");
      // A concat reads through every source: each operand covers one
      // contiguous element range of the result, picked by a chain of
      // nested conditionals closed after the last operand.
      case OpKind::Concat: {
        std::int64_t prefix = 0;
        for (std::size_t k = 0; k + 1 < operand.size(); ++k) {
            prefix += graph.node(node.operands()[k]).shape().numElements();
            strAppend(out, "(elem < ", prefix, ") ? ", operand[k], " : (");
        }
        out += operand.back();
        out.append(operand.size() - 1, ')');
        return;
      }
      // Data movement reads through an index remap; the value itself is
      // the operand.
      case OpKind::Broadcast:
      case OpKind::Reshape:
      case OpKind::Transpose:
      case OpKind::Slice:
      case OpKind::Pad:
      case OpKind::Gather:
        out += operand[0];
        return;
      default:
        panic("elementExpr on non-elementwise op ", node.name());
    }
}

/**
 * Prints one kernel into one buffer: each line appends its indentation
 * and its parts in place, so no line or sub-expression is built as a
 * string of its own.
 */
class KernelPrinter
{
  public:
    explicit KernelPrinter(std::size_t capacity) { text_.reserve(capacity); }

    /** Start a line at the current indentation and return the buffer
     * to append its text to; finish it with endLine(). */
    std::string &
    beginLine()
    {
        line_start_ = text_.size();
        text_.append(4 * indent_, ' ');
        return text_;
    }

    /** End the line; a line with no text carries no indentation. */
    void
    endLine()
    {
        if (text_.size() == line_start_ + 4 * indent_)
            text_.resize(line_start_);
        text_ += '\n';
    }

    /** One whole line of @p parts (see strAppend); none is a blank line. */
    template <typename... Parts>
    void
    line(const Parts &...parts)
    {
        strAppend(beginLine(), parts...);
        endLine();
    }

    /** Append whole lines that carry their own indentation. */
    void raw(std::string_view lines) { text_.append(lines); }

    void push() { ++indent_; }
    void pop() { --indent_; }

    /** The finished text, its capacity trimmed to its size. */
    std::string
    take()
    {
        text_.shrink_to_fit();
        return std::move(text_);
    }

  private:
    std::string text_;
    std::size_t line_start_ = 0;
    std::size_t indent_ = 0;
};

/** The classic lock-free inter-block barrier (Xiao & Feng). */
constexpr std::string_view kGridBarrierHelper =
    "// Lock-free inter-block barrier [Xiao & Feng, IPDPS'10].\n"
    "// Legal only when gridDim.x <= blocks-per-wave (Sec 3.2.3);\n"
    "// the launch configurator guarantees that bound.\n"
    "__device__ void\n"
    "grid_barrier(volatile int *arrive, volatile int *depart)\n"
    "{\n"
    "    __syncthreads();\n"
    "    if (threadIdx.x == 0) {\n"
    "        atomicAdd((int *)arrive, 1);\n"
    "        if (blockIdx.x == 0) {\n"
    "            while (*arrive < gridDim.x) { }\n"
    "            *depart = gridDim.x;\n"
    "        }\n"
    "        while (*depart < gridDim.x) { }\n"
    "    }\n"
    "    __syncthreads();\n"
    "}\n";

/** The host-side documentation launch statement for @p plan. */
std::string
makeLaunchStub(const KernelPlan &plan)
{
    return strCat(plan.name, "<<<", plan.launch.grid, ", ",
                  plan.launch.block, ", ", plan.smem_per_block,
                  ">>>(...); // -maxrregcount=", plan.regs_per_thread);
}

} // namespace

CudaEmission
renderStitchKernelCuda(const Graph &graph, const Cluster &cluster,
                       const GpuSpec &spec, const KernelPlan &plan,
                       const DominantAnalysis &analysis,
                       const std::vector<GroupSchedule> &schedules,
                       const MemoryPlan &memory, const LaunchConfig &launch,
                       const std::vector<ShapeDim> & /*shape_params*/)
{
    CudaEmission emission;
    emission.kernel_name = plan.name;

    // C identifier of each value the kernel names, computed once per
    // node (references into the map stay valid as it grows).
    std::unordered_map<NodeId, std::string> names;
    const auto name = [&](NodeId id) -> const std::string & {
        const auto [it, fresh] = names.try_emplace(id);
        if (fresh)
            it->second = valueName(graph, id);
        return it->second;
    };
    // Sized from the access and op counts so that appending almost never
    // reallocates: over the Table-2 kernels this bound falls short of
    // the final text for 1 kernel in 1,000.
    KernelPrinter w(1024 + 192 * plan.accesses.size() +
                    256 * plan.ops.size());
    w.line("// Generated by AStitch stitch codegen for cluster of ",
           cluster.nodes.size(), " ops.");
    w.line("// Device: ", spec.name, "; wave capacity ",
           launch.blocks_per_wave, " blocks.");
    w.line("#include <cuda_runtime.h>");
    w.line();
    if (plan.num_global_barriers > 0) {
        w.raw(kGridBarrierHelper);
        w.line();
    }

    // ---- Access summary: the structured per-op index expressions the
    // kernel-access verifier checked this emission against. ----
    if (!plan.accesses.empty()) {
        w.line("// access summary (", plan.accesses.size(),
               " entries; index = offset + c_b*b + c_t*t + c_i*i + "
               "c_th*th):");
        for (const OpAccess &access : plan.accesses) {
            std::string &out = w.beginLine();
            strAppend(out, "//   op", access.op_index, ": ");
            access.appendTo(out);
            w.endLine();
        }
        w.line();
    }

    // ---- Signature. ----
    w.line("extern \"C\" __global__ void");
    w.line("__launch_bounds__(", plan.launch.block, ", ",
           std::max(1, static_cast<int>(launch.blocks_per_wave /
                                        std::max(1, spec.num_sms))),
           ") // regs/thread bound (assume-relax-apply): ",
           plan.regs_per_thread);
    {
        std::string &out = w.beginLine();
        strAppend(out, plan.name, "(");
        const char *sep = "";
        for (const KernelInput &in : plan.inputs) {
            strAppend(out, sep, "const float *__restrict__ ", name(in.node));
            sep = ", ";
        }
        for (NodeId id : plan.outputs) {
            strAppend(out, sep, "float *__restrict__ ", name(id), "_out");
            sep = ", ";
        }
        if (memory.global_scratch_bytes > 0) {
            strAppend(out, sep, "float *__restrict__ global_scratch");
            sep = ", ";
        }
        if (plan.num_global_barriers > 0)
            strAppend(out, sep, "int *barrier_state");
        out += ')';
        w.endLine();
    }
    w.line("{");
    w.push();

    // ---- Shared-memory arena. ----
    if (plan.smem_per_block > 0) {
        w.line("__shared__ float smem[", (plan.smem_per_block + 3) / 4,
               "]; // planner: ", plan.smem_per_block,
               " B/block after liveness reuse");
    }

    // Scheme per node for quick lookup.
    const SchemeMap &schemes = memory.schemes;

    // Plan-side structure this emission implements: op positions, the
    // planner's arena slots, and the structural barrier schedule. Every
    // barrier below is emitted from plan.barriers (each point once,
    // even when dominant merging is off and an op renders in several
    // groups), so the text and the metadata agree by construction —
    // and the emitted-source analyzer can hold them to that.
    std::map<NodeId, int> op_pos;
    for (std::size_t i = 0; i < plan.ops.size(); ++i)
        op_pos.emplace(plan.ops[i].node, static_cast<int>(i));
    const SlotIndex slots(plan.shared_slots);
    std::vector<NodeId> outputs = plan.outputs;
    std::sort(outputs.begin(), outputs.end());
    const auto is_output = [&outputs](NodeId id) {
        return std::binary_search(outputs.begin(), outputs.end(), id);
    };
    const BarrierIndex barrier_index(plan.barriers);
    std::vector<char> barriers_done(plan.barriers.size(), 0);
    int device_barriers_emitted = 0;
    std::int64_t scratch_offset = 0;
    // Operand references of the op being printed; the strings keep
    // their capacity from one op to the next.
    std::vector<std::string> operands;

    // ---- Emit groups in dominant order. ----
    std::vector<int> order(analysis.groups.size());
    for (std::size_t g = 0; g < order.size(); ++g)
        order[g] = static_cast<int>(g);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
        return analysis.groups[a].dominant <
               analysis.groups[b].dominant;
    });

    for (int g : order) {
        const DominantGroup &group = analysis.groups[g];
        const GroupSchedule &sched = schedules[g];
        const Node &dom = graph.node(group.dominant);

        // Pending device-wide barriers in this group: their task loop
        // must trip the same number of times in every block (the
        // inter-block barrier deadlocks otherwise), so its bound is
        // padded up to a multiple of the physical grid and the
        // per-task work — but not the barrier — is guarded.
        const auto pending_device_barrier = [&](NodeId id) {
            const auto p = op_pos.find(id);
            if (p == op_pos.end())
                return false;
            for (int b : barrier_index.at(p->second)) {
                if (plan.barriers[b].scope == BarrierScope::Device &&
                    !barriers_done[b]) {
                    return true;
                }
            }
            return false;
        };
        bool group_has_device_barrier = false;
        for (NodeId id : group.members)
            group_has_device_barrier |= pending_device_barrier(id);

        const std::int64_t tasks =
            std::max<std::int64_t>(1, sched.mapping.tasks_per_block);
        const std::int64_t extent = sched.mapping.launch.grid * tasks;
        const std::int64_t grid =
            std::max<std::int64_t>(1, plan.launch.grid);
        const bool padded =
            group_has_device_barrier && extent % grid != 0;
        const std::int64_t bound =
            padded ? (extent + grid - 1) / grid * grid : extent;

        w.line();
        w.line("// ---- group ", g, ": dominant ", dom.name(),
               ", logical launch ", sched.mapping.launch.toString(),
               sched.proactively_adapted ? " (proactively adapted)" : "",
               " ----");

        // Vertical packing: each physical block walks its logical tasks.
        w.line("for (long task = blockIdx.x; task < ", bound,
               "; task += gridDim.x) { // vertical packing x", tasks,
               padded ? ", padded for uniform barrier trips" : "");
        w.push();
        bool guard_open = false;
        const auto open_guard = [&] {
            if (padded && !guard_open) {
                w.line("if (task < ", extent, ") { // logical task extent");
                w.push();
                guard_open = true;
            }
        };
        const auto close_guard = [&] {
            if (guard_open) {
                w.pop();
                w.line("}");
                guard_open = false;
            }
        };
        open_guard();
        w.line("const long elem = task * blockDim.x + threadIdx.x;");
        w.line("(void)elem;");

        for (NodeId id : group.members) {
            const Node &node = graph.node(id);
            const std::string &value = name(id);
            operands.resize(node.operands().size());
            for (std::size_t k = 0; k < operands.size(); ++k) {
                const NodeId op = node.operands()[k];
                std::string &ref = operands[k];
                ref = name(op);
                if (!cluster.contains(op)) {
                    // Kernel input: a coalesced global load.
                    ref += "[elem]";
                }
                // A producer that is itself a kernel output is
                // materialized to its _out buffer, not staged through
                // the scheme buffers — consumers keep the live register
                // (Local reuse), matching the plan's access summaries.
                const auto scheme = schemes.find(op);
                if (scheme != schemes.end() && !is_output(op)) {
                    if (scheme->second == StitchScheme::Regional)
                        strAppend(ref, "_smem[threadIdx.x % ",
                                  std::max<std::int64_t>(
                                      1, sched.mapping.rows_per_block),
                                  "]");
                    else if (scheme->second == StitchScheme::Global)
                        ref += "_g[task]";
                }
            }

            open_guard();
            if (node.kind() == OpKind::Gather &&
                node.operands().size() >= 2) {
                // A gather reads through its index tensor:
                // out[e] = table[(long)indices[e]].
                w.line("const long ", value, "_idx = (long)", operands[1],
                       "; // gather indices");
                const NodeId table = node.operands()[0];
                if (!cluster.contains(table) &&
                    schemes.find(table) == schemes.end()) {
                    w.line("float ", value, " = ", name(table), "[",
                           value, "_idx];");
                } else {
                    w.line("float ", value, " = ", operands[0], ";");
                }
            } else if (isReduce(node.kind())) {
                const ReduceInfo info = analyzeReduce(graph, id);
                const char *combine =
                    node.kind() == OpKind::ReduceMax   ? "fmaxf(acc, x)"
                    : node.kind() == OpKind::ReduceMin ? "fminf(acc, x)"
                                                       : "acc + x";
                const char *init =
                    node.kind() == OpKind::ReduceMax   ? "-INFINITY"
                    : node.kind() == OpKind::ReduceMin ? "INFINITY"
                                                       : "0.0f";
                {
                    std::string &out = w.beginLine();
                    strAppend(out, "// ", node.name(), ": ",
                              info.is_row_reduce ? "row" : "column",
                              "-reduce <", info.rows, ",", info.cols,
                              ">, ", sched.mapping.rows_per_block,
                              " row(s)/block");
                    if (sched.mapping.split_factor > 1)
                        strAppend(out, ", split x",
                                  sched.mapping.split_factor);
                    w.endLine();
                }
                w.line("float ", value, " = ", init, ";");
                w.line("for (long c = threadIdx.x; c < ", info.cols,
                       "; c += blockDim.x) {");
                w.push();
                w.line("float acc = ", value, ", x = ", operands[0], ";");
                w.line(value, " = ", combine, ";");
                w.pop();
                w.line("}");
                w.line(value, " = blockReduce(", value,
                       ", smem); // tree reduce, 2 sync phases");
                if (node.kind() == OpKind::ReduceMean)
                    w.line(value, " /= ", info.cols, ".0f;");
                if (sched.mapping.uses_atomics) {
                    w.line("atomicAdd(&", value, "_partial[task], ", value,
                           "); // cross-block finalize");
                }
            } else if (!isSource(node.kind())) {
                std::string &out = w.beginLine();
                strAppend(out, "float ", value, " = ");
                appendElementExpr(out, graph, node, operands);
                out += ';';
                w.endLine();
            }

            // Buffer the result per its stitching scheme.
            const auto scheme = schemes.find(id);
            if (is_output(id)) {
                w.line(value, "_out[task * blockDim.x + threadIdx.x] = ",
                       value, ";");
            } else if (scheme != schemes.end()) {
                if (scheme->second == StitchScheme::Regional) {
                    const SharedSlot *slot = slots.find(id);
                    const std::int64_t offset_words =
                        slot ? slot->offset_bytes / 4 : 0;
                    const std::int64_t words =
                        slot ? std::max<std::int64_t>(
                                   1, slot->size_bytes / 4)
                             : 1;
                    w.line("float *", value, "_smem = smem + ", offset_words,
                           "; // regional buffer, planner slot, ", words,
                           " floats/block");
                    w.line(value, "_smem[threadIdx.x % ", words, "] = ",
                           value, ";");
                } else if (scheme->second == StitchScheme::Global) {
                    w.line("float *", value, "_g = global_scratch + ",
                           scratch_offset, ";");
                    w.line(value, "_g[task * blockDim.x + threadIdx.x] = ",
                           value, ";");
                    scratch_offset += node.shape().numElements();
                }
            }

            // ---- Barriers the plan schedules after this op: regional
            // boundaries, arena-reuse separators, and device-wide
            // global-stitch boundaries (emitted outside the padding
            // guard so every block reaches them uniformly). ----
            const auto pos_it = op_pos.find(id);
            if (pos_it == op_pos.end())
                continue;
            for (int b : barrier_index.at(pos_it->second)) {
                if (barriers_done[b])
                    continue;
                barriers_done[b] = 1;
                const BarrierPoint &point = plan.barriers[b];
                if (point.scope == BarrierScope::Block) {
                    const bool own_store =
                        plan.ops[pos_it->second].out_space ==
                        BufferSpace::Shared;
                    w.line(own_store
                               ? "__syncthreads(); // regional boundary"
                               : "__syncthreads(); // arena reuse "
                                 "separator");
                } else {
                    close_guard();
                    w.line("grid_barrier(barrier_state + ",
                           2 * device_barriers_emitted,
                           ", barrier_state + ",
                           2 * device_barriers_emitted + 1,
                           "); // global scheme boundary");
                    ++device_barriers_emitted;
                }
            }
        }
        close_guard();
        w.pop();
        w.line("}");
    }

    w.pop();
    w.line("}");
    emission.source = w.take();
    emission.launch_stub = makeLaunchStub(plan);
    return emission;
}

CudaEmission
emitStitchKernelCuda(const Graph &graph, const Cluster &cluster,
                     const GpuSpec &spec, const AStitchOptions &options)
{
    StitchDiagnostics diag;
    const CompiledCluster compiled =
        compileStitchOp(graph, cluster, spec, options, &diag);
    panicIf(compiled.kernels.size() != 1,
            "stitch emission expects one kernel per cluster");
    const KernelPlan &plan = compiled.kernels[0];

    CudaEmission emission;
    emission.kernel_name = plan.name;
    emission.source = plan.cuda_source;
    emission.launch_stub = makeLaunchStub(plan);
    return emission;
}

} // namespace astitch
