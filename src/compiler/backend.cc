#include "compiler/backend.h"

#include "compiler/thread_mapping.h"
#include "support/strings.h"

namespace astitch {

Backend::~Backend() = default;

CompiledCluster
compileClusterKernelPerOp(const Graph &graph, const Cluster &cluster,
                          const GpuSpec &spec, std::string_view name_prefix)
{
    CompiledCluster compiled;
    for (NodeId id : cluster.nodes) {
        const Node &node = graph.node(id);
        KernelPlan plan;
        plan.name = strCat(name_prefix, opKindName(node.kind()), "_", id);

        ScheduledOp op;
        op.node = id;
        op.out_space = BufferSpace::Output;
        plan.ops.push_back(op);
        plan.outputs.push_back(id);
        for (NodeId operand : node.operands())
            plan.inputs.push_back(KernelInput{operand, 1.0});

        if (isReduce(node.kind())) {
            const ReduceInfo info = analyzeReduce(graph, id);
            if (info.is_row_reduce) {
                plan.launch =
                    rowReduceMappingNaive(spec, info.rows, info.cols);
                plan.smem_per_block = plan.launch.block * 4;
                plan.num_block_barriers = 2;
            } else {
                plan.launch =
                    columnReduceMappingNaive(info.rows * info.cols);
                plan.atomic_operations =
                    static_cast<double>(info.rows * info.cols) /
                    spec.warp_size;
                plan.read_coalescing = 0.5;
                compiled.num_memcpy += 1; // accumulator memset
                compiled.memcpy_bytes +=
                    static_cast<double>(node.shape().numElements()) *
                    dtypeSizeBytes(node.dtype());
            }
        } else {
            plan.launch =
                elementwiseMappingNaive(node.shape().numElements());
            if (node.kind() == OpKind::Transpose)
                plan.read_coalescing = 0.25;
        }
        plan.regs_per_thread = 24;
        compiled.kernels.push_back(std::move(plan));
    }
    return compiled;
}

} // namespace astitch
