#include "analysis/plan_consistency.h"

#include <set>

#include "sim/occupancy.h"
#include "support/strings.h"

namespace astitch {

void
checkPlanConsistency(const Graph &graph, const Cluster &cluster,
                     const CompiledCluster &compiled, const GpuSpec &spec,
                     DiagnosticEngine &engine)
{
    // Framework-visible values as kernels execute in order.
    std::set<NodeId> materialized(cluster.inputs.begin(),
                                  cluster.inputs.end());
    std::set<NodeId> scheduled_anywhere;

    for (const KernelPlan &kernel : compiled.kernels) {
        // -- resources --
        if (kernel.launch.block <= 0 ||
            kernel.launch.block > spec.max_threads_per_block) {
            engine.report("AS005", kernel.name,
                          strCat("illegal block size ",
                                 kernel.launch.block));
        }
        if (kernel.launch.grid <= 0)
            engine.report("AS005", kernel.name, "empty grid");
        if (kernel.regs_per_thread > spec.max_regs_per_thread) {
            engine.report("AS006", kernel.name,
                          strCat("register bound ",
                                 kernel.regs_per_thread,
                                 " exceeds device limit"));
        }
        if (kernel.smem_per_block > spec.smem_per_block_bytes) {
            engine.report("AS007", kernel.name,
                          strCat("shared memory ", kernel.smem_per_block,
                                 " exceeds per-block limit"));
        }
        if (kernel.num_global_barriers > 0) {
            const Occupancy occ =
                computeOccupancy(spec, kernel.launch.block,
                                 kernel.regs_per_thread,
                                 kernel.smem_per_block);
            if (occ.blocks_per_sm == 0) {
                engine.report("AS008", kernel.name,
                              "unlaunchable configuration");
            } else if (kernel.launch.grid > occ.blocksPerWave(spec)) {
                engine.report("AS008", kernel.name,
                              strCat("global barrier with ",
                                     kernel.launch.grid,
                                     " blocks exceeds the wave capacity ",
                                     occ.blocksPerWave(spec)));
            }
        }

        // -- dataflow --
        std::set<NodeId> local;
        for (const KernelInput &in : kernel.inputs) {
            if (!materialized.count(in.node)) {
                engine.report("AS003", kernel.name,
                              strCat("input %", in.node,
                                     " is not materialized before this "
                                     "kernel"),
                              in.node);
            }
            if (in.load_factor < 1.0) {
                engine.report("AS009", kernel.name,
                              strCat("input %", in.node,
                                     " has load factor < 1"),
                              in.node);
            }
            local.insert(in.node);
        }
        for (const ScheduledOp &op : kernel.ops) {
            if (op.recompute_factor < 1.0) {
                engine.report("AS009", kernel.name,
                              strCat("op %", op.node,
                                     " has recompute factor < 1"),
                              op.node);
            }
            for (NodeId operand : graph.node(op.node).operands()) {
                if (!local.count(operand)) {
                    engine.report("AS002", kernel.name,
                                  strCat("op %", op.node, " reads %",
                                         operand,
                                         " before it is available"),
                                  op.node);
                }
            }
            local.insert(op.node);
            scheduled_anywhere.insert(op.node);
            if (op.out_space == BufferSpace::Output)
                materialized.insert(op.node);
        }
        for (NodeId out : kernel.outputs) {
            if (!materialized.count(out)) {
                engine.report("AS004", kernel.name,
                              strCat("declared output %", out,
                                     " never written"),
                              out);
            }
        }
    }

    // -- coverage --
    for (NodeId n : cluster.nodes) {
        if (!scheduled_anywhere.count(n)) {
            engine.report("AS001", "<cluster>",
                          strCat("cluster node %", n, " (",
                                 graph.node(n).name(),
                                 ") is not scheduled by any kernel"),
                          n);
        }
    }
    for (NodeId out : cluster.outputs) {
        if (!materialized.count(out)) {
            engine.report("AS004", "<cluster>",
                          strCat("cluster output %", out,
                                 " is never materialized"),
                          out);
        }
    }
}

} // namespace astitch
