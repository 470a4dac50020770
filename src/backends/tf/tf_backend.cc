#include "backends/tf/tf_backend.h"

namespace astitch {

CompiledCluster
TfBackend::compileCluster(const Graph &graph, const Cluster &cluster,
                          const GpuSpec &spec) const
{
    CompiledCluster compiled =
        compileClusterKernelPerOp(graph, cluster, spec, "tf_");
    for (KernelPlan &plan : compiled.kernels)
        plan.extra_launch_overhead_us = frameworkOverheadUs();

    // The eager executor shuffles framework-owned buffers frequently:
    // roughly one memcpy-class activity per three op dispatches.
    compiled.num_memcpy += static_cast<int>(cluster.nodes.size() / 3);
    return compiled;
}

} // namespace astitch
