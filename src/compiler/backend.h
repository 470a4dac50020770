/**
 * @file
 * Backend interface: a fusion strategy + code generator pair.
 *
 * Each comparator in the paper's evaluation (TF, XLA, TVM/Ansor,
 * TensorRT) and AStitch itself implements this interface. The runtime
 * Session feeds each memory-intensive cluster to the active backend and
 * simulates the kernel plans it returns.
 */
#ifndef ASTITCH_COMPILER_BACKEND_H
#define ASTITCH_COMPILER_BACKEND_H

#include <memory>
#include <string>
#include <string_view>

#include "compiler/clustering.h"
#include "compiler/kernel_plan.h"
#include "sim/gpu_spec.h"

namespace astitch {

/** A code generator for memory-intensive clusters. */
class Backend
{
  public:
    virtual ~Backend();

    /** Display name ("xla", "astitch", ...). */
    virtual std::string name() const = 0;

    /**
     * Whether the session should apply remote stitching (merging of
     * independent clusters) before compiling. Only AStitch does.
     */
    virtual bool wantsRemoteStitching() const { return false; }

    /**
     * Extra CPU-side dispatch overhead per kernel (us) paid by framework
     * executors that schedule ops one by one (the TF baseline).
     */
    virtual double frameworkOverheadUs() const { return 0.0; }

    /**
     * Compile one memory-intensive cluster into kernel plans.
     *
     * Must be stateless with respect to the backend instance: the
     * session fans clusters out across a thread pool and calls this
     * concurrently on the same backend, so implementations may read
     * configuration members but must not mutate any shared state.
     */
    virtual CompiledCluster compileCluster(const Graph &graph,
                                           const Cluster &cluster,
                                           const GpuSpec &spec) const = 0;
};

/**
 * One kernel per operator of @p cluster, named `<name_prefix><op
 * kind>_<node id>`, with the naive mappings of compiler/thread_mapping.h
 * and no cross-op reuse. The framework-executor baseline (TfBackend)
 * adds its dispatch overhead and memcpys on top; the fallback ladder's
 * terminal rung uses it as is, under the default prefix. Never throws
 * for any cluster a backend could be handed.
 */
CompiledCluster compileClusterKernelPerOp(const Graph &graph,
                                          const Cluster &cluster,
                                          const GpuSpec &spec,
                                          std::string_view name_prefix =
                                              "fallback_");

} // namespace astitch

#endif // ASTITCH_COMPILER_BACKEND_H
