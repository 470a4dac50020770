/**
 * @file
 * CUDA C++ source emission for stitched kernels.
 *
 * The production AStitch lowers its thread-mapping schedules to GPU IR
 * and then CUDA binaries (Sec 4.5 applies the relaxed register bound "as
 * annotation information when lowering"). This emitter renders the same
 * lowering as readable CUDA source: one __global__ function per stitch
 * op with
 *
 *   - __launch_bounds__ carrying the assume-relax-apply register bound,
 *   - a static __shared__ arena sized by the memory planner, with every
 *     regional buffer placed at its planner-assigned slot offset,
 *   - per-group sections in schedule order, each under its logical
 *     thread mapping (vertical-packing task loops included),
 *   - register/shared/global buffering per the stitching schemes, with
 *     barriers emitted from the plan's structural BarrierPoint list:
 *     __syncthreads() at regional boundaries and arena-reuse
 *     separators, and a classic lock-free inter-block barrier
 *     (Xiao & Feng [50]) at global boundaries. Task loops containing a
 *     device-wide barrier are padded to a grid-uniform trip count (the
 *     body is guarded, the barrier is not), so every block reaches the
 *     barrier the same number of times.
 *
 * The emission is generated from the real kernel plan and stored on it
 * (KernelPlan::cuda_source), so the emitted-source static analyzer
 * (analysis/cuda_static.h) can independently re-derive its structure
 * and cross-check it against the plan. In this reproduction there is no
 * CUDA toolchain to compile it with; the analyzer and tests validate
 * the structure instead.
 */
#ifndef ASTITCH_CORE_CUDA_EMITTER_H
#define ASTITCH_CORE_CUDA_EMITTER_H

#include <string>

#include "core/stitch_codegen.h"

namespace astitch {

/** Result of emitting one stitched kernel. */
struct CudaEmission
{
    /** The kernel source (helpers + one __global__ function). */
    std::string source;

    /** The host-side launch statement, for documentation. */
    std::string launch_stub;

    /** The generated kernel's name. */
    std::string kernel_name;
};

/**
 * Render the CUDA source for an already-compiled kernel plan. The pass
 * intermediates (@p analysis, @p schedules, @p memory, @p launch) are
 * the ones compileStitchOp produced for @p plan; stitch codegen calls
 * this at the end of compilation and stores the result in
 * KernelPlan::cuda_source. The text is rendered before analysis, so it
 * carries no symbolic summary or shape certificate (those travel on
 * the plan and in its artifact payload) and @p shape_params is unused.
 */
CudaEmission renderStitchKernelCuda(const Graph &graph,
                                    const Cluster &cluster,
                                    const GpuSpec &spec,
                                    const KernelPlan &plan,
                                    const DominantAnalysis &analysis,
                                    const std::vector<GroupSchedule> &schedules,
                                    const MemoryPlan &memory,
                                    const LaunchConfig &launch,
                                    const std::vector<ShapeDim> &shape_params);

/**
 * Compile @p cluster with AStitch and emit CUDA source for the stitched
 * kernel (convenience wrapper over compileStitchOp + the render above).
 */
CudaEmission emitStitchKernelCuda(const Graph &graph,
                                  const Cluster &cluster,
                                  const GpuSpec &spec,
                                  const AStitchOptions &options = {});

} // namespace astitch

#endif // ASTITCH_CORE_CUDA_EMITTER_H
