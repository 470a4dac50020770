/**
 * @file
 * Resource-aware launch configuration: assume-relax-apply (Sec 4.5).
 *
 * A stitched kernel with in-kernel global barriers must keep its grid
 * within one wave, but blocks-per-wave depends on register usage, which
 * is only known *after* compilation. AStitch breaks the circularity by
 * (1) assuming a small register bound (32), (2) computing the wave
 * capacity under that bound plus the planned shared memory, then
 * (3) relaxing the register bound as far as occupancy allows and applying
 * it as a compiler annotation (maxrregcount) when lowering.
 */
#ifndef ASTITCH_CORE_LAUNCH_CONFIG_H
#define ASTITCH_CORE_LAUNCH_CONFIG_H

#include "sim/occupancy.h"

namespace astitch {

/** Final launch decision for one stitched kernel. */
struct LaunchConfig
{
    LaunchDims launch;

    /** The relaxed-and-applied register bound. */
    int regs_per_thread = 32;

    /** Wave capacity under the final configuration. */
    std::int64_t blocks_per_wave = 0;

    /** Extra vertical-packing factor applied to cap the grid. */
    std::int64_t grid_packing = 1;
};

/**
 * Configure the physical launch. @p logical_grid is the widest logical
 * grid any group needs; @p block is the physical block size; @p
 * needs_global_barrier forces the one-wave cap.
 */
LaunchConfig configureLaunch(const GpuSpec &spec, std::int64_t logical_grid,
                             int block, std::int64_t smem_per_block,
                             bool needs_global_barrier);

/**
 * Reference (pre-optimization) implementation of configureLaunch(): the
 * relax step scans register budgets linearly instead of binary-searching
 * them. Retained for the equivalence property tests and the
 * compile-scale benchmark; configureLaunch() must return bit-identical
 * LaunchConfigs (the relaxed predicate is monotone in regs, so binary
 * search finds the same bound the scan does).
 */
LaunchConfig configureLaunchReference(const GpuSpec &spec,
                                      std::int64_t logical_grid, int block,
                                      std::int64_t smem_per_block,
                                      bool needs_global_barrier);

} // namespace astitch

#endif // ASTITCH_CORE_LAUNCH_CONFIG_H
