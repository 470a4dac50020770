#include "core/launch_config.h"

#include <algorithm>

#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

namespace {

/** Shared steps 1 and 3: only the relax step differs between the
 * optimized and reference paths. */
template <typename RelaxFn>
LaunchConfig
configureLaunchImpl(const GpuSpec &spec, std::int64_t logical_grid,
                    int block, std::int64_t smem_per_block,
                    bool needs_global_barrier, RelaxFn &&relax)
{
    faultPoint("launch-config");
    LaunchConfig config;
    fatalIf(block <= 0 || block > spec.max_threads_per_block,
            "invalid stitched block size ", block);

    // Step 1 (assume): a conservative 32-register bound.
    constexpr int assumed_regs = 32;
    const Occupancy assumed =
        computeOccupancy(spec, block, assumed_regs, smem_per_block);
    fatalIf(assumed.blocks_per_sm == 0,
            "stitched kernel cannot launch: block ", block, ", smem ",
            smem_per_block);

    // Step 2 (relax): find the largest register budget that keeps the
    // assumed residency — occupancy may be bounded by shared memory, in
    // which case registers are free to grow.
    const int relaxed = relax(assumed);

    // Step 3 (apply): the relaxed bound becomes the compiler annotation.
    config.regs_per_thread = relaxed;
    config.blocks_per_wave = assumed.blocksPerWave(spec);

    std::int64_t grid = std::max<std::int64_t>(1, logical_grid);
    if (needs_global_barrier && grid > config.blocks_per_wave) {
        // Vertical packing: fold the excess logical blocks into the wave.
        config.grid_packing =
            (grid + config.blocks_per_wave - 1) / config.blocks_per_wave;
        grid = (grid + config.grid_packing - 1) / config.grid_packing;
    }
    config.launch = LaunchDims{grid, block};
    return config;
}

} // namespace

LaunchConfig
configureLaunch(const GpuSpec &spec, std::int64_t logical_grid, int block,
                std::int64_t smem_per_block, bool needs_global_barrier)
{
    constexpr int assumed_regs = 32;
    return configureLaunchImpl(
        spec, logical_grid, block, smem_per_block, needs_global_barrier,
        [&](const Occupancy &assumed) {
            // blocks_per_sm(regs) is non-increasing in regs (the
            // register limit tightens while every other limiter is
            // constant), so "keeps the assumed residency" is a monotone
            // predicate: binary-search the largest register budget that
            // still satisfies it instead of scanning every value.
            int lo = assumed_regs;
            int hi = spec.max_regs_per_thread;
            while (lo < hi) {
                const int mid = lo + (hi - lo + 1) / 2;
                const Occupancy occ =
                    computeOccupancy(spec, block, mid, smem_per_block);
                if (occ.blocks_per_sm >= assumed.blocks_per_sm)
                    lo = mid;
                else
                    hi = mid - 1;
            }
            return lo;
        });
}

LaunchConfig
configureLaunchReference(const GpuSpec &spec, std::int64_t logical_grid,
                         int block, std::int64_t smem_per_block,
                         bool needs_global_barrier)
{
    constexpr int assumed_regs = 32;
    return configureLaunchImpl(
        spec, logical_grid, block, smem_per_block, needs_global_barrier,
        [&](const Occupancy &assumed) {
            int relaxed = assumed_regs;
            for (int regs = assumed_regs;
                 regs <= spec.max_regs_per_thread; ++regs) {
                const Occupancy occ =
                    computeOccupancy(spec, block, regs, smem_per_block);
                if (occ.blocks_per_sm >= assumed.blocks_per_sm)
                    relaxed = regs;
                else
                    break;
            }
            return relaxed;
        });
}

} // namespace astitch
