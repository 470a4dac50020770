/**
 * @file
 * CUDA-style occupancy calculator.
 *
 * Reimplements the computation of the NVIDIA occupancy calculator [4 in
 * the paper]: how many blocks fit on an SM given their thread, register
 * and shared-memory footprints, and therefore how many blocks one *wave*
 * holds — the quantity AStitch's global barrier legality and vertical
 * task packing revolve around (Sec 3.2.3, 3.3, 4.5).
 */
#ifndef ASTITCH_SIM_OCCUPANCY_H
#define ASTITCH_SIM_OCCUPANCY_H

#include "sim/gpu_spec.h"
#include "sim/launch_dims.h"

namespace astitch {

/** Result of an occupancy query for a (block size, regs, smem) triple. */
struct Occupancy
{
    /** Blocks simultaneously resident on one SM (theoretical). */
    int blocks_per_sm = 0;

    /** Resident warps per SM. */
    int warps_per_sm = 0;

    /** warps_per_sm / maxWarpsPerSm: the "theoretical occupancy". */
    double theoretical = 0.0;

    /** Total blocks the whole device holds per wave. */
    std::int64_t blocksPerWave(const GpuSpec &spec) const
    {
        return static_cast<std::int64_t>(blocks_per_sm) * spec.num_sms;
    }

    /** Which resource bounds residency (for diagnostics). */
    enum class Limiter { Threads, Blocks, Registers, SharedMemory, Invalid };
    Limiter limiter = Limiter::Invalid;
};

/**
 * Compute occupancy for launching blocks of @p block_size threads, using
 * @p regs_per_thread registers and @p smem_per_block bytes of shared
 * memory. Returns blocks_per_sm == 0 when the configuration cannot launch
 * at all (block too large for any single SM resource).
 */
Occupancy computeOccupancy(const GpuSpec &spec, int block_size,
                           int regs_per_thread,
                           std::int64_t smem_per_block);

/**
 * Inert stub: nothing memoizes occupancy, so both counters read 0. The
 * repository benchmark's traced path still reads them; the stub goes
 * together with that read in the next benchmark change.
 */
struct OccupancyCacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
};

inline OccupancyCacheStats
occupancyCacheStats()
{
    return {};
}

/**
 * Co-resident block capacity of the whole device for one kernel shape:
 * the number of blocks that can be simultaneously resident (one wave).
 * Returns 0 when the configuration cannot launch at all. This is the
 * legality bound for in-kernel device-wide barriers (Sec 4.5): a
 * lock-free inter-block barrier deadlocks whenever the grid exceeds it,
 * because non-resident blocks wait on SM slots held by blocks spinning
 * at the barrier.
 */
std::int64_t coResidentBlockCapacity(const GpuSpec &spec, int block_size,
                                     int regs_per_thread,
                                     std::int64_t smem_per_block);

/**
 * Achieved occupancy of a concrete launch: the resident-warp ratio seen
 * while the kernel runs, accounting for grids too small to fill the
 * theoretical residency (the Fig. 6-(b) small-block-count pathology).
 */
double achievedOccupancy(const GpuSpec &spec, const LaunchDims &launch,
                         const Occupancy &occ);

/**
 * SM efficiency: fraction of (SM x wave) slots that hold at least one
 * block — full waves keep every SM busy, the tail wave idles the rest
 * (nvprof's sm_efficiency analog).
 */
double smEfficiency(const GpuSpec &spec, const LaunchDims &launch,
                    const Occupancy &occ);

} // namespace astitch

#endif // ASTITCH_SIM_OCCUPANCY_H
