#include "sim/occupancy.h"

#include <algorithm>

namespace astitch {

Occupancy
computeOccupancy(const GpuSpec &spec, int block_size, int regs_per_thread,
                 std::int64_t smem_per_block)
{
    Occupancy occ;
    if (block_size <= 0 || block_size > spec.max_threads_per_block)
        return occ;
    if (smem_per_block > spec.smem_per_block_bytes)
        return occ;
    if (regs_per_thread <= 0)
        regs_per_thread = 32;
    if (regs_per_thread > spec.max_regs_per_thread)
        return occ;

    // Warp-granular thread allocation, as on real silicon.
    const int warps_per_block =
        (block_size + spec.warp_size - 1) / spec.warp_size;
    const int alloc_threads = warps_per_block * spec.warp_size;

    const int by_threads = spec.max_threads_per_sm / alloc_threads;
    const int by_blocks = spec.max_blocks_per_sm;
    const int by_regs = static_cast<int>(
        spec.regs_per_sm /
        (static_cast<std::int64_t>(regs_per_thread) * alloc_threads));
    const int by_smem =
        smem_per_block == 0
            ? spec.max_blocks_per_sm
            : static_cast<int>(spec.smem_per_sm_bytes / smem_per_block);

    occ.blocks_per_sm =
        std::min(std::min(by_threads, by_blocks), std::min(by_regs, by_smem));
    if (occ.blocks_per_sm <= 0) {
        occ.blocks_per_sm = 0;
        return occ;
    }

    // Report the binding resource; an unused resource (no shared memory
    // requested) is never the limiter.
    if (occ.blocks_per_sm == by_threads)
        occ.limiter = Occupancy::Limiter::Threads;
    else if (occ.blocks_per_sm == by_blocks)
        occ.limiter = Occupancy::Limiter::Blocks;
    else if (occ.blocks_per_sm == by_regs)
        occ.limiter = Occupancy::Limiter::Registers;
    else
        occ.limiter = Occupancy::Limiter::SharedMemory;

    occ.warps_per_sm = occ.blocks_per_sm * warps_per_block;
    occ.theoretical =
        static_cast<double>(occ.warps_per_sm) / spec.maxWarpsPerSm();
    return occ;
}

std::int64_t
coResidentBlockCapacity(const GpuSpec &spec, int block_size,
                        int regs_per_thread, std::int64_t smem_per_block)
{
    const Occupancy occ =
        computeOccupancy(spec, block_size, regs_per_thread,
                         smem_per_block);
    return occ.blocks_per_sm == 0 ? 0 : occ.blocksPerWave(spec);
}

double
achievedOccupancy(const GpuSpec &spec, const LaunchDims &launch,
                  const Occupancy &occ)
{
    if (occ.blocks_per_sm == 0 || launch.grid == 0)
        return 0.0;
    const int warps_per_block =
        (launch.block + spec.warp_size - 1) / spec.warp_size;

    // How many blocks actually sit on each busy SM. A grid smaller than
    // the device leaves residency slots empty; a grid larger than a wave
    // fills the theoretical residency.
    const std::int64_t busy_sms =
        std::min<std::int64_t>(launch.grid, spec.num_sms);
    const double blocks_per_busy_sm = std::min(
        static_cast<double>(occ.blocks_per_sm),
        static_cast<double>(launch.grid) / static_cast<double>(busy_sms));
    const double warps = blocks_per_busy_sm * warps_per_block;
    return std::min(1.0, warps / spec.maxWarpsPerSm());
}

double
smEfficiency(const GpuSpec &spec, const LaunchDims &launch,
             const Occupancy &occ)
{
    if (occ.blocks_per_sm == 0 || launch.grid == 0)
        return 0.0;
    const std::int64_t bpw = occ.blocksPerWave(spec);
    const std::int64_t full_waves = launch.grid / bpw;
    const std::int64_t tail_blocks = launch.grid % bpw;
    const std::int64_t waves = full_waves + (tail_blocks > 0 ? 1 : 0);
    // Full waves keep every SM busy; the tail wave occupies as many SMs as
    // it has blocks (capped at the SM count).
    const double busy_sm_waves =
        static_cast<double>(full_waves) * spec.num_sms +
        std::min<std::int64_t>(tail_blocks, spec.num_sms);
    return busy_sm_waves / (static_cast<double>(waves) * spec.num_sms);
}

} // namespace astitch
