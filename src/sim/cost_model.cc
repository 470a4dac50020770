#include "sim/cost_model.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"

namespace astitch {

namespace {

/** Per-block scheduling cost on an SM (us). Tiny blocks pay this often. */
constexpr double kBlockScheduleUs = 0.0012;

/** Throughput of global atomics (operations per second). */
constexpr double kAtomicThroughput = 12e9;

/** Cost of one block-wide barrier phase per resident block (us). */
constexpr double kBlockBarrierUs = 0.05;

} // namespace

CostModel::CostModel(GpuSpec spec) : spec_(std::move(spec)) {}

double
CostModel::globalBarrierUs(std::int64_t resident_blocks) const
{
    return spec_.global_barrier_base_us +
           spec_.global_barrier_per_block_us *
               static_cast<double>(resident_blocks);
}

double
CostModel::effectiveBandwidth(double occupancy, double sm_efficiency,
                              int block_size) const
{
    // Memory-level parallelism needs enough resident warps: below the
    // saturation occupancy, bandwidth falls off roughly linearly.
    const double occ_factor =
        std::min(1.0, occupancy / spec_.bw_saturation_occupancy);
    // Very small blocks underfill the memory pipeline of the SMs they
    // run on (fewer outstanding loads per scheduler).
    const double block_factor =
        std::min(1.0, static_cast<double>(block_size) / 128.0);
    const double util =
        std::max(0.02, occ_factor * std::max(0.05, block_factor)) *
        std::max(0.05, sm_efficiency);
    return spec_.mem_bandwidth_gbps * util;
}

KernelRecord
CostModel::priceKernel(const KernelWorkDesc &desc) const
{
    KernelRecord record;
    record.name = desc.name;
    record.category = desc.category;
    record.launch = desc.launch;
    record.regs_per_thread = desc.regs_per_thread;
    record.smem_per_block = desc.smem_per_block;
    record.num_global_barriers = desc.num_global_barriers;

    if (desc.launch.grid <= 0 || desc.launch.block <= 0) {
        fatal("kernel ", desc.name, " has empty launch ",
              desc.launch.toString());
    }
    fatalIf(desc.launch.block > spec_.max_threads_per_block,
            "kernel ", desc.name, " block size ", desc.launch.block,
            " exceeds device limit ", spec_.max_threads_per_block);
    fatalIf(desc.smem_per_block > spec_.smem_per_block_bytes,
            "kernel ", desc.name, " shared memory ", desc.smem_per_block,
            " exceeds per-block limit ", spec_.smem_per_block_bytes);

    const Occupancy occ = computeOccupancy(
        spec_, desc.launch.block, desc.regs_per_thread,
        desc.smem_per_block);
    fatalIf(occ.blocks_per_sm == 0,
            "kernel ", desc.name, " cannot launch: zero occupancy");

    // Deadlock constraint (Sec 3.2.3): a kernel that synchronizes across
    // the whole device must fit in a single wave.
    if (desc.num_global_barriers > 0) {
        fatalIf(desc.launch.grid > occ.blocksPerWave(spec_),
                "kernel ", desc.name, " uses a global barrier but its ",
                desc.launch.grid, " blocks exceed the ",
                occ.blocksPerWave(spec_), "-block wave capacity");
    }

    record.achieved_occupancy = achievedOccupancy(spec_, desc.launch, occ);
    record.sm_efficiency = smEfficiency(spec_, desc.launch, occ);

    // --- Memory time --------------------------------------------------
    const double read_txn = std::ceil(
        desc.bytes_read /
        (kDramTransactionBytes * std::max(0.05, desc.read_coalescing)));
    const double write_txn = std::ceil(
        desc.bytes_written /
        (kDramTransactionBytes * std::max(0.05, desc.write_coalescing)));
    record.dram_read_transactions = static_cast<std::int64_t>(read_txn);
    record.dram_write_transactions = static_cast<std::int64_t>(write_txn);

    const double moved_bytes =
        (read_txn + write_txn) * kDramTransactionBytes;
    const double bw = effectiveBandwidth(record.achieved_occupancy,
                                         record.sm_efficiency,
                                         desc.launch.block);
    const double mem_us = moved_bytes / (bw * 1e9) * 1e6;

    // --- Compute time -----------------------------------------------------
    record.inst_fp32 = desc.fp_instructions;
    const double eff_throughput =
        spec_.fp32InstThroughput() *
        std::max(0.05, record.sm_efficiency) *
        std::max(0.25, record.achieved_occupancy * 2.0 > 1.0
                           ? 1.0
                           : record.achieved_occupancy * 2.0);
    const double compute_us = desc.fp_instructions / eff_throughput * 1e6;

    // --- Fixed / serialization costs --------------------------------------
    const double atomic_us = desc.atomic_operations / kAtomicThroughput * 1e6;
    const std::int64_t bpw = occ.blocksPerWave(spec_);
    const double sched_us =
        static_cast<double>(desc.launch.grid) * kBlockScheduleUs /
        spec_.num_sms;
    const double gbar_us =
        desc.num_global_barriers *
        globalBarrierUs(std::min<std::int64_t>(desc.launch.grid, bpw));
    const double bbar_us = desc.num_block_barriers * kBlockBarrierUs;

    record.time_us = std::max(mem_us, compute_us) + atomic_us + sched_us +
                     gbar_us + bbar_us + spec_.kernel_fixed_us;
    record.launch_overhead_us =
        spec_.kernel_launch_us + desc.extra_launch_overhead_us;
    return record;
}

KernelRecord
CostModel::priceMatmul(const std::string &name, std::int64_t batch,
                       std::int64_t m, std::int64_t n, std::int64_t k,
                       int dtype_bytes,
                       double extra_launch_overhead_us) const
{
    KernelRecord record;
    record.name = name;
    record.category = KernelCategory::ComputeIntensive;

    const double flops = 2.0 * batch * m * n * k;
    // Vendor-library GEMMs run near 70% of peak FMA throughput for large
    // shapes; small shapes are launch/tile-bound.
    const double peak = spec_.fp32InstThroughput() * 2.0 *
                        spec_.matmul_throughput_multiplier; // FMA = 2 flops
    const double compute_us = flops / (peak * 0.70) * 1e6;
    const double bytes =
        static_cast<double>(batch) * (m * k + k * n + m * n) * dtype_bytes;
    const double mem_us = bytes / (spec_.mem_bandwidth_gbps * 0.75 * 1e9) *
                          1e6;
    record.time_us = std::max({compute_us, mem_us, spec_.kernel_fixed_us * 2});
    record.launch_overhead_us =
        spec_.kernel_launch_us + extra_launch_overhead_us;

    const int block = 256;
    const std::int64_t tiles =
        std::max<std::int64_t>(1, batch * ((m + 63) / 64) * ((n + 63) / 64));
    record.launch = LaunchDims{tiles, block};
    const Occupancy occ = computeOccupancy(spec_, block, 64, 32 * 1024);
    record.achieved_occupancy = achievedOccupancy(spec_, record.launch, occ);
    record.sm_efficiency = smEfficiency(spec_, record.launch, occ);
    return record;
}

KernelRecord
CostModel::priceMemcpy(const std::string &name, double bytes) const
{
    KernelRecord record;
    record.name = name;
    record.category = KernelCategory::Memcpy;
    record.launch = LaunchDims{1, 1};
    record.time_us =
        bytes / (spec_.mem_bandwidth_gbps * 0.8 * 1e9) * 1e6 + 1.0;
    record.launch_overhead_us = spec_.memcpy_call_us;
    return record;
}

} // namespace astitch
