/**
 * @file
 * Kernel launch simulator: prices work descriptors and accumulates them
 * into PerfCounters, enforcing device legality along the way.
 */
#ifndef ASTITCH_SIM_KERNEL_SIM_H
#define ASTITCH_SIM_KERNEL_SIM_H

#include "sim/cost_model.h"
#include "sim/perf_counters.h"

namespace astitch {

/**
 * Stateful wrapper over CostModel that records every launch into a
 * PerfCounters stream, like a profiler attached to the device.
 */
class KernelSim
{
  public:
    explicit KernelSim(GpuSpec spec);

    const GpuSpec &spec() const { return cost_model_.spec(); }

    /** Launch one generated kernel. */
    const KernelRecord &launch(const KernelWorkDesc &desc);

    /** Launch one library GEMM. */
    const KernelRecord &launchMatmul(const std::string &name,
                                     std::int64_t batch, std::int64_t m,
                                     std::int64_t n, std::int64_t k,
                                     int dtype_bytes,
                                     double extra_launch_overhead_us = 0.0);

    /** Issue a memcpy/memset activity. */
    const KernelRecord &memcpy(const std::string &name, double bytes);

    const PerfCounters &counters() const { return counters_; }
    PerfCounters takeCounters();

  private:
    CostModel cost_model_;
    PerfCounters counters_;
};

} // namespace astitch

#endif // ASTITCH_SIM_KERNEL_SIM_H
