#include "sim/trace_export.h"

#include <sstream>

#include "support/strings.h"

namespace astitch {

namespace {

const char *
categoryName(KernelCategory category)
{
    switch (category) {
      case KernelCategory::MemoryIntensive:
        return "memory_intensive";
      case KernelCategory::ComputeIntensive:
        return "compute_intensive";
      case KernelCategory::Memcpy:
        return "memcpy";
    }
    return "unknown";
}

} // namespace

std::string
toChromeTrace(const PerfCounters &counters)
{
    std::ostringstream oss;
    oss << "{\"traceEvents\":[";
    double cpu_ts = 0.0;
    double gpu_ts = 0.0;
    bool first = true;
    for (const KernelRecord &k : counters.kernels) {
        // CPU dispatch slice.
        if (!first)
            oss << ",";
        first = false;
        oss << "{\"name\":\"launch " << jsonEscape(k.name)
            << "\",\"cat\":\"dispatch\",\"ph\":\"X\",\"pid\":1,"
            << "\"tid\":0,\"ts\":" << strFixed(cpu_ts, 3)
            << ",\"dur\":" << strFixed(k.launch_overhead_us, 3) << "}";
        cpu_ts += k.launch_overhead_us;
        // Device slice starts after its dispatch and the previous
        // device work (single-stream serialization, as the paper's
        // breakdown assumes).
        gpu_ts = std::max(gpu_ts, cpu_ts);
        oss << ",{\"name\":\"" << jsonEscape(k.name) << "\",\"cat\":\""
            << categoryName(k.category)
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
            << strFixed(gpu_ts, 3) << ",\"dur\":"
            << strFixed(k.time_us, 3) << ",\"args\":{\"grid\":"
            << k.launch.grid << ",\"block\":" << k.launch.block
            << ",\"occupancy\":" << strFixed(k.achieved_occupancy, 3)
            << "}}";
        gpu_ts += k.time_us;
    }
    oss << "]}";
    return oss.str();
}

std::string
toCsv(const PerfCounters &counters)
{
    std::ostringstream oss;
    oss << "name,category,grid,block,time_us,overhead_us,occupancy,"
           "sm_efficiency,dram_read_txn,dram_write_txn,inst_fp32\n";
    for (const KernelRecord &k : counters.kernels) {
        oss << k.name << ',' << categoryName(k.category) << ','
            << k.launch.grid << ',' << k.launch.block << ','
            << strFixed(k.time_us, 3) << ','
            << strFixed(k.launch_overhead_us, 3) << ','
            << strFixed(k.achieved_occupancy, 4) << ','
            << strFixed(k.sm_efficiency, 4) << ','
            << k.dram_read_transactions << ','
            << k.dram_write_transactions << ','
            << strFixed(k.inst_fp32, 0) << '\n';
    }
    return oss.str();
}

} // namespace astitch
