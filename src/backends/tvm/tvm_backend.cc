#include "backends/tvm/tvm_backend.h"

#include <algorithm>

#include "compiler/loop_fusion.h"
#include "sim/occupancy.h"

namespace astitch {

namespace {

/** Score a launch configuration with the occupancy model. */
double
scoreLaunch(const GpuSpec &spec, const LaunchDims &launch)
{
    const Occupancy occ = computeOccupancy(spec, launch.block, 32, 0);
    if (occ.blocks_per_sm == 0)
        return 0.0;
    return achievedOccupancy(spec, launch, occ) *
           smEfficiency(spec, launch, occ);
}

/** Ansor-style tuned row-reduce mapping: best of a candidate set. */
LaunchDims
tunedReduceMapping(const GpuSpec &spec, const ReduceInfo &info)
{
    std::vector<LaunchDims> candidates;
    // Naive block-per-row.
    candidates.push_back(
        rowReduceMappingNaive(spec, info.rows, info.cols));
    // Warp-per-row with several rows packed per block.
    for (int block : {128, 256, 512}) {
        const std::int64_t rows_per_block = block / spec.warp_size;
        candidates.push_back(LaunchDims{
            std::max<std::int64_t>(
                1, (info.rows + rows_per_block - 1) / rows_per_block),
            block});
    }
    // Whole-block per row with a grid-stride loop over columns.
    candidates.push_back(
        LaunchDims{std::max<std::int64_t>(1, info.rows), 256});

    LaunchDims best = candidates.front();
    double best_score = scoreLaunch(spec, best);
    for (const LaunchDims &c : candidates) {
        const double s = scoreLaunch(spec, c);
        if (s > best_score) {
            best_score = s;
            best = c;
        }
    }
    return best;
}

/** Tuned elementwise mapping: best block size by the occupancy model. */
LaunchDims
tunedElementwiseMapping(const GpuSpec &spec, std::int64_t n)
{
    LaunchDims best{1, 128};
    double best_score = -1.0;
    for (int block : {128, 256, 512, 1024}) {
        const LaunchDims c{std::max<std::int64_t>(1, (n + block - 1) /
                                                         block),
                           block};
        const double s = scoreLaunch(spec, c);
        if (s > best_score) {
            best_score = s;
            best = c;
        }
    }
    return best;
}

} // namespace

CompiledCluster
TvmBackend::compileCluster(const Graph &graph, const Cluster &cluster,
                           const GpuSpec &spec) const
{
    LoopFusionRules rules;
    rules.fuse_heavy_into_broadcast_consumer = true; // Fig. 5 redundancy
    rules.allow_duplication = true;
    rules.broadcast_producer_is_root = false;
    if (ansor_tuning_) {
        rules.reduce_mapper = tunedReduceMapping;
        rules.elementwise_mapper = tunedElementwiseMapping;
    }
    return compileClusterLoopFusion(graph, cluster, spec, rules);
}

} // namespace astitch
