/**
 * @file
 * Parameterized property tests: compiler invariants swept over random
 * graph topologies and shape grids (TEST_P / INSTANTIATE_TEST_SUITE_P).
 */
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "backends/tvm/tvm_backend.h"
#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "core/dominant_analysis.h"
#include "core/launch_config.h"
#include "runtime/session.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

using namespace workloads;

const GpuSpec kV100 = GpuSpec::v100();

// ---------------------------------------------------------------------
// Invariants over random graphs.
// ---------------------------------------------------------------------

class RandomGraphProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    Graph
    makeGraph(int nodes = 300) const
    {
        RandomGraphConfig config;
        config.num_nodes = nodes;
        config.seed = GetParam();
        config.max_dim = 32;
        return buildRandomGraph(config);
    }
};

TEST_P(RandomGraphProperty, ClustersPartitionMemoryIntensiveOps)
{
    const Graph g = makeGraph();
    const auto clusters = findMemoryIntensiveClusters(g);
    std::set<NodeId> seen;
    for (const auto &c : clusters) {
        for (NodeId n : c.nodes) {
            EXPECT_TRUE(isMemoryIntensive(g.node(n).kind()));
            EXPECT_TRUE(seen.insert(n).second)
                << "node in two clusters";
        }
    }
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        if (isMemoryIntensive(g.node(id).kind()) &&
            !isSource(g.node(id).kind())) {
            EXPECT_TRUE(seen.count(id)) << "unclustered node " << id;
        }
    }
}

TEST_P(RandomGraphProperty, ClusterFrontiersAreConsistent)
{
    const Graph g = makeGraph();
    for (const auto &c : findMemoryIntensiveClusters(g)) {
        for (NodeId in : c.inputs)
            EXPECT_FALSE(c.contains(in));
        for (NodeId out : c.outputs) {
            EXPECT_TRUE(c.contains(out));
            bool escapes = g.isOutput(out);
            for (NodeId u : g.users(out))
                escapes |= !c.contains(u);
            EXPECT_TRUE(escapes);
        }
    }
}

TEST_P(RandomGraphProperty, RemoteStitchingNeverCreatesUnitCycles)
{
    const Graph g = makeGraph();
    // Session::compile() fatals if the unit DAG is cyclic; AStitch runs
    // remote stitching, so a successful compile proves acyclicity.
    Session session(g, std::make_unique<AStitchBackend>());
    EXPECT_NO_THROW(session.compile());
}

TEST_P(RandomGraphProperty, EveryScheduledKernelIsPriceable)
{
    const Graph g = makeGraph();
    const CostModel model(kV100);
    for (const auto &make :
         {std::function<std::unique_ptr<Backend>()>(
              [] { return std::make_unique<XlaBackend>(); }),
          std::function<std::unique_ptr<Backend>()>(
              [] { return std::make_unique<AStitchBackend>(); })}) {
        Session session(g, make());
        for (const auto &compiled : session.compiled()) {
            for (const auto &kernel : compiled.kernels) {
                const auto desc = workDescFor(g, kernel);
                EXPECT_NO_THROW(model.priceKernel(desc));
                EXPECT_GE(desc.bytes_read, 0.0);
                EXPECT_GE(desc.fp_instructions, 0.0);
            }
        }
    }
}

TEST_P(RandomGraphProperty, StitchedPlansScheduleEveryClusterNodeOnce)
{
    const Graph g = makeGraph();
    Session session(g, std::make_unique<AStitchBackend>());
    const auto &clusters = session.clusters();
    const auto &compiled = session.compiled();
    ASSERT_EQ(clusters.size(), compiled.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        ASSERT_EQ(compiled[i].kernels.size(), 1u);
        const KernelPlan &k = compiled[i].kernels[0];
        std::set<NodeId> scheduled;
        for (const auto &op : k.ops)
            EXPECT_TRUE(scheduled.insert(op.node).second);
        EXPECT_EQ(scheduled.size(), clusters[i].nodes.size());
    }
}

TEST_P(RandomGraphProperty, StitchedResourcesRespectDeviceLimits)
{
    const Graph g = makeGraph();
    Session session(g, std::make_unique<AStitchBackend>());
    for (const auto &compiled : session.compiled()) {
        for (const auto &k : compiled.kernels) {
            EXPECT_LE(k.smem_per_block, kV100.smem_per_block_bytes);
            EXPECT_LE(k.regs_per_thread, kV100.max_regs_per_thread);
            EXPECT_LE(k.launch.block, kV100.max_threads_per_block);
            if (k.num_global_barriers > 0) {
                const Occupancy occ = computeOccupancy(
                    kV100, k.launch.block, k.regs_per_thread,
                    k.smem_per_block);
                EXPECT_LE(k.launch.grid, occ.blocksPerWave(kV100));
            }
        }
    }
}

TEST_P(RandomGraphProperty, AStitchNeverRecomputes)
{
    const Graph g = makeGraph();
    Session session(g, std::make_unique<AStitchBackend>());
    for (const auto &compiled : session.compiled()) {
        for (const auto &k : compiled.kernels) {
            for (const auto &op : k.ops)
                EXPECT_DOUBLE_EQ(op.recompute_factor, 1.0);
        }
    }
}

TEST_P(RandomGraphProperty, FunctionalEquivalenceAcrossBackends)
{
    RandomGraphConfig config;
    config.num_nodes = 100;
    config.seed = GetParam() + 1000;
    config.max_dim = 12;
    const Graph g = buildRandomGraph(config);
    const TensorMap feeds = makeRandomFeeds(g, GetParam());
    const auto expected = Evaluator(g).run(feeds);

    for (const auto &make :
         {std::function<std::unique_ptr<Backend>()>(
              [] { return std::make_unique<XlaBackend>(); }),
          std::function<std::unique_ptr<Backend>()>(
              [] { return std::make_unique<TvmBackend>(); }),
          std::function<std::unique_ptr<Backend>()>(
              [] { return std::make_unique<AStitchBackend>(); })}) {
        Session session(g, make());
        const auto report = session.run(feeds);
        ASSERT_EQ(report.outputs.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_TRUE(
                report.outputs[i].allClose(expected[i], 1e-4, 1e-5))
                << report.backend_name << " seed " << GetParam()
                << " output " << i;
        }
    }
}

TEST_P(RandomGraphProperty, OptimizedCompilePassesMatchReferences)
{
    const Graph g = makeGraph();
    const auto clusters = findMemoryIntensiveClusters(g);
    const auto reference = findMemoryIntensiveClustersReference(g);
    ASSERT_EQ(clusters.size(), reference.size());
    for (std::size_t i = 0; i < clusters.size(); ++i) {
        EXPECT_EQ(clusters[i].nodes, reference[i].nodes);
        EXPECT_EQ(clusters[i].inputs, reference[i].inputs);
        EXPECT_EQ(clusters[i].outputs, reference[i].outputs);
    }
    for (int budget : {0, 1, 7, 64}) {
        const auto stitched = remoteStitch(g, clusters, budget);
        const auto stitched_ref =
            remoteStitchReference(g, reference, budget);
        ASSERT_EQ(stitched.size(), stitched_ref.size())
            << "budget " << budget;
        for (std::size_t i = 0; i < stitched.size(); ++i)
            EXPECT_EQ(stitched[i].nodes, stitched_ref[i].nodes)
                << "budget " << budget;
    }
}

TEST_P(RandomGraphProperty, PassTimingsAreCoherent)
{
    const Graph g = makeGraph();
    Session session(g, std::make_unique<AStitchBackend>());
    const double compile_ms = session.compile();
    const CompilePassTimings &t = session.passTimings();
    EXPECT_GE(t.clustering_ms, 0.0);
    EXPECT_GE(t.remote_stitch_ms, 0.0);
    EXPECT_GE(t.backend_compile_ms, 0.0);
    EXPECT_GE(t.analysis_ms, 0.0);
    EXPECT_GT(t.parallel_section_ms, 0.0);
    EXPECT_GE(t.scheduling_ms, 0.0);
    // The disjoint wall spans cannot exceed the whole compile.
    EXPECT_LE(t.accountedWallMs(), compile_ms + 1.0);
}

TEST_P(RandomGraphProperty, ProducingGroupIsTheFirstListingGroup)
{
    const Graph graph = makeGraph();
    for (const Cluster &cluster : findMemoryIntensiveClusters(graph)) {
        for (bool merging : {true, false}) {
            const DominantAnalysis analysis =
                analyzeDominants(graph, cluster, merging);
            for (NodeId x : cluster.nodes) {
                int expected = -1;
                for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
                    const DominantGroup &group = analysis.groups[g];
                    if (group.dominant == x ||
                        std::binary_search(group.sub_dominants.begin(),
                                           group.sub_dominants.end(), x)) {
                        expected = static_cast<int>(g);
                        break;
                    }
                }
                EXPECT_EQ(analysis.producingGroup(x), expected);
                EXPECT_EQ(analysis.isSchemeBoundary(x), expected >= 0);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9,
                                           10));

// ---------------------------------------------------------------------
// Launch-configuration equivalence: the binary-search relax step must
// reproduce the reference linear scan bit-for-bit on every device model.
// ---------------------------------------------------------------------

TEST(LaunchConfigEquivalence, MatchesReferenceAcrossDevicesAndShapes)
{
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (int block : {32, 64, 128, 192, 256, 512, 1024}) {
            if (block > spec.max_threads_per_block)
                continue;
            for (std::int64_t smem : {0L, 2048L, 16384L, 49152L}) {
                if (smem > spec.smem_per_block_bytes)
                    continue;
                for (bool barrier : {false, true}) {
                    for (std::int64_t grid : {1L, 1000L, 1L << 20}) {
                        const LaunchConfig opt = configureLaunch(
                            spec, grid, block, smem, barrier);
                        const LaunchConfig ref = configureLaunchReference(
                            spec, grid, block, smem, barrier);
                        EXPECT_EQ(opt.launch, ref.launch);
                        EXPECT_EQ(opt.regs_per_thread,
                                  ref.regs_per_thread)
                            << spec.name << " block " << block << " smem "
                            << smem;
                        EXPECT_EQ(opt.blocks_per_wave,
                                  ref.blocks_per_wave);
                        EXPECT_EQ(opt.grid_packing, ref.grid_packing);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plan indexes: each answers exactly what the linear scan it replaced
// answered, including on positions and sizes no compiler emits.
// ---------------------------------------------------------------------

TEST(PlanIndexes, BarrierIndexMatchesLinearScans)
{
    std::mt19937 rng(7);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<BarrierPoint> barriers;
        const int count = static_cast<int>(rng() % 12);
        for (int b = 0; b < count; ++b) {
            barriers.push_back(BarrierPoint{
                static_cast<int>(rng() % 10) - 1,
                rng() % 3 == 0 ? BarrierScope::Device : BarrierScope::Block,
                1});
        }
        // Half indexed up front, the rest appended like codegen's
        // write-after-read separators.
        BarrierIndex index(std::vector<BarrierPoint>(
            barriers.begin(), barriers.begin() + count / 2));
        for (int b = count / 2; b < count; ++b)
            index.append(barriers[b]);

        const auto counts = [&](int b, bool device_only) {
            return !device_only ||
                   barriers[b].scope == BarrierScope::Device;
        };
        for (int p = -3; p <= 11; ++p) {
            std::vector<int> expected_at;
            for (int b = 0; b < count; ++b) {
                if (barriers[b].after_op == p)
                    expected_at.push_back(b);
            }
            const std::span<const int> at = index.at(p);
            EXPECT_EQ(std::vector<int>(at.begin(), at.end()), expected_at);
            for (bool device_only : {false, true}) {
                int window = 0;
                for (int b = 0; b < count; ++b) {
                    window +=
                        barriers[b].after_op < p && counts(b, device_only);
                }
                EXPECT_EQ(index.window(p, device_only), window);
                for (int hi = -3; hi <= 11; ++hi) {
                    bool any = false;
                    for (int b = 0; b < count; ++b) {
                        any |= barriers[b].after_op >= p &&
                               barriers[b].after_op < hi &&
                               counts(b, device_only);
                    }
                    EXPECT_EQ(index.between(p, hi, device_only), any)
                        << "trial " << trial << " [" << p << ", " << hi
                        << ")";
                }
            }
        }
    }
}

TEST(PlanIndexes, OverlappingSlotPairsMatchAllPairs)
{
    std::mt19937 rng(11);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<SharedSlot> slots;
        const int count = static_cast<int>(rng() % 24);
        for (int s = 0; s < count; ++s) {
            // Sizes include zero and negative values; offsets collide.
            slots.push_back(SharedSlot{s, 4 * static_cast<int>(rng() % 10),
                                       static_cast<int>(rng() % 25) - 4});
        }
        std::vector<std::pair<int, int>> expected;
        for (int a = 0; a < count; ++a) {
            for (int b = a + 1; b < count; ++b) {
                const SharedSlot &sa = slots[a];
                const SharedSlot &sb = slots[b];
                if (sa.offset_bytes < sb.offset_bytes + sb.size_bytes &&
                    sb.offset_bytes < sa.offset_bytes + sa.size_bytes)
                    expected.emplace_back(a, b);
            }
        }
        EXPECT_EQ(overlappingSlotPairs(slots), expected)
            << "trial " << trial;
        const SlotIndex index(slots);
        for (int s = 0; s < count; ++s)
            EXPECT_EQ(index.find(s), &slots[s]);
        EXPECT_EQ(index.find(count), nullptr);
    }
}

// ---------------------------------------------------------------------
// Adaptive-mapping invariants over a shape grid.
// ---------------------------------------------------------------------

struct ReduceShape
{
    std::int64_t rows;
    std::int64_t cols;
};

class AdaptiveMappingProperty
    : public ::testing::TestWithParam<ReduceShape>
{
};

TEST_P(AdaptiveMappingProperty, MappingIsAlwaysLaunchable)
{
    const auto [rows, cols] = GetParam();
    const AdaptiveMapping m = adaptiveRowReduce(kV100, rows, cols);
    EXPECT_GE(m.launch.grid, 1);
    EXPECT_GE(m.launch.block, kV100.warp_size);
    EXPECT_LE(m.launch.block, kV100.max_threads_per_block);
    const Occupancy occ = computeOccupancy(kV100, m.launch.block, 32, 0);
    EXPECT_GT(occ.blocks_per_sm, 0);
}

TEST_P(AdaptiveMappingProperty, CoversEveryRowExactly)
{
    const auto [rows, cols] = GetParam();
    const AdaptiveMapping m = adaptiveRowReduce(kV100, rows, cols);
    if (m.split_factor > 1) {
        EXPECT_EQ(m.launch.grid, rows * m.split_factor);
    } else {
        // rows_per_block * tasks_per_block * grid covers all rows.
        EXPECT_GE(m.rows_per_block * m.tasks_per_block * m.launch.grid,
                  rows);
        // ...but not egregiously more than one extra block's worth.
        EXPECT_LT(m.rows_per_block * m.tasks_per_block *
                      (m.launch.grid - 1),
                  rows + m.rows_per_block * m.tasks_per_block);
    }
}

TEST_P(AdaptiveMappingProperty, BeatsOrMatchesNaiveOccupancyScore)
{
    const auto [rows, cols] = GetParam();
    const AdaptiveMapping adaptive = adaptiveRowReduce(kV100, rows, cols);
    const LaunchDims naive = rowReduceMappingNaive(kV100, rows, cols);

    auto score = [&](const LaunchDims &launch) {
        const Occupancy occ =
            computeOccupancy(kV100, launch.block, 32, 0);
        if (occ.blocks_per_sm == 0)
            return 0.0;
        return achievedOccupancy(kV100, launch, occ) *
               smEfficiency(kV100, launch, occ);
    };
    // Vertical packing may shave a sliver of occupancy (a partially
    // filled final wave) in exchange for the barrier-legal grid bound;
    // allow that 2% while still catching real regressions.
    EXPECT_GE(score(adaptive.launch) + 0.02, score(naive));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, AdaptiveMappingProperty,
    ::testing::Values(ReduceShape{750000, 32}, ReduceShape{64, 30000},
                      ReduceShape{1, 1}, ReduceShape{1, 1000000},
                      ReduceShape{1000000, 1}, ReduceShape{4096, 1024},
                      ReduceShape{160, 1024}, ReduceShape{13, 77},
                      ReduceShape{100000, 7}, ReduceShape{33, 4097}));

// ---------------------------------------------------------------------
// Occupancy-calculator invariants over block sizes.
// ---------------------------------------------------------------------

class OccupancyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OccupancyProperty, ResidencyNeverExceedsHardLimits)
{
    const int block = GetParam();
    for (int regs : {16, 32, 64, 128}) {
        for (std::int64_t smem : {0L, 4096L, 16384L, 49152L}) {
            const Occupancy occ =
                computeOccupancy(kV100, block, regs, smem);
            if (occ.blocks_per_sm == 0)
                continue;
            EXPECT_LE(occ.blocks_per_sm * block,
                      kV100.max_threads_per_sm + kV100.warp_size);
            EXPECT_LE(occ.blocks_per_sm, kV100.max_blocks_per_sm);
            EXPECT_LE(static_cast<std::int64_t>(occ.blocks_per_sm) *
                          regs * ((block + 31) / 32 * 32),
                      kV100.regs_per_sm);
            if (smem > 0) {
                EXPECT_LE(occ.blocks_per_sm * smem,
                          kV100.smem_per_sm_bytes);
            }
            EXPECT_GT(occ.theoretical, 0.0);
            EXPECT_LE(occ.theoretical, 1.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, OccupancyProperty,
                         ::testing::Values(32, 64, 96, 128, 192, 256,
                                           384, 512, 768, 1024));

} // namespace
} // namespace astitch
