/**
 * @file
 * Tests of fault-tolerant compilation: the per-cluster fallback ladder,
 * session-level recoveries (clustering, parallel section, cache
 * publish), the AS6xx degradation diagnostics, and the JIT cache's
 * degraded-entry handling.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "backends/tf/tf_backend.h"
#include "core/astitch_backend.h"
#include "runtime/dynamic_session.h"
#include "runtime/fallback_ladder.h"
#include "runtime/jit_cache.h"
#include "runtime/session.h"
#include "support/fault_injection.h"
#include "test_graphs.h"
#include "workloads/bert.h"
#include "workloads/common.h"

namespace astitch {
namespace {

/** Fresh AStitch session over Fig. 7 with the given fault plan. */
SessionOptions
faultOptions(const std::string &plan)
{
    SessionOptions options;
    options.fault_plan = plan;
    options.compile_threads = 1; // deterministic hit attribution
    return options;
}

/** Reference outputs: kernel-per-op framework executor, no faults. */
std::vector<Tensor>
referenceOutputs(const Graph &graph, const TensorMap &feeds)
{
    Session session(graph, std::make_unique<TfBackend>());
    return session.run(feeds).outputs;
}

void
expectSameOutputs(const std::vector<Tensor> &got,
                  const std::vector<Tensor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i].allClose(want[i], 1e-5, 1e-6))
            << "output " << i << " diverged from the reference";
}

bool
hasCode(const DiagnosticEngine &engine, const std::string &code)
{
    const std::vector<Diagnostic> &found = engine.diagnostics();
    return std::any_of(found.begin(), found.end(),
                       [&](const Diagnostic &d) { return d.code == code; });
}

bool
anyCauseContains(const DegradationReport &report, const std::string &text)
{
    for (const ClusterDegradation &cluster : report.clusters)
        for (const std::string &cause : cluster.causes)
            if (cause.find(text) != std::string::npos)
                return true;
    return false;
}

// ---------------------------------------------------------------------
// Ladder levels, rung by rung.
// ---------------------------------------------------------------------

TEST(FallbackLadder, CleanCompileIsNotDegraded)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>());
    session.compile();
    EXPECT_FALSE(session.degradation().degraded());
    EXPECT_EQ(session.degradation().maxLevel(), LadderLevel::FullStitch);
    EXPECT_TRUE(session.diagnostics().withFamily("AS6").empty());
}

TEST(FallbackLadder, BackendFaultDemotesToLocalOnly)
{
    const testing::Fig7Graph f = testing::buildFig7();
    const TensorMap feeds = workloads::makeRandomFeeds(f.graph);
    const std::vector<Tensor> want = referenceOutputs(f.graph, feeds);

    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("backend-compile"));
    ASSERT_NO_THROW(session.compile());

    const DegradationReport &report = session.degradation();
    EXPECT_TRUE(report.degraded());
    EXPECT_EQ(report.maxLevel(), LadderLevel::LocalOnly);
    EXPECT_EQ(report.numDegradedClusters(),
              static_cast<int>(report.clusters.size()));
    EXPECT_TRUE(anyCauseContains(report, "injected fault"));
    EXPECT_TRUE(hasCode(session.diagnostics(), "AS601"));

    expectSameOutputs(session.run(feeds).outputs, want);
}

TEST(FallbackLadder, TwoFaultsDemoteToLoopFusion)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("backend-compile,ladder-local-only"));
    ASSERT_NO_THROW(session.compile());
    EXPECT_EQ(session.degradation().maxLevel(), LadderLevel::LoopFusion);
}

TEST(FallbackLadder, AllLadderFaultsLandOnKernelPerOp)
{
    const testing::Fig7Graph f = testing::buildFig7();
    const TensorMap feeds = workloads::makeRandomFeeds(f.graph);
    const std::vector<Tensor> want = referenceOutputs(f.graph, feeds);

    Session session(
        f.graph, std::make_unique<AStitchBackend>(),
        faultOptions(
            "backend-compile,ladder-local-only,ladder-loop-fusion"));
    ASSERT_NO_THROW(session.compile());
    EXPECT_EQ(session.degradation().maxLevel(), LadderLevel::KernelPerOp);

    expectSameOutputs(session.run(feeds).outputs, want);
}

TEST(FallbackLadder, LadderOnlySitesAreCleanWhenFullStitchSucceeds)
{
    // The fallback rungs never run when rung 0 succeeds, so faulting
    // them alone must leave the compile untouched.
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("ladder-local-only,ladder-loop-fusion"));
    ASSERT_NO_THROW(session.compile());
    EXPECT_FALSE(session.degradation().degraded());
}

TEST(FallbackLadder, TransientFaultRetriesOnTheSameRung)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("backend-compile:1"));
    ASSERT_NO_THROW(session.compile());

    const DegradationReport &report = session.degradation();
    EXPECT_EQ(report.maxLevel(), LadderLevel::FullStitch);
    EXPECT_GE(report.totalRetries(), 1);
    EXPECT_TRUE(report.degraded()); // retries count as degradation
    EXPECT_TRUE(hasCode(session.diagnostics(), "AS602"));
    EXPECT_FALSE(hasCode(session.diagnostics(), "AS601"));
}

TEST(FallbackLadder, FailFastRethrowsTheOriginalFault)
{
    const testing::Fig7Graph f = testing::buildFig7();
    SessionOptions options = faultOptions("backend-compile");
    options.fail_fast = true;
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    options);
    EXPECT_THROW(session.compile(), PermanentFault);
}

// ---------------------------------------------------------------------
// Organic (non-injected) failures ride the same ladder.
// ---------------------------------------------------------------------

/** Backend whose compileCluster always throws @p E. */
template <typename E>
class ThrowingBackend : public Backend
{
  public:
    std::string name() const override { return "throwing"; }
    CompiledCluster compileCluster(const Graph &, const Cluster &,
                                   const GpuSpec &) const override
    {
        throw E("synthetic backend failure");
    }
};

TEST(FallbackLadder, PanicErrorIsContained)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph,
                    std::make_unique<ThrowingBackend<PanicError>>());
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(anyCauseContains(session.degradation(),
                                 "internal error:"));
}

TEST(FallbackLadder, MemoryPlannerDeadEndDemotesInsteadOfThrowing)
{
    // A shared-memory budget too small to hold even one reduce scratch
    // buffer sends the planner's Regional->Global demotion loop into a
    // dead end (no victim left to demote) — the classic organic fatal
    // this PR contains.
    AStitchOptions tiny_smem;
    tiny_smem.smem_budget_per_block = 4;

    const testing::Fig7Graph f = testing::buildFig7();
    const TensorMap feeds = workloads::makeRandomFeeds(f.graph);
    const std::vector<Tensor> want = referenceOutputs(f.graph, feeds);

    Session session(f.graph,
                    std::make_unique<AStitchBackend>(tiny_smem));
    ASSERT_NO_THROW(session.compile());

    const DegradationReport &report = session.degradation();
    EXPECT_TRUE(report.degraded());
    EXPECT_GE(report.maxLevel(), LadderLevel::LocalOnly);
    EXPECT_TRUE(anyCauseContains(report, "shared-memory budget"));

    expectSameOutputs(session.run(feeds).outputs, want);
}

TEST(FallbackLadder, MemoryPlannerDeadEndStillThrowsUnderFailFast)
{
    AStitchOptions tiny_smem;
    tiny_smem.smem_budget_per_block = 4;
    SessionOptions options;
    options.fail_fast = true;

    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph,
                    std::make_unique<AStitchBackend>(tiny_smem),
                    options);
    EXPECT_THROW(session.compile(), FatalError);
}

// ---------------------------------------------------------------------
// Direct ladder / kernel-per-op unit coverage.
// ---------------------------------------------------------------------

TEST(FallbackLadder, KernelPerOpCoversEveryClusterNode)
{
    const testing::Fig7Graph f = testing::buildFig7();
    const std::vector<Cluster> clusters =
        findMemoryIntensiveClusters(f.graph);
    ASSERT_FALSE(clusters.empty());
    for (const Cluster &cluster : clusters) {
        const CompiledCluster compiled = compileClusterKernelPerOp(
            f.graph, cluster, GpuSpec::v100());
        EXPECT_EQ(compiled.kernels.size(), cluster.nodes.size());
    }
}

TEST(FallbackLadder, LadderFunctionRecordsOneCausePerDemotion)
{
    const testing::Fig7Graph f = testing::buildFig7();
    const std::vector<Cluster> clusters =
        findMemoryIntensiveClusters(f.graph);
    ASSERT_FALSE(clusters.empty());

    const ThrowingBackend<FatalError> backend;
    const LadderOutcome outcome = compileClusterWithLadder(
        f.graph, clusters[0], GpuSpec::v100(), backend, LadderPolicy{});
    EXPECT_EQ(outcome.degradation.level, LadderLevel::LocalOnly);
    ASSERT_EQ(outcome.degradation.causes.size(), 1u);
    EXPECT_NE(outcome.degradation.causes[0].find("full-stitch:"),
              std::string::npos);
    EXPECT_NE(outcome.degradation.causes[0].find("compile error:"),
              std::string::npos);
    EXPECT_FALSE(outcome.compiled.kernels.empty());
}

// ---------------------------------------------------------------------
// Session-scope recoveries: clustering, parallel section, cache.
// ---------------------------------------------------------------------

TEST(FallbackLadder, ClusteringFaultFallsBackToSingletons)
{
    const testing::Fig7Graph f = testing::buildFig7();
    const TensorMap feeds = workloads::makeRandomFeeds(f.graph);
    const std::vector<Tensor> want = referenceOutputs(f.graph, feeds);

    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("clustering"));
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(session.degradation().clustering_fallback);
    EXPECT_TRUE(hasCode(session.diagnostics(), "AS603"));

    expectSameOutputs(session.run(feeds).outputs, want);
}

TEST(FallbackLadder, TransientClusteringFaultJustRetries)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    faultOptions("clustering:1"));
    ASSERT_NO_THROW(session.compile());
    EXPECT_FALSE(session.degradation().clustering_fallback);
    EXPECT_EQ(session.degradation().session_retries, 1);
}

TEST(FallbackLadder, ThreadPoolFaultFallsBackToSerialCompilation)
{
    // Needs a graph with several clusters: a single-cluster compile
    // never enters the pool (parallelFor degenerates to the serial
    // loop), so Fig. 7 would not reach the fault site.
    const Graph graph =
        workloads::buildBert(workloads::BertConfig::tiny());
    SessionOptions options = faultOptions("thread-pool-task");
    options.compile_threads = 2; // must be pooled to hit the site
    Session session(graph, std::make_unique<AStitchBackend>(),
                    options);
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(session.degradation().serial_fallback);
    EXPECT_EQ(session.degradation().maxLevel(), LadderLevel::FullStitch);
    EXPECT_TRUE(hasCode(session.diagnostics(), "AS604"));
}

TEST(FallbackLadder, CachePublishFaultBypassesTheCache)
{
    JitCache::global().clear();
    const testing::Fig7Graph f = testing::buildFig7();
    SessionOptions options = faultOptions("cache-publish");
    options.use_jit_cache = true;
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    options);
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(session.degradation().cache_bypassed);
    EXPECT_TRUE(hasCode(session.diagnostics(), "AS605"));
    // The publish was lost: nothing landed in the cache.
    EXPECT_EQ(JitCache::global().size(), 0u);
}

TEST(FallbackLadder, TransientCachePublishFaultRetriesAndPublishes)
{
    JitCache::global().clear();
    const testing::Fig7Graph f = testing::buildFig7();
    SessionOptions options = faultOptions("cache-publish:1");
    options.use_jit_cache = true;
    Session session(f.graph, std::make_unique<AStitchBackend>(),
                    options);
    ASSERT_NO_THROW(session.compile());
    EXPECT_FALSE(session.degradation().cache_bypassed);
    EXPECT_GE(session.degradation().session_retries, 1);
    EXPECT_EQ(JitCache::global().size(), 1u);
}

TEST(FallbackLadder, DegradedCacheEntryIsUpgradedOnTheNextCompile)
{
    JitCache::global().clear();
    const testing::Fig7Graph f = testing::buildFig7();

    // Session A publishes a degraded compilation.
    SessionOptions degraded_options = faultOptions("backend-compile");
    degraded_options.use_jit_cache = true;
    Session degraded(f.graph, std::make_unique<AStitchBackend>(),
                     degraded_options);
    ASSERT_NO_THROW(degraded.compile());
    ASSERT_TRUE(degraded.degradation().degraded());
    ASSERT_EQ(JitCache::global().size(), 1u);

    // Session B (no faults) hits the degraded entry, refuses to serve
    // it as full-stitch, recompiles clean and republishes.
    SessionOptions clean_options;
    clean_options.use_jit_cache = true;
    Session upgraded(f.graph, std::make_unique<AStitchBackend>(),
                     clean_options);
    ASSERT_NO_THROW(upgraded.compile());
    EXPECT_FALSE(upgraded.degradation().degraded());
    EXPECT_TRUE(hasCode(upgraded.diagnostics(), "AS606"));

    // Session C now gets a clean hit — no AS606, no degradation.
    Session clean(f.graph, std::make_unique<AStitchBackend>(),
                  clean_options);
    ASSERT_NO_THROW(clean.compile());
    EXPECT_FALSE(clean.degradation().degraded());
    EXPECT_FALSE(hasCode(clean.diagnostics(), "AS606"));
    JitCache::global().clear();
}

TEST(FallbackLadder, ForcedRungCacheHitIsServedAsIs)
{
    // A forced loop-fusion compile (a serve bucket's twin) is degraded
    // by design. A second session at the same rung takes the cached
    // entry as it is: no AS606, no recompile.
    JitCache::global().clear();
    const testing::Fig7Graph f = testing::buildFig7();
    SessionOptions options;
    options.use_jit_cache = true;
    options.start_ladder_level = LadderLevel::LoopFusion;
    Session first(f.graph, std::make_unique<AStitchBackend>(), options);
    ASSERT_NO_THROW(first.compile());
    ASSERT_EQ(first.degradation().maxLevel(), LadderLevel::LoopFusion);
    const std::int64_t misses = JitCache::global().misses();

    Session second(f.graph, std::make_unique<AStitchBackend>(), options);
    ASSERT_NO_THROW(second.compile());
    EXPECT_FALSE(hasCode(second.diagnostics(), "AS606"));
    EXPECT_EQ(second.degradation().maxLevel(), LadderLevel::LoopFusion);
    EXPECT_EQ(JitCache::global().misses(), misses);
    // The very same compiled plans: nothing was compiled again.
    EXPECT_EQ(&second.compiled(), &first.compiled());
    JitCache::global().clear();
}

// ---------------------------------------------------------------------
// DynamicSession aggregation and report rendering.
// ---------------------------------------------------------------------

TEST(FallbackLadder, DynamicSessionMergesDegradationAcrossBuckets)
{
    DynamicSessionOptions options;
    options.session = faultOptions("backend-compile");
    DynamicSession session(
        [](const std::vector<std::int64_t> &dims) {
            return std::move(
                testing::buildFig7(dims[0], dims[1]).graph);
        },
        [] { return std::make_unique<AStitchBackend>(); }, options);

    // Each bucket reports its own rung with the serve it ran.
    for (const std::vector<std::int64_t> &dims :
         {std::vector<std::int64_t>{8, 16},
          std::vector<std::int64_t>{16, 32}}) {
        DynamicSession::BatchServe serve;
        ASSERT_NO_THROW(serve = session.serveBatch(dims));
        EXPECT_TRUE(serve.degraded);
        EXPECT_EQ(serve.level, LadderLevel::LocalOnly);
    }
    EXPECT_EQ(session.numCompiledBuckets(), 2);
}

TEST(FallbackLadder, ReportRenderingAndMerge)
{
    DegradationReport clean;
    EXPECT_FALSE(clean.degraded());
    EXPECT_EQ(clean.renderText(), "");
    EXPECT_NE(clean.renderJson().find("\"degraded\": false"),
              std::string::npos);

    DegradationReport report;
    ClusterDegradation cluster;
    cluster.level = LadderLevel::LoopFusion;
    cluster.retries = 1;
    cluster.causes.push_back("full-stitch: compile error: boom");
    report.clusters.push_back(cluster);
    report.clusters.push_back(ClusterDegradation{});
    report.serial_fallback = true;
    report.session_retries = 2;

    EXPECT_TRUE(report.degraded());
    EXPECT_EQ(report.maxLevel(), LadderLevel::LoopFusion);
    EXPECT_EQ(report.numDegradedClusters(), 1);
    EXPECT_EQ(report.totalRetries(), 3);

    const std::string text = report.renderText();
    EXPECT_NE(text.find("loop-fusion"), std::string::npos);
    EXPECT_NE(text.find("boom"), std::string::npos);
    const std::string json = report.renderJson();
    EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(json.find("\"serial_fallback\": true"),
              std::string::npos);
}

TEST(FallbackLadder, LadderLevelNamesAreStable)
{
    EXPECT_STREQ(ladderLevelName(LadderLevel::FullStitch),
                 "full-stitch");
    EXPECT_STREQ(ladderLevelName(LadderLevel::LocalOnly), "local-only");
    EXPECT_STREQ(ladderLevelName(LadderLevel::LoopFusion),
                 "loop-fusion");
    EXPECT_STREQ(ladderLevelName(LadderLevel::KernelPerOp),
                 "kernel-per-op");
}

} // namespace
} // namespace astitch
