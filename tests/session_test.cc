/**
 * @file
 * Tests of the runtime Session: compilation caching, unit scheduling,
 * counter plumbing and functional execution through compiled plans.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "backends/tf/tf_backend.h"
#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/session.h"
#include "test_graphs.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

TEST(Session, CompileIsCached)
{
    Graph g = testing::buildElementwiseChain(256, 3);
    Session session(g, std::make_unique<XlaBackend>());
    const double first = session.compile();
    const double second = session.compile();
    EXPECT_EQ(first, second); // cached, not re-measured
    EXPECT_GE(first, 0.0);
}

TEST(Session, ProfileProducesCountersWithoutValues)
{
    Graph g = testing::buildSoftmax(128, 256);
    Session session(g, std::make_unique<XlaBackend>());
    const RunReport report = session.profile();
    EXPECT_TRUE(report.outputs.empty());
    EXPECT_GT(report.memKernelCount(), 0);
    EXPECT_GT(report.end_to_end_us, 0.0);
    EXPECT_EQ(report.backend_name, "xla");
}

TEST(Session, RunComputesOutputsMatchingEvaluator)
{
    auto f = testing::buildFig7(4, 8);
    TensorMap feeds{
        {f.param1, Tensor::iota({4, 8})},
        {f.param2, Tensor(Shape{4, 1}, {1, 2, 3, 4})},
    };
    const auto expected = Evaluator(f.graph).run(feeds);

    for (int backend = 0; backend < 3; ++backend) {
        std::unique_ptr<Backend> b;
        if (backend == 0)
            b = std::make_unique<TfBackend>();
        else if (backend == 1)
            b = std::make_unique<XlaBackend>();
        else
            b = std::make_unique<AStitchBackend>();
        Session session(f.graph, std::move(b));
        const RunReport report = session.run(feeds);
        ASSERT_EQ(report.outputs.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_TRUE(report.outputs[i].allClose(expected[i]))
                << "backend " << report.backend_name << " output " << i;
        }
    }
}

TEST(Session, ComputeIntensiveOpsPricedAsLibraryKernels)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({16, 16});
    NodeId w = b.parameter({16, 16});
    NodeId y = b.tanh(b.matmul(x, w));
    g.markOutput(y);
    Session session(g, std::make_unique<XlaBackend>());
    const RunReport report = session.profile();
    EXPECT_EQ(report.counters.kernelCount(
                  KernelCategory::ComputeIntensive),
              1);
    EXPECT_EQ(report.memKernelCount(), 1);
}

TEST(Session, InterleavedClustersAndMatmulsScheduleCorrectly)
{
    // mem -> matmul -> mem -> matmul -> mem, with values checked.
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({4, 4});
    NodeId m1 = b.mul(x, b.constantScalar(0.5f));
    NodeId w = b.parameter({4, 4});
    NodeId mm1 = b.matmul(m1, w);
    NodeId m2 = b.tanh(mm1);
    NodeId mm2 = b.matmul(m2, w);
    NodeId m3 = b.sigmoid(mm2);
    g.markOutput(m3);

    TensorMap feeds = workloads::makeRandomFeeds(g);
    const auto expected = Evaluator(g).run(feeds);
    Session session(g, std::make_unique<AStitchBackend>());
    const auto report = session.run(feeds);
    ASSERT_EQ(report.outputs.size(), 1u);
    EXPECT_TRUE(report.outputs[0].allClose(expected[0]));
}

TEST(Session, TfBackendPaysFrameworkOverhead)
{
    Graph g = testing::buildElementwiseChain(1024, 5);
    Session tf_session(g, std::make_unique<TfBackend>());
    Session xla_session(g, std::make_unique<XlaBackend>());
    const auto tf = tf_session.profile();
    const auto xla = xla_session.profile();
    EXPECT_GT(tf.memKernelCount(), xla.memKernelCount());
    EXPECT_GT(tf.breakdown.overhead_us, xla.breakdown.overhead_us);
    EXPECT_GT(tf.end_to_end_us, xla.end_to_end_us);
}

TEST(Session, AStitchRemoteStitchingMergesIndependentClusters)
{
    // Two independent softmaxes: XLA keeps two clusters, AStitch merges
    // them into one stitch op (one kernel).
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({64, 64});
    NodeId y = b.parameter({64, 64});
    b.output(b.softmax(x));
    b.output(b.softmax(y));

    Session xla(g, std::make_unique<XlaBackend>());
    Session astitch(g, std::make_unique<AStitchBackend>());
    EXPECT_EQ(xla.profile().num_clusters, 2);
    EXPECT_EQ(astitch.profile().num_clusters, 1);
    EXPECT_EQ(astitch.profile().memKernelCount(), 1);
}

TEST(Session, ReportSummaryMentionsBackend)
{
    Graph g = testing::buildElementwiseChain(64, 2);
    Session session(g, std::make_unique<AStitchBackend>());
    const auto report = session.profile();
    EXPECT_NE(report.summary().find("astitch"), std::string::npos);
}

TEST(Session, ColdCompileAnalyzesEachPlanOnceWithoutStderr)
{
    // An 800-node Sec 6.4.1 draw whose stitched plan carries an AS751.
    // The session is the one place a compiled plan is analyzed: its
    // findings land in diagnostics() once each and nothing is dumped
    // to stderr on the way.
    workloads::RandomGraphConfig config;
    config.num_nodes = 800;
    config.seed = 5;
    const Graph g = workloads::buildRandomGraph(config);
    Session session(g, std::make_unique<AStitchBackend>());
    ::testing::internal::CaptureStderr();
    session.compile();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("stitch sanitizer"), std::string::npos) << err;

    const std::vector<Diagnostic> &found =
        session.diagnostics().diagnostics();
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(std::count_if(found.begin(), found.end(),
                            [](const Diagnostic &d) {
                                return d.code == "AS751";
                            }),
              1);
    for (const Diagnostic &d : found) {
        const auto same = std::count_if(
            found.begin(), found.end(), [&](const Diagnostic &o) {
                return o.toString() == d.toString() && o.node == d.node;
            });
        EXPECT_EQ(same, 1) << d.toString();
    }
}

} // namespace
} // namespace astitch
