/**
 * @file
 * Tests of the analysis subsystem: the diagnostics engine (registry,
 * severities, text/JSON/SARIF renderers), each sanitizer check family on
 * hand-built plans, the unified analyzer, and the Session integration
 * (clean seed workloads produce zero findings).
 */
#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/plan_consistency.h"
#include "analysis/sanitizer.h"
#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/session.h"
#include "sim/occupancy.h"
#include "support/logging.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

std::vector<std::string>
codesOf(const DiagnosticEngine &engine)
{
    std::vector<std::string> codes;
    for (const Diagnostic &d : engine.diagnostics())
        codes.push_back(d.code);
    return codes;
}

// ---------------------------------------------------------------------
// Diagnostics engine
// ---------------------------------------------------------------------

TEST(Diagnostics, RegistryIsSortedAndLookupWorks)
{
    const auto &codes = diagnosticCodes();
    ASSERT_FALSE(codes.empty());
    for (std::size_t i = 1; i < codes.size(); ++i)
        EXPECT_LT(std::string(codes[i - 1].code), codes[i].code);

    const DiagnosticCode *info = findDiagnosticCode("AS101");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->severity, Severity::Error);
    EXPECT_STREQ(info->title, "shared-race-missing-barrier");
    EXPECT_EQ(findDiagnosticCode("AS999"), nullptr);
}

TEST(Diagnostics, ReportUsesRegisteredSeverity)
{
    DiagnosticEngine engine;
    engine.report("AS201", "k", "deadlock");
    engine.report("AS501", "k", "divergent trips");
    EXPECT_EQ(engine.size(), 2u);
    EXPECT_EQ(engine.count(Severity::Error), 1);
    EXPECT_EQ(engine.count(Severity::Warning), 1);
    EXPECT_TRUE(engine.hasErrors());
}

TEST(Diagnostics, UnregisteredCodePanics)
{
    DiagnosticEngine engine;
    EXPECT_THROW(engine.report("XX123", "k", "bogus"), PanicError);
}

TEST(Diagnostics, PrefixFilterAndMerge)
{
    DiagnosticEngine a, b;
    a.report("AS101", "k1", "race");
    b.report("AS005", "k2", "bad launch");
    b.report("AS102", "k2", "war");
    a.merge(b);
    EXPECT_EQ(a.size(), 3u);
    EXPECT_EQ(a.withFamily("AS1").size(), 2u);
    EXPECT_EQ(a.withFamily("AS0").size(), 1u);
    a.clear();
    EXPECT_TRUE(a.empty());
}

TEST(Diagnostics, TextRenderSortsErrorsFirst)
{
    DiagnosticEngine engine;
    engine.report("AS501", "k", "lint");
    engine.report("AS101", "k", "race");
    const std::string text = engine.renderText();
    const auto race = text.find("[AS101]");
    const auto lint = text.find("[AS501]");
    ASSERT_NE(race, std::string::npos);
    ASSERT_NE(lint, std::string::npos);
    EXPECT_LT(race, lint); // errors before warnings
}

TEST(Diagnostics, JsonRenderCarriesFindingsAndSummary)
{
    DiagnosticEngine engine;
    engine.report("AS101", "kern_a", "store \"x\" unsynchronized", 7);
    engine.report("AS501", "kern_b", "trips diverge");
    const std::string json = engine.renderJson();
    EXPECT_NE(json.find("\"code\":\"AS101\""), std::string::npos);
    EXPECT_NE(json.find("\"kernel\":\"kern_a\""), std::string::npos);
    EXPECT_NE(json.find("\"node\":7"), std::string::npos);
    EXPECT_NE(json.find("\\\"x\\\""), std::string::npos); // escaping
    EXPECT_NE(json.find("\"summary\":{\"errors\":1,\"warnings\":1,"
                        "\"notes\":0}"),
              std::string::npos);
}

TEST(Diagnostics, SarifRenderHasRulesAndResults)
{
    DiagnosticEngine engine;
    engine.report("AS201", "kern", "grid over capacity");
    const std::string sarif = engine.renderSarif();
    EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
    // Every registered code appears as a rule.
    for (const DiagnosticCode &info : diagnosticCodes()) {
        EXPECT_NE(sarif.find(strCat("\"id\":\"", info.code, "\"")),
                  std::string::npos)
            << info.code;
    }
    EXPECT_NE(sarif.find("\"ruleId\":\"AS201\""), std::string::npos);
    EXPECT_NE(sarif.find("\"level\":\"error\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\":\"kern\",\"kind\":\"kernel\""),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Sanitizer families on hand-built plans
// ---------------------------------------------------------------------

/** x -> tanh -> sigmoid chain whose middle value lives in shared
 * memory. */
struct SharedChainFixture
{
    Graph graph;
    Cluster cluster;
    CompiledCluster compiled;
    NodeId x, t, r;

    SharedChainFixture()
    {
        GraphBuilder b(graph);
        x = b.parameter({128});
        t = b.tanh(x);
        r = b.sigmoid(t);
        graph.markOutput(r);
        cluster = findMemoryIntensiveClusters(graph)[0];

        KernelPlan plan;
        plan.name = "chain";
        plan.launch = LaunchDims{1, 128};
        plan.smem_per_block = 512;
        plan.inputs.push_back(KernelInput{x, 1.0});
        plan.ops.push_back(ScheduledOp{t, 1.0, BufferSpace::Shared, {}});
        plan.ops.push_back(ScheduledOp{r, 1.0, BufferSpace::Output, {}});
        plan.outputs.push_back(r);
        plan.shared_slots.push_back(SharedSlot{t, 0, 512});
        plan.barriers.push_back(
            BarrierPoint{0, BarrierScope::Block, 1});
        compiled.kernels.push_back(std::move(plan));
    }
};

TEST(Sanitizer, CleanSharedChainHasNoFindings)
{
    SharedChainFixture f;
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_TRUE(engine.empty()) << engine.renderText();
}

TEST(Sanitizer, MissingBarrierIsAS101)
{
    SharedChainFixture f;
    f.compiled.kernels[0].barriers.clear();
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS101"});
}

TEST(Sanitizer, MisplacedBarrierIsStillAS101)
{
    SharedChainFixture f;
    // A barrier after the consumer does not protect the edge.
    f.compiled.kernels[0].barriers[0].after_op = 1;
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS101"});
}

TEST(Sanitizer, GlobalEdgeWithoutDeviceBarrierIsAS202)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.ops[0].out_space = BufferSpace::Global;
    plan.shared_slots.clear();
    // The Block barrier covers the edge race-wise, but block-scope sync
    // cannot order global-memory communication across blocks.
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS202"});
}

TEST(Sanitizer, DeviceBarrierOverCapacityIsAS201)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.ops[0].out_space = BufferSpace::Global;
    plan.shared_slots.clear();
    plan.barriers[0].scope = BarrierScope::Device;
    plan.launch.grid = 1 << 20; // far beyond any wave
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS201"});

    // At exactly the co-resident capacity the barrier is legal.
    plan.launch.grid = static_cast<int>(coResidentBlockCapacity(
        kV100, plan.launch.block, plan.regs_per_thread,
        plan.smem_per_block));
    engine.clear();
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_TRUE(engine.empty()) << engine.renderText();
}

TEST(Sanitizer, UnlaunchableDeviceBarrierIsAS203)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.barriers[0].scope = BarrierScope::Device;
    plan.smem_per_block = kV100.smem_per_block_bytes + 1;
    plan.shared_slots.clear();
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS203"});
}

TEST(Sanitizer, CrossBlockPartitionIsAS301)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.ops[0].partition = OpPartition{LaunchDims{4, 128}, 1, 1};
    plan.ops[1].partition = OpPartition{LaunchDims{8, 64}, 1, 1};
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS301"});

    // Matching partitions are clean.
    plan.ops[1].partition = plan.ops[0].partition;
    engine.clear();
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_TRUE(engine.empty()) << engine.renderText();
}

TEST(Sanitizer, SlotEscapingArenaIsAS402)
{
    SharedChainFixture f;
    f.compiled.kernels[0].shared_slots[0].size_bytes = 1024;
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS402"});
}

TEST(Sanitizer, DivergentTripCountIsAS501Warning)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.ops[0].partition = OpPartition{LaunchDims{4, 128}, 1, 4};
    plan.ops[1].partition = plan.ops[0].partition;
    plan.barriers[0].trip_count = 1; // loop iterates 4 times
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS501"});
    EXPECT_FALSE(engine.hasErrors()); // lint only
    EXPECT_EQ(engine.count(Severity::Warning), 1);
}

/** Two disjoint-lifetime shared values aliased onto one slot. */
struct AliasedSlotsFixture
{
    Graph graph;
    CompiledCluster compiled;
    NodeId x, a, b, c, d;

    AliasedSlotsFixture()
    {
        GraphBuilder gb(graph);
        x = gb.parameter({128});
        a = gb.tanh(x);    // shared, live [0, 1]
        b = gb.sigmoid(a); // consumer of a
        c = gb.exp(b);     // shared, live [2, 3]
        d = gb.log(c);     // consumer of c, output
        graph.markOutput(d);

        KernelPlan plan;
        plan.name = "aliased";
        plan.launch = LaunchDims{1, 128};
        plan.smem_per_block = 512;
        plan.inputs.push_back(KernelInput{x, 1.0});
        plan.ops.push_back(ScheduledOp{a, 1.0, BufferSpace::Shared, {}});
        plan.ops.push_back(ScheduledOp{b, 1.0, BufferSpace::Register, {}});
        plan.ops.push_back(ScheduledOp{c, 1.0, BufferSpace::Shared, {}});
        plan.ops.push_back(ScheduledOp{d, 1.0, BufferSpace::Output, {}});
        plan.outputs.push_back(d);
        // Both values share bytes [0, 512): legal, lifetimes disjoint.
        plan.shared_slots.push_back(SharedSlot{a, 0, 512});
        plan.shared_slots.push_back(SharedSlot{c, 0, 512});
        // Boundary barrier of edge a->b, the write-after-read separator
        // between a's last reader and c's store, and the boundary
        // barrier of edge c->d.
        plan.barriers.push_back(BarrierPoint{0, BarrierScope::Block, 1});
        plan.barriers.push_back(BarrierPoint{1, BarrierScope::Block, 1});
        plan.barriers.push_back(BarrierPoint{2, BarrierScope::Block, 1});
        compiled.kernels.push_back(std::move(plan));
    }
};

TEST(Sanitizer, LegalSlotReuseIsClean)
{
    AliasedSlotsFixture f;
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_TRUE(engine.empty()) << engine.renderText();
}

TEST(Sanitizer, ReuseWithoutSeparatorIsAS102)
{
    AliasedSlotsFixture f;
    // Drop the WAR separator between a's last reader and c's store.
    auto &barriers = f.compiled.kernels[0].barriers;
    barriers.erase(barriers.begin() + 1);
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    EXPECT_EQ(codesOf(engine), std::vector<std::string>{"AS102"});
}

TEST(Sanitizer, ConcurrentlyLiveOverlapIsAS401)
{
    AliasedSlotsFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    // Replace the final op with one consuming both a and c: their
    // lifetimes now overlap while their slots share bytes.
    GraphBuilder gb(f.graph);
    const NodeId d2 = gb.add(f.a, f.c);
    plan.ops[3] = ScheduledOp{d2, 1.0, BufferSpace::Output, {}};
    plan.outputs.assign(1, d2);
    DiagnosticEngine engine;
    sanitizeCompiledCluster(f.graph, f.compiled, kV100, engine);
    const auto codes = codesOf(engine);
    ASSERT_EQ(codes.size(), 1u) << engine.renderText();
    EXPECT_EQ(codes[0], "AS401");
}

// ---------------------------------------------------------------------
// Unified analyzer + legacy validator shim
// ---------------------------------------------------------------------

TEST(Analyzer, CombinesConsistencyAndSanitizer)
{
    SharedChainFixture f;
    KernelPlan &plan = f.compiled.kernels[0];
    plan.launch.block = 4096;  // AS005
    plan.barriers.clear();     // AS101
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeCompiledCluster(f.graph, f.cluster, f.compiled,
                                        kV100, engine));
    EXPECT_EQ(engine.withFamily("AS0").size(), 1u);
    EXPECT_EQ(engine.withFamily("AS1").size(), 1u);
}

TEST(Analyzer, ConsistencyFindingsCarryCodes)
{
    SharedChainFixture f;
    f.compiled.kernels[0].launch.block = 4096;
    DiagnosticEngine engine;
    checkPlanConsistency(f.graph, f.cluster, f.compiled, kV100, engine);
    ASSERT_EQ(engine.size(), 1u);
    EXPECT_EQ(engine.diagnostics()[0].code, "AS005");
    EXPECT_NE(engine.diagnostics()[0].message.find("illegal block size"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Pipeline integration
// ---------------------------------------------------------------------

TEST(Analysis, StitchedFig7IsHazardFree)
{
    testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>());
    session.compile();
    EXPECT_TRUE(session.diagnostics().empty())
        << session.diagnostics().renderText();
}

TEST(Analysis, NonStitchBackendsProduceNoFindings)
{
    testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<XlaBackend>());
    session.compile();
    EXPECT_TRUE(session.diagnostics().empty())
        << session.diagnostics().renderText();
}

TEST(Analysis, CodegenEmitsStructuralMetadata)
{
    // The stitched softmax-like cluster must carry partitions, barrier
    // points and arena slots for the sanitizer to chew on.
    testing::Fig7Graph f = testing::buildFig7();
    auto clusters =
        remoteStitch(f.graph, findMemoryIntensiveClusters(f.graph));
    ASSERT_FALSE(clusters.empty());
    const CompiledCluster compiled =
        compileStitchOp(f.graph, clusters[0], kV100, AStitchOptions{});
    ASSERT_EQ(compiled.kernels.size(), 1u);
    const KernelPlan &plan = compiled.kernels[0];
    DiagnosticEngine engine;
    EXPECT_TRUE(analyzeCompiledCluster(f.graph, clusters[0], compiled,
                                       kV100, engine));
    EXPECT_TRUE(engine.empty()) << engine.renderText();
    bool any_partition = false;
    for (const ScheduledOp &op : plan.ops)
        any_partition |= op.partition.known();
    EXPECT_TRUE(any_partition);
    int shared_stores_with_readers = 0;
    for (const ScheduledOp &op : plan.ops) {
        if (op.out_space != BufferSpace::Shared)
            continue;
        for (NodeId u : f.graph.users(op.node)) {
            if (clusters[0].contains(u)) {
                ++shared_stores_with_readers;
                break;
            }
        }
    }
    if (shared_stores_with_readers > 0) {
        EXPECT_FALSE(plan.barriers.empty());
        EXPECT_FALSE(plan.shared_slots.empty());
    }
}

} // namespace
} // namespace astitch
