/**
 * @file
 * Tests of the emitted-CUDA static analyzer (AS9xx).
 *
 * Four layers:
 *  - Lexer/survey units: comment stripping, punct longest-match,
 *    literal and line edge cases, and the structural survey the CLI's `analyze --emitted` listing uses.
 *  - Seeded emitter mutations: compile a real workload, corrupt the
 *    emitted text the way a specific emitter bug would, and assert the
 *    analyzer catches it with exactly one distinct AS9xx code — the
 *    detection bar of DESIGN.md §15.
 *  - Synthetic sources: hand-written kernels driven through
 *    analyzeEmittedCudaSource, each agreeing with its plan in all but
 *    one respect, pinning each code to its own trigger.
 *  - Integration: a zero-findings sweep with the analyzer default-on
 *    across devices, and the artifact-cache warm-load gate rejecting a
 *    tampered stored kernel source (AS624).
 */
#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/cuda_lexer.h"
#include "analysis/cuda_static.h"
#include "core/astitch_backend.h"
#include "core/cuda_emitter.h"
#include "runtime/artifact_cache.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

const GpuSpec kV100 = GpuSpec::v100();

Cluster
soleCluster(const Graph &g)
{
    auto clusters = findMemoryIntensiveClusters(g);
    EXPECT_EQ(clusters.size(), 1u);
    return clusters[0];
}

/** Distinct AS9xx codes in @p engine. */
std::set<std::string>
as9Codes(const DiagnosticEngine &engine)
{
    std::set<std::string> codes;
    for (const Diagnostic &d : engine.diagnostics()) {
        if (d.code.rfind("AS9", 0) == 0)
            codes.insert(d.code);
    }
    return codes;
}

// ---------------------------------------------------------------------
// Lexer units.
// ---------------------------------------------------------------------

TEST(CudaStaticLexer, StripsCommentsAndPreprocessor)
{
    const auto tokens = lexCudaSource("#include <cuda_runtime.h>\n"
                                      "int a = 1; // trailing note\n"
                                      "/* block\n comment */ b += 2;\n");
    std::vector<std::string> texts;
    for (const CudaToken &t : tokens) {
        if (t.kind != CudaTokenKind::End)
            texts.push_back(std::string(t.text));
    }
    const std::vector<std::string> expected = {"int", "a", "=", "1", ";",
                                               "b", "+=", "2", ";"};
    EXPECT_EQ(texts, expected);
}

TEST(CudaStaticLexer, PunctuationLexesLongestMatch)
{
    const auto tokens = lexCudaSource("a += b->c <<< d");
    std::vector<std::string> puncts;
    for (const CudaToken &t : tokens) {
        if (t.kind == CudaTokenKind::Punct)
            puncts.push_back(std::string(t.text));
    }
    // "+=" and "->" must not split into single characters.
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "+="),
              puncts.end());
    EXPECT_NE(std::find(puncts.begin(), puncts.end(), "->"),
              puncts.end());
    EXPECT_EQ(std::find(puncts.begin(), puncts.end(), "+"),
              puncts.end());
}

TEST(CudaStaticLexer, TracksLinesAndIntegerValues)
{
    const auto tokens = lexCudaSource("x\n  1024\n");
    ASSERT_GE(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_TRUE(tokens[1].is_integer);
    EXPECT_EQ(tokens[1].value, 1024);
}

TEST(CudaStaticLexer, IntegerLiteralsFollowStollBaseZero)
{
    struct Case
    {
        const char *text;
        bool is_integer;
        std::int64_t value;
    };
    // Base prefixes and integer suffixes keep a literal integral; a
    // fraction, exponent or float suffix does not, nor does overflow.
    const std::vector<Case> cases = {
        {"0x1F", true, 31},  {"017", true, 15},   {"128u", true, 128},
        {"1.0f", false, 0},  {"1e-5f", false, 0}, {".5", false, 0},
        {"99999999999999999999", false, 0},
    };
    for (const Case &c : cases) {
        const auto tokens = lexCudaSource(c.text);
        ASSERT_EQ(tokens.size(), 2u) << c.text;
        EXPECT_EQ(tokens[0].kind, CudaTokenKind::Number) << c.text;
        EXPECT_EQ(tokens[0].text, c.text);
        EXPECT_EQ(tokens[0].is_integer, c.is_integer) << c.text;
        if (c.is_integer) {
            EXPECT_EQ(tokens[0].value, c.value) << c.text;
        }
    }
}

TEST(CudaStaticLexer, StringWithEscapedQuoteIsOneToken)
{
    const auto tokens = lexCudaSource("extern \"a\\\"b\" x");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].text, "extern");
    EXPECT_EQ(tokens[1].kind, CudaTokenKind::String);
    EXPECT_EQ(tokens[2].kind, CudaTokenKind::Identifier);
    EXPECT_EQ(tokens[2].text, "x");
    EXPECT_EQ(tokens[3].kind, CudaTokenKind::End);
}

TEST(CudaStaticLexer, BlockCommentsAdvanceLinesAndMayRunToEnd)
{
    const auto tokens = lexCudaSource("a /* one\ntwo\nthree */ b\nc");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[1].text, "b");
    EXPECT_EQ(tokens[1].line, 3);
    EXPECT_EQ(tokens[2].text, "c");
    EXPECT_EQ(tokens[2].line, 4);

    // An unterminated comment swallows the rest of the input.
    const auto open = lexCudaSource("a /* never\nclosed b");
    ASSERT_EQ(open.size(), 2u);
    EXPECT_EQ(open[0].text, "a");
    EXPECT_EQ(open[1].kind, CudaTokenKind::End);
    EXPECT_EQ(open[1].line, 2);
}

TEST(CudaStaticLexer, EveryMultiCharacterOperatorLexesWhole)
{
    for (const char *op :
         {"<<=", ">>=", "...", "->", "++", "--", "<<", ">>", "<=", ">=",
          "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
          "^=", "::"}) {
        const std::string source = std::string("a") + op + "b";
        const auto tokens = lexCudaSource(source); // views source
        ASSERT_EQ(tokens.size(), 4u) << op;
        EXPECT_EQ(tokens[1].kind, CudaTokenKind::Punct) << op;
        EXPECT_EQ(tokens[1].text, op);
    }
    const auto tokens = lexCudaSource("a<<=b<<c<d>>=e>>f>g");
    std::vector<std::string> puncts;
    for (const CudaToken &t : tokens) {
        if (t.kind == CudaTokenKind::Punct)
            puncts.push_back(std::string(t.text));
    }
    const std::vector<std::string> expected = {"<<=", "<<", "<",
                                               ">>=", ">>", ">"};
    EXPECT_EQ(puncts, expected);
}

TEST(CudaStaticLexer, StrayByteIsSingleCharacterPunct)
{
    const auto tokens = lexCudaSource("a @ b");
    ASSERT_EQ(tokens.size(), 4u);
    EXPECT_EQ(tokens[1].kind, CudaTokenKind::Punct);
    EXPECT_EQ(tokens[1].text, "@");
}

// ---------------------------------------------------------------------
// Structural survey.
// ---------------------------------------------------------------------

TEST(CudaStaticSurvey, ReportsKernelStructure)
{
    const EmittedSourceSurvey survey = surveyEmittedCuda(
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(128, 2)\n"
        "k(float *a)\n"
        "{\n"
        "    __shared__ float smem[64];\n"
        "    for (long task = blockIdx.x; task < 8; task += gridDim.x) {\n"
        "        smem[threadIdx.x % 64] = 0.0f;\n"
        "        __syncthreads();\n"
        "        a[task] = smem[0];\n"
        "    }\n"
        "}\n");
    EXPECT_TRUE(survey.parsed);
    EXPECT_EQ(survey.functions, 1);
    EXPECT_EQ(survey.sync_statements, 1);
    EXPECT_EQ(survey.grid_barrier_calls, 0);
    EXPECT_EQ(survey.task_loops, 1);
    EXPECT_EQ(survey.arena_words, 64);
    EXPECT_EQ(survey.launch_bounds_block, 128);
}

TEST(CudaStaticSurvey, UnparsableTextSurveysAsUnparsed)
{
    const EmittedSourceSurvey survey =
        surveyEmittedCuda("this is not CUDA source at all }{");
    EXPECT_FALSE(survey.parsed);
}

// ---------------------------------------------------------------------
// Seeded emitter mutations. Each corruption of a real workload's
// emitted text must be caught by exactly one distinct AS9xx code.
// ---------------------------------------------------------------------

/**
 * Compile @p g, check every emitted kernel is clean as rendered, apply
 * @p mutate to each kernel source it matches, and return the distinct
 * AS9xx codes the analyzer reports for the mutated text.
 */
std::set<std::string>
mutationFindings(Graph g, const std::function<bool(std::string *)> &mutate)
{
    const Cluster cluster = soleCluster(g);
    StitchDiagnostics diag;
    const CompiledCluster compiled =
        compileStitchOp(g, cluster, kV100, AStitchOptions{}, &diag);
    std::set<std::string> codes;
    bool mutated_any = false;
    for (const KernelPlan &plan : compiled.kernels) {
        DiagnosticEngine clean;
        EXPECT_TRUE(analyzeEmittedCuda(g, plan, kV100, clean))
            << clean.renderText();
        EXPECT_TRUE(as9Codes(clean).empty()) << clean.renderText();

        std::string source = plan.cuda_source;
        if (!mutate(&source))
            continue;
        mutated_any = true;
        DiagnosticEngine engine;
        analyzeEmittedCudaSource(g, source, plan, kV100, engine);
        const std::set<std::string> found = as9Codes(engine);
        codes.insert(found.begin(), found.end());
    }
    EXPECT_TRUE(mutated_any) << "mutation matched no kernel source";
    return codes;
}

bool
eraseFirst(std::string *source, const std::string &needle)
{
    const std::size_t pos = source->find(needle);
    if (pos == std::string::npos)
        return false;
    source->erase(pos, needle.size());
    return true;
}

bool
replaceAll(std::string *source, const std::string &from,
           const std::string &to)
{
    bool any = false;
    std::size_t pos = 0;
    while ((pos = source->find(from, pos)) != std::string::npos) {
        source->replace(pos, from.size(), to);
        pos += to.size();
        any = true;
    }
    return any;
}

/** Find the first integer after @p anchor and add @p delta to it. */
bool
bumpIntegerAfter(std::string *source, const std::string &anchor,
                 std::int64_t delta)
{
    const std::size_t pos = source->find(anchor);
    if (pos == std::string::npos)
        return false;
    std::size_t start = pos + anchor.size();
    std::size_t end = start;
    while (end < source->size() &&
           std::isdigit(static_cast<unsigned char>((*source)[end]))) {
        ++end;
    }
    if (end == start)
        return false;
    const std::int64_t value =
        std::stoll(source->substr(start, end - start));
    source->replace(start, end - start, std::to_string(value + delta));
    return true;
}

TEST(CudaStaticMutation, DroppedBlockBarrierFiresAS911)
{
    // Drop the arena-reuse separator (not a boundary sync covering a
    // regional store, so AS922 stays silent): the text then implements
    // one fewer block barrier than the plan schedules.
    const auto codes = mutationFindings(
        testing::buildSoftmax(4096, 256), [](std::string *source) {
            return eraseFirst(source,
                              "__syncthreads(); // arena reuse "
                              "separator");
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS911"});
}

TEST(CudaStaticMutation, ShrunkSharedArenaFiresAS912)
{
    // Declare one word less than the planner sized: regional slots can
    // overflow the arena.
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(source, "__shared__ float smem[",
                                    -1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS912"});
}

TEST(CudaStaticMutation, StrippedVolatileFiresAS921)
{
    // The <64,30000> softmax stitches on the global scheme; stripping
    // volatile from the grid-barrier flags lets the spin loop hoist.
    const auto codes = mutationFindings(
        testing::buildSoftmax(64, 30000), [](std::string *source) {
            return replaceAll(source, "volatile int *", "int *");
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS921"});
}

TEST(CudaStaticMutation, OffByOneTaskLoopBoundFiresAS923)
{
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(
                source, "for (long task = blockIdx.x; task < ", 1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS923"});
}

TEST(CudaStaticMutation, WrongLaunchBoundsFiresAS913)
{
    const auto codes = mutationFindings(
        std::move(testing::buildFig5(2, 128).graph),
        [](std::string *source) {
            return bumpIntegerAfter(source, "__launch_bounds__(", -1);
        });
    EXPECT_EQ(codes, std::set<std::string>{"AS913"});
}

// ---------------------------------------------------------------------
// Synthetic sources. Each kernel agrees with its plan in every respect
// but the one under test, so the full analyzer reports exactly the
// targeted code.
// ---------------------------------------------------------------------

/**
 * A plan for a synthetic kernel: the default block size (256, which the
 * kernel's __launch_bounds__ matches), @p syncs block barriers,
 * @p grid_barriers device barriers and an arena of @p arena_words
 * words.
 */
KernelPlan
syntheticPlan(const std::string &name, int syncs, int grid_barriers = 0,
              std::int64_t arena_words = 0)
{
    KernelPlan plan;
    plan.name = name;
    plan.barriers.resize(syncs);
    BarrierPoint device;
    device.scope = BarrierScope::Device;
    plan.barriers.insert(plan.barriers.end(), grid_barriers, device);
    plan.smem_per_block = arena_words * 4;
    return plan;
}

TEST(CudaStaticSynthetic, UnparsableSourceFiresAS900)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("broken", 0);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g, "no kernel here, just text }{", plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS900"});
}

TEST(CudaStaticSynthetic, BarrierUnderThreadDivergenceFiresAS901)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("divergent", 1);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(float *a)\n"
        "{\n"
        "    if (threadIdx.x < 5) {\n"
        "        __syncthreads();\n"
        "    }\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS901"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, GridBarrierUnderBlockDivergenceFiresAS901)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("divergent_grid", 0, 1);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "__device__ void grid_barrier(volatile int *a,"
        " volatile int *d) { __syncthreads(); }\n"
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(int *barrier_state)\n"
        "{\n"
        "    if (blockIdx.x < 3) {\n"
        "        grid_barrier(barrier_state + 0, barrier_state + 1);\n"
        "    }\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS901"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, DivergenceCarriedAroundForLoopFiresAS901)
{
    // x only turns thread-varying at the end of the first iteration;
    // the barrier's guard reads it on the second.
    Graph g;
    const KernelPlan plan = syntheticPlan("loop_carried", 1);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(const float *a)\n"
        "{\n"
        "    float x = 0.0f;\n"
        "    for (int i = 0; i < 4; ++i) {\n"
        "        if (x > 0.0f) {\n"
        "            __syncthreads();\n"
        "        }\n"
        "        x = a[threadIdx.x];\n"
        "    }\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS901"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, DivergenceCarriedAroundWhileLoopFiresAS901)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("while_carried", 1);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(const float *a)\n"
        "{\n"
        "    float x = 0.0f;\n"
        "    int i = 0;\n"
        "    while (i < 4) {\n"
        "        if (x > 0.0f) {\n"
        "            __syncthreads();\n"
        "        }\n"
        "        x = a[threadIdx.x];\n"
        "        i += 1;\n"
        "    }\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS901"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, BarrierInDeadCodeFiresAS902)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("dead", 1);
    DiagnosticEngine engine;
    // AS902 is Warning severity: the analysis still passes.
    EXPECT_TRUE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(float *a)\n"
        "{\n"
        "    if (0) {\n"
        "        __syncthreads();\n"
        "    }\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS902"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, UndeclaredBufferAccessFiresAS914)
{
    Graph g;
    KernelPlan plan = syntheticPlan("ghost", 0);
    // A non-empty summary arms the access cross-check; the declared
    // buffer is not nameable from an empty plan, so only the text's
    // unknown buffers can be flagged.
    OpAccess access;
    access.buffer = "input:%0";
    access.kind = AccessKind::Read;
    plan.accesses.push_back(access);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(float *out)\n"
        "{\n"
        "    const long elem = threadIdx.x;\n"
        "    out[elem] = v_ghost[elem];\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS914"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, NonVolatileBarrierFlagsFireAS921)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("hoistable", 0, 1);
    DiagnosticEngine engine;
    EXPECT_FALSE(analyzeEmittedCudaSource(
        g,
        "__device__ void grid_barrier(int *arrive, int *depart)\n"
        "{\n"
        "    __syncthreads();\n"
        "}\n"
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(int *barrier_state)\n"
        "{\n"
        "    grid_barrier(barrier_state + 0, barrier_state + 1);\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS921"})
        << engine.renderText();
}

TEST(CudaStaticSynthetic, UnbarrieredSmemWriteFiresAS922)
{
    Graph g;
    const KernelPlan plan = syntheticPlan("racy", 0, 0, 32);
    DiagnosticEngine engine;
    // AS922 is Warning severity: the analysis still passes.
    EXPECT_TRUE(analyzeEmittedCudaSource(
        g,
        "extern \"C\" __global__ void\n"
        "__launch_bounds__(256)\n"
        "k(float *out)\n"
        "{\n"
        "    __shared__ float smem[32];\n"
        "    smem[threadIdx.x % 32] = 1.0f;\n"
        "    out[threadIdx.x] = smem[0];\n"
        "}\n",
        plan, kV100, engine));
    EXPECT_EQ(as9Codes(engine), std::set<std::string>{"AS922"})
        << engine.renderText();
}

/**
 * AS9xx codes for @p body inside a kernel that declares a 32-word arena,
 * checked against a plan with that arena, @p syncs block barriers and
 * @p grid_barriers device barriers. @p prelude precedes the kernel.
 */
std::set<std::string>
smemPathCodes(const std::string &body, int syncs, int grid_barriers = 0,
              const std::string &prelude = "")
{
    Graph g;
    const KernelPlan plan = syntheticPlan("path", syncs, grid_barriers, 32);
    DiagnosticEngine engine;
    analyzeEmittedCudaSource(g,
                             prelude +
                                 "extern \"C\" __global__ void\n"
                                 "__launch_bounds__(256)\n"
                                 "k(float *out, int *barrier_state)\n"
                                 "{\n"
                                 "    __shared__ float smem[32];\n" +
                                 body + "}\n",
                             plan, kV100, engine);
    return as9Codes(engine);
}

TEST(CudaStaticSynthetic, BarrierBeforeStoreInLoopBodyFiresAS922)
{
    // The barrier orders the next iteration's store, but the last store
    // leaves the loop and reaches kernel exit unordered.
    EXPECT_EQ(smemPathCodes("    for (int i = 0; i < 4; ++i) {\n"
                            "        __syncthreads();\n"
                            "        smem[threadIdx.x % 32] = 1.0f;\n"
                            "    }\n",
                            1),
              std::set<std::string>{"AS922"});
}

TEST(CudaStaticSynthetic, BarrierOnlyInThenBranchFiresAS922)
{
    // Blocks with blockIdx.x >= 2 skip the barrier (a block-uniform
    // branch, so AS901 stays silent) and exit unordered.
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    if (blockIdx.x < 2) {\n"
                            "        __syncthreads();\n"
                            "    }\n",
                            1),
              std::set<std::string>{"AS922"});
}

TEST(CudaStaticSynthetic, BarrierOnBothBranchesKeepsAS922Silent)
{
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    if (blockIdx.x < 2) {\n"
                            "        __syncthreads();\n"
                            "    } else {\n"
                            "        __syncthreads();\n"
                            "    }\n",
                            2),
              std::set<std::string>{});
}

TEST(CudaStaticSynthetic, DeadBarrierAfterStoreFiresAS922)
{
    // The path analysis does not prune dead code: the zero-trip loop
    // and the if (0) branch each keep a barrier-free path to exit. The
    // dead barriers themselves are AS902.
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    for (int i = 0; i < 0; ++i) {\n"
                            "        __syncthreads();\n"
                            "    }\n",
                            1),
              (std::set<std::string>{"AS902", "AS922"}));
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    if (0) {\n"
                            "        __syncthreads();\n"
                            "    }\n",
                            1),
              (std::set<std::string>{"AS902", "AS922"}));
}

TEST(CudaStaticSynthetic, BarrierHelpersAfterStoreKeepAS922Silent)
{
    // blockReduce contains __syncthreads, and grid_barrier is a device
    // barrier: either one orders the store before kernel exit.
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    out[0] = blockReduce(smem[0]);\n",
                            0),
              std::set<std::string>{});
    EXPECT_EQ(smemPathCodes("    smem[threadIdx.x % 32] = 1.0f;\n"
                            "    grid_barrier(barrier_state + 0,"
                            " barrier_state + 1);\n",
                            0, 1,
                            "__device__ void grid_barrier(volatile int *a,"
                            " volatile int *d) { __syncthreads(); }\n"),
              std::set<std::string>{});
}

TEST(CudaStaticSynthetic, StoreInDeviceHelperIsNotChecked)
{
    // AS922 walks the __global__ kernel only.
    EXPECT_EQ(smemPathCodes("    stage(smem);\n", 0, 0,
                            "__device__ void stage(float *smem)\n"
                            "{\n"
                            "    smem[threadIdx.x % 32] = 1.0f;\n"
                            "}\n"),
              std::set<std::string>{});
}

// ---------------------------------------------------------------------
// Integration: default-on sweep and the artifact warm-load gate.
// ---------------------------------------------------------------------

TEST(CudaStaticSweep, DefaultOnSessionsReportNoAS9xxAcrossDevices)
{
    const auto build = [](int which) -> Graph {
        switch (which) {
          case 0:
            return std::move(testing::buildFig7().graph);
          case 1:
            return std::move(testing::buildFig5(2, 128).graph);
          case 2:
            return testing::buildSoftmax(64, 512);
          default:
            return testing::buildSoftmax(64, 30000);
        }
    };
    for (const GpuSpec &spec :
         {GpuSpec::v100(), GpuSpec::t4(), GpuSpec::a100()}) {
        for (int which = 0; which < 4; ++which) {
            const Graph graph = build(which);
            SessionOptions options;
            options.spec = spec;
            Session session(graph, std::make_unique<AStitchBackend>(),
                            options);
            session.compile();
            EXPECT_TRUE(as9Codes(session.diagnostics()).empty())
                << "workload " << which << " on " << spec.name << ": "
                << session.diagnostics().renderText();
        }
    }
}

int
codeCount(const DiagnosticEngine &engine, const std::string &code)
{
    int n = 0;
    for (const Diagnostic &d : engine.diagnostics())
        n += d.code == code;
    return n;
}

TEST(CudaStaticArtifact, TamperedStoredKernelSourceIsRejected)
{
    const std::string dir =
        ::testing::TempDir() + "astitch_artifact_cuda_static";
    ArtifactCache(dir).clear();
    SessionOptions options;
    options.artifact_cache_dir = dir;
    const Graph graph = testing::buildFig7().graph;
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);

    const auto run = [&](bool *from_artifact, DiagnosticEngine *diags) {
        Session session(graph, std::make_unique<AStitchBackend>(),
                        options);
        session.compile();
        if (from_artifact)
            *from_artifact = session.passTimings().fromArtifact();
        if (diags) {
            diags->clear();
            diags->merge(session.diagnostics());
        }
        return session.run(feeds).outputs;
    };

    const auto reference = run(nullptr, nullptr);

    // Warm load of the untampered artifact passes the emitted gate.
    bool from_artifact = false;
    auto warm = run(&from_artifact, nullptr);
    EXPECT_TRUE(from_artifact);

    // Tamper the stored kernel text only: drop one block barrier from
    // the persisted cuda_source, leaving every other plan field (and
    // the envelope checksum, which we recompute) intact.
    std::string compile_key;
    for (const ArtifactFileInfo &info : ArtifactCache(dir).scan()) {
        if (info.quarantined)
            continue;
        const std::size_t cut = info.key.rfind("|serde-pass-v");
        compile_key = cut == std::string::npos ? info.key
                                               : info.key.substr(0, cut);
    }
    ASSERT_FALSE(compile_key.empty());
    const std::string path = ArtifactCache(dir).filePathFor(compile_key);
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);
    JitCacheEntry entry;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &entry, &error)) << error;

    bool tampered = false;
    for (CompiledCluster &compiled : entry.compiled) {
        for (KernelPlan &plan : compiled.kernels) {
            const std::size_t pos =
                plan.cuda_source.find("__syncthreads();");
            if (pos == std::string::npos)
                continue;
            plan.cuda_source.erase(pos, 16);
            tampered = true;
        }
    }
    ASSERT_TRUE(tampered) << "no stored kernel source to tamper";
    {
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(file.good());
        const std::string bytes =
            wrapArtifact(key, serializePlanPayload(entry));
        file.write(bytes.data(),
                   static_cast<std::streamsize>(bytes.size()));
    }

    // The warm-load gate re-runs the AS9xx pass over the stored text,
    // rejects the artifact (AS624) and recompiles cleanly.
    DiagnosticEngine diags;
    const auto outputs = run(&from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS624"), 1) << diags.renderText();
    ASSERT_EQ(outputs.size(), reference.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        EXPECT_TRUE(outputs[i].allClose(reference[i], 1e-6, 1e-7));
}

} // namespace
} // namespace astitch
