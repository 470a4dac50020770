/**
 * @file
 * Digest golden of the default compile path.
 *
 * Every Table-2 graph on V100/T4/A100, two 800-node and two 5,000-node
 * Sec 6.4.1 random graphs compile through a default Session. Each case
 * pins two FNV-1a digests in tests/golden/compile_digests.txt:
 *
 *  - plan: the serialized clusters and compiled plans (access summaries,
 *    certificates and emitted CUDA text included);
 *  - diag: the session's diagnostics rendered as JSON.
 *
 * Clean plans never report the race and arena codes, so a second golden
 * (tests/golden/dirty_plan_findings.txt) pins the content and order of
 * those findings on deliberately broken plans: once with every barrier
 * dropped and the shared arena squeezed to half its offsets, once
 * ("/thinned") with every other barrier dropped.
 *
 * A refactor of the compile or analysis path that keeps behaviour keeps
 * every digest. Regenerate deliberately with
 * `ASTITCH_UPDATE_GOLDEN=1 ctest -R CompileDigest`.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "analysis/kernel_verifier.h"
#include "analysis/sanitizer.h"
#include "core/astitch_backend.h"
#include "core/stitch_codegen.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

const char *kGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/compile_digests.txt";
const char *kDirtyGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/dirty_plan_findings.txt";

std::string
hex64(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

/** "<name> plan=<digest> diag=<digest>" for one default compile. */
std::string
digestLine(const std::string &name, const Graph &graph, const GpuSpec &spec)
{
    SessionOptions options;
    options.spec = spec;
    Session session(graph, std::make_unique<AStitchBackend>(), options);
    JitCacheEntry entry;
    entry.clusters = session.clusters();
    entry.compiled = session.compiled();
    return name + " plan=" + hex64(checksum64(serializePlanPayload(entry))) +
           " diag=" + hex64(checksum64(session.diagnostics().renderJson())) +
           "\n";
}

/** Writes @p text to @p path under ASTITCH_UPDATE_GOLDEN, else compares. */
void
matchGolden(const char *path, const std::string &text)
{
    if (std::getenv("ASTITCH_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << text;
        return;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " — regenerate with ASTITCH_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), text)
        << "output drifted from " << path
        << " — if intentional, regenerate with ASTITCH_UPDATE_GOLDEN=1";
}

Graph
randomGraph(int num_nodes, std::uint64_t seed)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = num_nodes;
    config.seed = seed;
    return workloads::buildRandomGraph(config);
}

/** Ways to break a compiled plan so the race and arena codes fire. */
enum class Breakage {
    /** Drop every barrier; halve every shared-slot offset (kept 4-byte
     * aligned) and every shared-arena access offset with it. */
    SqueezedArena,
    /** Drop every other barrier, keeping the arena: findings then
     * depend on which barrier window each access falls in. */
    ThinnedBarriers,
};

void
breakPlan(KernelPlan &plan, Breakage breakage)
{
    if (breakage == Breakage::ThinnedBarriers) {
        std::vector<BarrierPoint> kept;
        for (std::size_t b = 0; b < plan.barriers.size(); b += 2)
            kept.push_back(plan.barriers[b]);
        plan.barriers = std::move(kept);
        return;
    }
    plan.barriers.clear();
    for (SharedSlot &slot : plan.shared_slots)
        slot.offset_bytes = slot.offset_bytes / 2 / 4 * 4;
    for (OpAccess &access : plan.accesses) {
        if (access.space == AccessSpace::Shared)
            access.index.offset /= 2;
    }
}

/**
 * "<name> findings=<n> json=<digest>" for the sanitizer and verifier
 * run over every stitched cluster of @p graph after breaking it.
 */
std::string
brokenFindingsLine(const std::string &name, const Graph &graph,
                   const GpuSpec &spec, Breakage breakage)
{
    DiagnosticEngine engine;
    for (const Cluster &cluster :
         remoteStitch(graph, findMemoryIntensiveClusters(graph))) {
        CompiledCluster compiled =
            compileStitchOp(graph, cluster, spec, AStitchOptions{});
        for (KernelPlan &plan : compiled.kernels)
            breakPlan(plan, breakage);
        sanitizeCompiledCluster(graph, compiled, spec, engine);
        verifyCompiledCluster(graph, compiled, spec, engine);
    }
    return name + " findings=" + std::to_string(engine.size()) +
           " json=" + hex64(checksum64(engine.renderJson())) + "\n";
}

TEST(CompileDigest, PlansAndDiagnosticsMatchGolden)
{
    const std::vector<std::pair<std::string, GpuSpec>> devices = {
        {"v100", GpuSpec::v100()},
        {"t4", GpuSpec::t4()},
        {"a100", GpuSpec::a100()},
    };
    std::string text;
    const auto addWorkload = [&](const workloads::WorkloadSpec &spec,
                                 const std::string &suffix) {
        const Graph graph = spec.build();
        for (const auto &[device, gpu] : devices)
            text += digestLine(spec.name + suffix + "@" + device, graph, gpu);
    };
    for (const workloads::WorkloadSpec &spec :
         workloads::inferenceWorkloads())
        addWorkload(spec, "");
    for (const workloads::WorkloadSpec &spec :
         workloads::trainingWorkloads())
        addWorkload(spec, "-train");
    for (const std::uint64_t seed : {5, 6}) {
        text += digestLine("random800_s" + std::to_string(seed) + "@v100",
                           randomGraph(800, seed), GpuSpec::v100());
    }
    // The 5,000-node draws the benchmark traces: their largest clusters
    // hold 3,769 and 4,306 nodes, the regime of the indexed passes.
    for (const std::uint64_t seed : {6401, 6402}) {
        text += digestLine("random5k_s" + std::to_string(seed) + "@v100",
                           randomGraph(5000, seed), GpuSpec::v100());
    }
    matchGolden(kGoldenPath, text);
}

TEST(CompileDigest, DirtyPlanFindingsMatchGolden)
{
    std::vector<std::pair<std::string, Graph>> inputs;
    for (const std::uint64_t seed : {5, 6}) {
        inputs.emplace_back("random800_s" + std::to_string(seed) + "@v100",
                            randomGraph(800, seed));
    }
    for (const workloads::WorkloadSpec &spec :
         workloads::inferenceWorkloads())
        inputs.emplace_back(spec.name + "@v100", spec.build());

    std::string text;
    for (const auto &[name, graph] : inputs) {
        text += brokenFindingsLine(name, graph, GpuSpec::v100(),
                                   Breakage::SqueezedArena);
    }
    for (const auto &[name, graph] : inputs) {
        text += brokenFindingsLine(name + "/thinned", graph,
                                   GpuSpec::v100(),
                                   Breakage::ThinnedBarriers);
    }
    matchGolden(kDirtyGoldenPath, text);
}

} // namespace
} // namespace astitch
