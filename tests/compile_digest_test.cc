/**
 * @file
 * Digest golden of the default compile path.
 *
 * Every Table-2 graph on V100/T4/A100, plus two 800-node Sec 6.4.1
 * random graphs, compiles through a default Session. Each case pins two
 * FNV-1a digests in tests/golden/compile_digests.txt:
 *
 *  - plan: the serialized clusters and compiled plans (access summaries,
 *    certificates and emitted CUDA text included);
 *  - diag: the session's diagnostics rendered as JSON.
 *
 * A refactor of the compile or analysis path that keeps behaviour keeps
 * both digests. Regenerate deliberately with
 * `ASTITCH_UPDATE_GOLDEN=1 ctest -R CompileDigest`.
 */
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/astitch_backend.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

const char *kGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/compile_digests.txt";

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
        workloads::RandomGraphConfig config;
        config.num_nodes = 800;
        config.seed = seed;
        text += digestLine("random800_s" + std::to_string(seed) + "@v100",
                           workloads::buildRandomGraph(config),
                           GpuSpec::v100());
    }

    if (std::getenv("ASTITCH_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGoldenPath, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << text;
        return;
    }
    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good()) << "missing golden file " << kGoldenPath
                           << " — regenerate with ASTITCH_UPDATE_GOLDEN=1";
    std::stringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(golden.str(), text)
        << "compiled plans or diagnostics drifted from " << kGoldenPath
        << " — if intentional, regenerate with ASTITCH_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace astitch
