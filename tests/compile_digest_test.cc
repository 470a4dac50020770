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
 * Clean compiles report no emitted-CUDA (AS9xx) findings either, so a
 * third golden (tests/golden/emitted_findings.txt) pins what that
 * analyzer says about deliberately broken kernel *text*: each of ten
 * textual mutations, applied to every kernel it matches.
 *
 * A default compile declares no shape ranges, so a fourth golden
 * (tests/golden/symbolic_certificates.txt) pins the shape-parametric
 * verifier (AS8xx): every dynamic template on every device, served at
 * two sizes that land in adjacent power-of-two buckets.
 *
 * A refactor of the compile or analysis path that keeps behaviour keeps
 * every digest. Regenerate deliberately with
 * `ASTITCH_UPDATE_GOLDEN=1 ctest -R CompileDigest`.
 */
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>

#include "analysis/cuda_static.h"
#include "analysis/kernel_verifier.h"
#include "analysis/sanitizer.h"
#include "core/astitch_backend.h"
#include "core/stitch_codegen.h"
#include "runtime/dynamic_session.h"
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
const char *kEmittedGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/emitted_findings.txt";
const char *kSymbolicGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/symbolic_certificates.txt";

const std::vector<std::pair<std::string, GpuSpec>> &
devices()
{
    static const std::vector<std::pair<std::string, GpuSpec>> all = {
        {"v100", GpuSpec::v100()},
        {"t4", GpuSpec::t4()},
        {"a100", GpuSpec::a100()},
    };
    return all;
}

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

/**
 * Rewrites every @p stride-th occurrence of @p needle in @p text, the
 * first included. @p edit gets the occurrence's position and returns
 * where the search resumes. Returns whether anything was rewritten.
 */
bool
editOccurrences(std::string *text, const std::string &needle, int stride,
                const std::function<std::size_t(std::string &,
                                                std::size_t)> &edit)
{
    bool edited = false;
    int seen = 0;
    std::size_t pos = 0;
    while ((pos = text->find(needle, pos)) != std::string::npos) {
        if (seen++ % stride == 0) {
            pos = edit(*text, pos);
            edited = true;
        } else {
            pos += needle.size();
        }
    }
    return edited;
}

/** Replaces every @p stride-th @p from with @p to. */
bool
replaceEvery(std::string *text, const std::string &from,
             const std::string &to, int stride)
{
    return editOccurrences(text, from, stride,
                           [&](std::string &t, std::size_t pos) {
                               t.replace(pos, from.size(), to);
                               return pos + to.size();
                           });
}

/** Adds one to the integer right after every @p stride-th @p anchor. */
bool
bumpIntegerAfter(std::string *text, const std::string &anchor, int stride)
{
    return editOccurrences(
        text, anchor, stride, [&](std::string &t, std::size_t pos) {
            const std::size_t start = pos + anchor.size();
            std::size_t end = start;
            while (end < t.size() &&
                   std::isdigit(static_cast<unsigned char>(t[end])))
                ++end;
            if (end == start)
                return start;
            const std::string bumped =
                std::to_string(std::stoll(t.substr(start, end - start)) + 1);
            t.replace(start, end - start, bumped);
            return start + bumped.size();
        });
}

/** One way to corrupt emitted kernel text; false when it matched nothing. */
struct TextMutation
{
    const char *name;
    std::function<bool(std::string *)> apply;
};

const std::vector<TextMutation> &
textMutations()
{
    static const std::vector<TextMutation> mutations = {
        {"drop_sync",
         [](std::string *t) {
             return replaceEvery(t, "__syncthreads();", "", 2);
         }},
        {"guard_sync",
         [](std::string *t) {
             return replaceEvery(t, "__syncthreads();",
                                 "if (threadIdx.x < 7) { __syncthreads(); }",
                                 2);
         }},
        {"guard_grid_barrier",
         [](std::string *t) {
             return replaceEvery(t, "grid_barrier(barrier_state",
                                 "if (blockIdx.x < 3) "
                                 "grid_barrier(barrier_state",
                                 1);
         }},
        {"strip_volatile",
         [](std::string *t) { return replaceEvery(t, "volatile ", "", 1); }},
        {"bump_task_bound",
         [](std::string *t) {
             return bumpIntegerAfter(
                 t, "for (long task = blockIdx.x; task < ", 1);
         }},
        {"bump_launch_bounds",
         [](std::string *t) {
             return bumpIntegerAfter(t, "__launch_bounds__(", 1);
         }},
        {"shift_smem_alias",
         [](std::string *t) {
             return bumpIntegerAfter(t, "_smem = smem + ", 2);
         }},
        {"rename_out_store",
         [](std::string *t) { return replaceEvery(t, "_out[", "_res[", 2); }},
        {"dead_reuse_sync",
         [](std::string *t) {
             return replaceEvery(t, "__syncthreads(); // arena reuse",
                                 "if (0) { __syncthreads(); } // arena reuse",
                                 1);
         }},
        {"truncate",
         [](std::string *t) {
             t->resize(t->size() * 2 / 3);
             return true;
         }},
    };
    return mutations;
}

TEST(CompileDigest, PlansAndDiagnosticsMatchGolden)
{
    std::string text;
    const auto addWorkload = [&](const workloads::WorkloadSpec &spec,
                                 const std::string &suffix) {
        const Graph graph = spec.build();
        for (const auto &[device, gpu] : devices())
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

TEST(CompileDigest, EmittedTextFindingsMatchGolden)
{
    std::vector<std::pair<std::string, Graph>> inputs;
    for (const workloads::WorkloadSpec &spec :
         workloads::inferenceWorkloads())
        inputs.emplace_back(spec.name, spec.build());
    for (const workloads::WorkloadSpec &spec :
         workloads::trainingWorkloads())
        inputs.emplace_back(spec.name + "-train", spec.build());
    for (const std::uint64_t seed : {5, 6}) {
        inputs.emplace_back("random800_s" + std::to_string(seed),
                            randomGraph(800, seed));
    }

    const GpuSpec spec = GpuSpec::v100();
    std::string text;
    std::set<std::string> fired;
    for (const auto &[name, graph] : inputs) {
        std::vector<KernelPlan> plans;
        for (const Cluster &cluster :
             remoteStitch(graph, findMemoryIntensiveClusters(graph))) {
            CompiledCluster compiled =
                compileStitchOp(graph, cluster, spec, AStitchOptions{});
            for (KernelPlan &plan : compiled.kernels) {
                if (!plan.cuda_source.empty())
                    plans.push_back(std::move(plan));
            }
        }
        for (const TextMutation &mutation : textMutations()) {
            DiagnosticEngine engine;
            int applied = 0;
            for (const KernelPlan &plan : plans) {
                std::string source = plan.cuda_source;
                if (!mutation.apply(&source))
                    continue;
                ++applied;
                analyzeEmittedCudaSource(graph, source, plan, spec, engine);
            }
            for (const Diagnostic &d : engine.diagnostics())
                fired.insert(d.code);
            text += name + "@v100/" + mutation.name +
                    " applied=" + std::to_string(applied) +
                    " findings=" + std::to_string(engine.size()) +
                    " json=" + hex64(checksum64(engine.renderJson())) + "\n";
        }
    }
    for (const char *code : {"AS900", "AS901", "AS902", "AS911", "AS912",
                             "AS913", "AS914", "AS921", "AS922", "AS923"})
        EXPECT_TRUE(fired.count(code)) << code << " never fires";
    matchGolden(kEmittedGoldenPath, text);
}

/**
 * One line per compiled bucket: "<template>@<device>/<key>", then
 * digests of every certificate's toString() (verdict, obligation counts,
 * assumptions) and of the AS8xx findings JSON, then the session's
 * symbolicStats() counters. Each line covers every bucket compiled so
 * far, so the second line of a session also pins its first bucket.
 */
TEST(CompileDigest, SymbolicCertificatesMatchGolden)
{
    std::string text;
    for (const workloads::DynamicWorkloadSpec &wl :
         workloads::dynamicInferenceWorkloads()) {
        for (const auto &[device, gpu] : devices()) {
            DynamicSessionOptions options;
            options.session.spec = gpu;
            options.bucket_to_power_of_two = true;
            options.dim_names = {wl.dim_name};
            options.dim_divisors = {wl.divisor};
            DynamicSession dynamic(
                wl.build, [] { return std::make_unique<AStitchBackend>(); },
                options);
            // Half the default size rounds to the next lower power of two.
            for (const std::int64_t served :
                 {wl.default_dim, wl.default_dim / 2}) {
                dynamic.profile({served});
                std::string certs;
                for (const ShapeCertificate &cert : dynamic.certificates())
                    certs += cert.toString() + "\n";
                const DiagnosticEngine as8 =
                    dynamic.diagnostics().withFamily("AS8");
                const DynamicSession::SymbolicStats stats =
                    dynamic.symbolicStats();
                text += wl.name + "@" + device + "/" +
                        std::to_string(dynamic.bucketFor({served}).at(0)) +
                        " certs=" + hex64(checksum64(certs)) +
                        " as8=" + std::to_string(as8.size()) + ":" +
                        hex64(checksum64(as8.renderJson())) + " stats=" +
                        std::to_string(stats.certified_hits) + "/" +
                        std::to_string(stats.concrete_reverifications) +
                        "/" + std::to_string(stats.buckets_proven) + "/" +
                        std::to_string(stats.buckets_fallback) + "/" +
                        std::to_string(stats.buckets_unsymbolized) + "\n";
            }
        }
    }
    matchGolden(kSymbolicGoldenPath, text);
}

} // namespace
} // namespace astitch
