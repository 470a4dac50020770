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
 * The ten text mutations aim at what each check reads, and only truncation
 * reaches the parser's errors, so a fifth golden
 * (tests/golden/emitted_edit_findings.txt) pins the findings of a
 * seeded sweep of one-token edits (delete, duplicate, swap, rename,
 * bump an integer, drop a delimiter) at token boundaries.
 *
 * A refactor of the compile or analysis path that keeps behaviour keeps
 * every digest. Regenerate deliberately with
 * `ASTITCH_UPDATE_GOLDEN=1 ctest -R CompileDigest`.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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
const char *kEditGoldenPath =
    ASTITCH_SOURCE_DIR "/tests/golden/emitted_edit_findings.txt";

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

/** The graphs whose kernel text the emitted-text goldens break. */
std::vector<std::pair<std::string, Graph>>
emittedTextInputs()
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
    return inputs;
}

/** Every stitched kernel of @p graph that carries CUDA text. */
std::vector<KernelPlan>
renderedPlans(const Graph &graph, const GpuSpec &spec)
{
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
    return plans;
}

TEST(CompileDigest, EmittedTextFindingsMatchGolden)
{
    const GpuSpec spec = GpuSpec::v100();
    std::string text;
    std::set<std::string> fired;
    for (const auto &[name, graph] : emittedTextInputs()) {
        const std::vector<KernelPlan> plans = renderedPlans(graph, spec);
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

/** One token of kernel text, as the edit golden's own scanner sees it. */
struct TextToken
{
    enum class Kind { Word, Number, Punct };

    std::size_t begin = 0;
    std::size_t end = 0;
    Kind kind = Kind::Punct;
};

/**
 * Token boundaries of @p text, found without the analyzer's lexer:
 * words, numbers (a sign only after the exponent of a decimal) and
 * punctuators, multi-character operators whole. Whitespace, comments,
 * preprocessor lines and string literals yield no token.
 */
std::vector<TextToken>
scanTokens(const std::string &text)
{
    static const char *const kOperators[] = {
        "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
        "&&",  "||",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "::"};
    const std::size_t n = text.size();
    const auto wordChar = [&](std::size_t i) {
        return i < n && (std::isalnum(static_cast<unsigned char>(text[i])) ||
                         text[i] == '_');
    };
    std::vector<TextToken> tokens;
    std::size_t i = 0;
    while (i < n) {
        const char c = text[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (c == '#' || text.compare(i, 2, "//") == 0) {
            i = std::min(text.find('\n', i), n);
        } else if (text.compare(i, 2, "/*") == 0) {
            const std::size_t close = text.find("*/", i + 2);
            i = close == std::string::npos ? n : close + 2;
        } else if (c == '"') {
            for (++i; i < n && text[i] != '"'; ++i) {
                if (text[i] == '\\')
                    ++i;
            }
            ++i;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            const std::size_t begin = i;
            const bool hex = text.compare(i, 2, "0x") == 0 ||
                             text.compare(i, 2, "0X") == 0;
            ++i;
            while (wordChar(i) || (i < n && text[i] == '.') ||
                   (!hex && i < n && (text[i] == '+' || text[i] == '-') &&
                    (text[i - 1] == 'e' || text[i - 1] == 'E')))
                ++i;
            tokens.push_back({begin, i, TextToken::Kind::Number});
        } else if (wordChar(i)) {
            const std::size_t begin = i;
            while (wordChar(i))
                ++i;
            tokens.push_back({begin, i, TextToken::Kind::Word});
        } else {
            std::size_t length = 1;
            for (const char *op : kOperators) {
                if (text.compare(i, std::strlen(op), op) == 0) {
                    length = std::strlen(op);
                    break;
                }
            }
            tokens.push_back({i, i + length, TextToken::Kind::Punct});
            i += length;
        }
    }
    return tokens;
}

/** splitmix64: the edit golden's own deterministic stream. */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** One-token edits, each applied at a token boundary. */
enum class TokenEdit {
    Delete,      ///< the token becomes a space
    Duplicate,   ///< the token appears twice
    Swap,        ///< the token trades places with the next one
    Rename,      ///< a word becomes another word of the same kernel
    BumpInteger, ///< a decimal integer grows by one
    DropDelimiter, ///< one of { } ( ) ; becomes a space
};
constexpr int kTokenEdits = 6;

const char *
tokenEditName(TokenEdit edit)
{
    switch (edit) {
      case TokenEdit::Delete:
        return "delete";
      case TokenEdit::Duplicate:
        return "duplicate";
      case TokenEdit::Swap:
        return "swap";
      case TokenEdit::Rename:
        return "rename";
      case TokenEdit::BumpInteger:
        return "bump_integer";
      case TokenEdit::DropDelimiter:
        return "drop_delimiter";
    }
    return "?";
}

/**
 * Apply @p edit once to @p text at a token picked from @p state; false
 * when the text has no token the edit can take.
 */
bool
applyTokenEdit(std::string *text, TokenEdit edit, std::uint64_t &state)
{
    const std::vector<TextToken> tokens = scanTokens(*text);
    const auto spelling = [&](const TextToken &t) {
        return text->substr(t.begin, t.end - t.begin);
    };
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const TextToken &t = tokens[i];
        bool fits = true;
        if (edit == TokenEdit::Swap) {
            fits = i + 1 < tokens.size();
        } else if (edit == TokenEdit::Rename) {
            fits = t.kind == TextToken::Kind::Word;
        } else if (edit == TokenEdit::BumpInteger) {
            const std::string s = spelling(t);
            fits = t.kind == TextToken::Kind::Number && s.size() <= 18 &&
                   s.find_first_not_of("0123456789") == std::string::npos;
        } else if (edit == TokenEdit::DropDelimiter) {
            const std::string s = spelling(t);
            fits = s == "{" || s == "}" || s == "(" || s == ")" || s == ";";
        }
        if (fits)
            candidates.push_back(i);
    }
    if (candidates.empty())
        return false;
    const std::size_t pick =
        candidates[nextRandom(state) % candidates.size()];
    const TextToken &t = tokens[pick];
    const std::string token = spelling(t);
    switch (edit) {
      case TokenEdit::Delete:
      case TokenEdit::DropDelimiter:
        text->replace(t.begin, t.end - t.begin, " ");
        return true;
      case TokenEdit::Duplicate:
        text->insert(t.end, " " + token);
        return true;
      case TokenEdit::Swap: {
        const TextToken &next = tokens[pick + 1];
        const std::string after = spelling(next);
        text->replace(next.begin, next.end - next.begin, token);
        text->replace(t.begin, t.end - t.begin, after);
        return true;
      }
      case TokenEdit::Rename: {
        std::set<std::string> words;
        for (const TextToken &w : tokens) {
            if (w.kind == TextToken::Kind::Word && spelling(w) != token)
                words.insert(spelling(w));
        }
        if (words.empty())
            return false;
        auto it = words.begin();
        std::advance(it, nextRandom(state) % words.size());
        text->replace(t.begin, t.end - t.begin, *it);
        return true;
      }
      case TokenEdit::BumpInteger:
        text->replace(t.begin, t.end - t.begin,
                      std::to_string(std::stoll(token) + 1));
        return true;
    }
    return false;
}

/**
 * A seeded sweep of one-token edits. Seed s applies edit s mod 6 once
 * to every kernel of every input, at a token its own stream picks, so
 * every parser path — not only the one cut point `truncate` reaches —
 * and every cross-check meets text one token away from what the plan
 * describes. Pins, per (input, seed), the edits applied and the
 * findings; generated before the AS9xx front end was rewritten over
 * interned tokens.
 */
TEST(CompileDigest, EmittedTextEditsMatchGolden)
{
    constexpr int kSeeds = 18;
    const GpuSpec spec = GpuSpec::v100();
    std::string text;
    std::set<std::string> parse_errors;
    for (const auto &[name, graph] : emittedTextInputs()) {
        const std::vector<KernelPlan> plans = renderedPlans(graph, spec);
        for (int seed = 0; seed < kSeeds; ++seed) {
            const auto edit = static_cast<TokenEdit>(seed % kTokenEdits);
            DiagnosticEngine engine;
            int applied = 0;
            for (std::size_t k = 0; k < plans.size(); ++k) {
                std::uint64_t state =
                    static_cast<std::uint64_t>(seed) << 32 | k;
                std::string source = plans[k].cuda_source;
                if (!applyTokenEdit(&source, edit, state))
                    continue;
                ++applied;
                analyzeEmittedCudaSource(graph, source, plans[k], spec,
                                         engine);
            }
            for (const Diagnostic &d : engine.diagnostics()) {
                const std::string open = "does not parse (";
                const std::size_t at = d.message.find(open);
                if (d.code != "AS900" || at == std::string::npos)
                    continue;
                const std::size_t begin = at + open.size();
                parse_errors.insert(d.message.substr(
                    begin, d.message.find(" at line ", begin) - begin));
            }
            text += name + "@v100/seed" + std::to_string(seed) + ":" +
                    tokenEditName(edit) +
                    " applied=" + std::to_string(applied) +
                    " findings=" + std::to_string(engine.size()) +
                    " json=" + hex64(checksum64(engine.renderJson())) + "\n";
        }
    }
    EXPECT_GE(parse_errors.size(), 3u)
        << "the edits reach too few parser error paths";
    matchGolden(kEditGoldenPath, text);
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
