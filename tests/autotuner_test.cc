/**
 * @file
 * Cost-model-guided autotuner tests: determinism across thread counts,
 * candidate legality through the analyzer gate, tuning-DB round-trip /
 * versioning / corruption handling, and cost monotonicity (tuned never
 * worse than heuristic) over a random-graph corpus.
 */
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "compiler/clustering.h"
#include "compiler/fingerprint.h"
#include "core/astitch_backend.h"
#include "opt/autotuner.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "runtime/tuning_db.h"
#include "support/atomic_file.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"
#include "workloads/random_graph.h"

namespace astitch {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "astitch_autotuner_" + name;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream file(path);
    file << content;
}

bool
sameDecision(const TuningOverrides &a, const TuningOverrides &b)
{
    return a.schemes == b.schemes && a.mappings == b.mappings;
}

SessionOptions
tunedOptions(TuningMode mode = TuningMode::Seeded, int candidates = 24)
{
    SessionOptions options;
    options.tuning.mode = mode;
    options.tuning.max_candidates = candidates;
    return options;
}

// ---------------------------------------------------------------------
// Determinism: same seed + budget => bit-identical decisions, costs and
// plans, regardless of how many compile threads the session uses.
// ---------------------------------------------------------------------

TEST(AutotunerDeterminism, IdenticalAcrossThreadCounts)
{
    const Graph graph = workloads::inferenceWorkloads()[3].build(); // ASR
    std::vector<TuningReport> reports;
    std::vector<std::string> launches;
    for (int threads : {1, 4}) {
        SessionOptions options = tunedOptions();
        options.compile_threads = threads;
        Session session(graph, std::make_unique<AStitchBackend>(),
                        options);
        session.compile();
        reports.push_back(session.tuningReport());
        std::string all;
        for (const CompiledCluster &c : session.compiled())
            for (const KernelPlan &plan : c.kernels)
                all += plan.name + ":" + plan.launch.toString() + "\n";
        launches.push_back(all);
    }

    ASSERT_EQ(reports[0].clusters.size(), reports[1].clusters.size());
    for (std::size_t i = 0; i < reports[0].clusters.size(); ++i) {
        const ClusterTuningResult &a = reports[0].clusters[i];
        const ClusterTuningResult &b = reports[1].clusters[i];
        EXPECT_EQ(a.fingerprint, b.fingerprint) << "cluster " << i;
        EXPECT_EQ(a.heuristic_cost_us, b.heuristic_cost_us)
            << "cluster " << i;
        EXPECT_EQ(a.tuned_cost_us, b.tuned_cost_us) << "cluster " << i;
        EXPECT_EQ(a.candidates_evaluated, b.candidates_evaluated)
            << "cluster " << i;
        EXPECT_EQ(a.improved, b.improved) << "cluster " << i;
        EXPECT_TRUE(sameDecision(a.decision, b.decision))
            << "cluster " << i;
    }
    EXPECT_EQ(launches[0], launches[1]);
}

TEST(AutotunerDeterminism, SameSeedTwiceIsIdentical)
{
    const testing::Fig7Graph f = testing::buildFig7(512, 256);
    const auto clusters =
        remoteStitch(f.graph, findMemoryIntensiveClusters(f.graph));
    ASSERT_FALSE(clusters.empty());
    const GpuSpec spec = GpuSpec::v100();
    const AStitchOptions base;
    const CompiledCluster heuristic =
        compileStitchOp(f.graph, clusters[0], spec, base);

    TuningOptions options;
    options.mode = TuningMode::Full;
    options.max_candidates = 32;
    const AutotuneOutcome first = autotuneCluster(
        f.graph, clusters[0], spec, base, heuristic, options);
    const AutotuneOutcome second = autotuneCluster(
        f.graph, clusters[0], spec, base, heuristic, options);
    EXPECT_EQ(first.result.tuned_cost_us, second.result.tuned_cost_us);
    EXPECT_EQ(first.result.candidates_evaluated,
              second.result.candidates_evaluated);
    EXPECT_TRUE(
        sameDecision(first.result.decision, second.result.decision));
}

// ---------------------------------------------------------------------
// Legality: every candidate the tuner scores passed the analyzer gate,
// and an independent analyzer run agrees with the gate's verdict.
// ---------------------------------------------------------------------

TEST(AutotunerLegality, ScoredCandidatesPassAnalyzerGate)
{
    const testing::Fig7Graph f = testing::buildFig7(512, 512);
    const auto clusters =
        remoteStitch(f.graph, findMemoryIntensiveClusters(f.graph));
    ASSERT_FALSE(clusters.empty());
    const GpuSpec spec = GpuSpec::v100();
    const AStitchOptions base;
    const CompiledCluster heuristic =
        compileStitchOp(f.graph, clusters[0], spec, base);

    std::atomic<int> observed{0}, legal_count{0};
    TuningOptions options;
    options.mode = TuningMode::Seeded;
    options.max_candidates = 32;
    options.observer = [&](const TuningOverrides &, const CompiledCluster
                           &compiled, bool legal, double cost_us) {
        ++observed;
        if (!legal)
            return;
        ++legal_count;
        EXPECT_GT(cost_us, 0.0);
        DiagnosticEngine engine;
        EXPECT_TRUE(analyzeCompiledCluster(f.graph, clusters[0], compiled,
                                           spec, engine))
            << engine.renderText();
    };
    const AutotuneOutcome outcome = autotuneCluster(
        f.graph, clusters[0], spec, base, heuristic, options);
    EXPECT_GT(observed.load(), 0);
    EXPECT_GT(legal_count.load(), 0);
    EXPECT_EQ(outcome.result.candidates_evaluated, observed.load());

    // The adopted plan itself re-verifies clean.
    DiagnosticEngine engine;
    EXPECT_TRUE(analyzeCompiledCluster(f.graph, clusters[0],
                                       outcome.compiled, spec, engine))
        << engine.renderText();
}

// ---------------------------------------------------------------------
// Tuning DB: round-trip, snapshot isolation, versioning, corruption.
// ---------------------------------------------------------------------

TuningDbEntry
sampleEntry(const std::string &key)
{
    TuningDbEntry entry;
    entry.key = key;
    entry.heuristic_cost_us = 12.5;
    entry.tuned_cost_us = 10.25;
    entry.improved = true;
    entry.decision.schemes = {{3, StitchScheme::Global},
                              {7, StitchScheme::Regional}};
    entry.decision.mappings = {{1, MappingOverride{256, 0}},
                               {5, MappingOverride{0, 4}}};
    return entry;
}

TEST(TuningDbTest, RoundTripThroughDisk)
{
    const std::string path = tempPath("roundtrip.db");
    std::remove(path.c_str());
    const std::string key = TuningDb::makeKey(0xabcdef12345ULL,
                                              "V100-SXM2-16GB", "tag");
    {
        TuningDb db(path);
        EXPECT_EQ(db.lookup(key), nullptr); // snapshot empty
        db.record(sampleEntry(key));
        // Snapshot isolation: recording does not affect lookups.
        EXPECT_EQ(db.lookup(key), nullptr);
        EXPECT_EQ(db.stats().pending, 1u);
        EXPECT_TRUE(db.save());
        // save() merges what was recorded into this DB's snapshot too.
        EXPECT_EQ(db.stats().pending, 0u);
        EXPECT_NE(db.lookup(key), nullptr);
    }
    TuningDb db(path);
    const TuningDbEntry *entry = db.lookup(key);
    ASSERT_NE(entry, nullptr);
    EXPECT_DOUBLE_EQ(entry->heuristic_cost_us, 12.5);
    EXPECT_DOUBLE_EQ(entry->tuned_cost_us, 10.25);
    EXPECT_TRUE(entry->improved);
    EXPECT_TRUE(sameDecision(entry->decision, sampleEntry(key).decision));
    EXPECT_EQ(db.stats().hits, 1);
    std::remove(path.c_str());
}

TEST(TuningDbTest, CostsRoundTripBitExactly)
{
    const std::string path = tempPath("costs.db");
    std::remove(path.c_str());
    const std::string key = TuningDb::makeKey(9, "A100", "t");
    TuningDbEntry entry = sampleEntry(key);
    entry.heuristic_cost_us = 1234.56789;
    entry.tuned_cost_us = 0.1 + 0.2;
    {
        TuningDb db(path);
        db.record(entry);
        ASSERT_TRUE(db.save());
    }
    TuningDb db(path);
    const TuningDbEntry *back = db.lookup(key);
    ASSERT_NE(back, nullptr);
    EXPECT_EQ(back->heuristic_cost_us, entry.heuristic_cost_us);
    EXPECT_EQ(back->tuned_cost_us, entry.tuned_cost_us);
    std::remove(path.c_str());
}

TEST(TuningDbTest, StalePassVersionMisses)
{
    const std::string path = tempPath("stale.db");
    std::remove(path.c_str());
    const std::string key = TuningDb::makeKey(42, "T4", "tag");
    // A DB written by an older pass version: same file format, older
    // version suffix in every key.
    const std::string current =
        "|v" + std::to_string(TuningDb::kPassVersion);
    ASSERT_TRUE(strEndsWith(key, current));
    const std::string stale =
        key.substr(0, key.size() - current.size()) + "|v0";
    {
        TuningDb db(path);
        db.record(sampleEntry(stale));
        ASSERT_TRUE(db.save());
    }

    TuningDb db(path);
    EXPECT_FALSE(db.stats().load_failed); // well-formed, just stale
    EXPECT_EQ(db.stats().entries, 1u);
    EXPECT_EQ(db.lookup(key), nullptr);   // current-version key misses
    EXPECT_EQ(db.stats().misses, 1);
    std::remove(path.c_str());
}

/** The file save() writes for a DB holding sampleEntry(@p key) alone. */
std::string
savedDbBytes(const std::string &path, const std::string &key)
{
    std::remove(path.c_str());
    TuningDb db(path);
    db.record(sampleEntry(key));
    EXPECT_TRUE(db.save());
    std::string bytes;
    EXPECT_EQ(readFileBytes(path, &bytes), FileReadStatus::Ok);
    return bytes;
}

/**
 * @p bytes at @p path take the unusable-file path: a failed load to an
 * empty DB, with the bytes moved aside to a `*.bad` sidecar, and the
 * next save publishes a fresh file.
 */
void
expectUnusable(const std::string &path, const std::string &bytes)
{
    writeFile(path, bytes);
    std::remove((path + ".bad").c_str());
    TuningDb db(path);
    EXPECT_TRUE(db.stats().load_failed);
    EXPECT_EQ(db.stats().entries, 0u);
    std::string moved;
    EXPECT_EQ(readFileBytes(path + ".bad", &moved), FileReadStatus::Ok);
    EXPECT_EQ(moved, bytes);

    const std::string key = TuningDb::makeKey(1, "A100", "t");
    db.record(sampleEntry(key));
    EXPECT_TRUE(db.save());
    TuningDb reloaded(path);
    EXPECT_FALSE(reloaded.stats().load_failed);
    EXPECT_NE(reloaded.lookup(key), nullptr);
}

TEST(TuningDbTest, TruncatedFileDegradesToEmpty)
{
    const std::string path = tempPath("truncated.db");
    const std::string good =
        savedDbBytes(path, TuningDb::makeKey(3, "T4", "t"));
    for (std::size_t keep = 0; keep < good.size(); ++keep) {
        SCOPED_TRACE("kept " + std::to_string(keep) + " bytes");
        expectUnusable(path, good.substr(0, keep));
    }
    std::remove(path.c_str());
    std::remove((path + ".bad").c_str());
}

TEST(TuningDbTest, FlippedByteDegradesToEmpty)
{
    const std::string path = tempPath("flipped.db");
    const std::string good =
        savedDbBytes(path, TuningDb::makeKey(4, "T4", "t"));
    for (std::size_t at = 0; at < good.size(); ++at) {
        SCOPED_TRACE("flipped byte " + std::to_string(at));
        std::string evil = good;
        evil[at] = static_cast<char>(evil[at] ^ 0x01);
        expectUnusable(path, evil);
    }
    std::remove(path.c_str());
    std::remove((path + ".bad").c_str());
}

TEST(TuningDbTest, CorruptFileDegradesToEmpty)
{
    const std::string path = tempPath("corrupt.db");
    writeFile(path, "this is not { json ]["); // parse must fail
    TuningDb db(path);
    EXPECT_TRUE(db.stats().load_failed);
    EXPECT_EQ(db.stats().entries, 0u);
    EXPECT_EQ(db.lookup(TuningDb::makeKey(1, "A100", "t")), nullptr);

    // Retuning after the corruption still persists fresh results.
    const std::string key = TuningDb::makeKey(1, "A100", "t");
    db.record(sampleEntry(key));
    EXPECT_TRUE(db.save());
    TuningDb reloaded(path);
    EXPECT_FALSE(reloaded.stats().load_failed);
    EXPECT_NE(reloaded.lookup(key), nullptr);
    std::remove(path.c_str());
}

TEST(TuningDbTest, WrongFileVersionDegradesToEmpty)
{
    // An intact DB envelope from a build with a newer file version.
    const std::string path = tempPath("filever.db");
    const std::string key = TuningDb::makeKey(2, "T4", "t");
    expectUnusable(path, serializeTuningDb(
                             strCat("tuning-db|v", TuningDb::kFileVersion + 1),
                             {sampleEntry(key)}));
    std::remove(path.c_str());
    std::remove((path + ".bad").c_str());
}

TEST(TuningDbTest, ForeignFilesDegradeToEmpty)
{
    // Every other file this build cannot read takes the same path: an
    // envelope of another wire version, an artifact-cache file, a DB
    // envelope whose payload does not decode, and a DB of file version
    // 1, which was JSON text.
    const std::string path = tempPath("foreign.db");
    const std::string key = TuningDb::makeKey(5, "V100", "t");
    std::string wire = savedDbBytes(path, key);
    wire[4] = static_cast<char>(kArtifactFormatVersion + 1);
    const std::string json =
        "{\n  \"version\": 1,\n  \"entries\": [\n    {\"key\": \"" + key +
        "\", \"heuristic_cost_us\": 12.5, \"tuned_cost_us\": 10.25, "
        "\"improved\": false, \"schemes\": [], \"mappings\": []}\n  ]\n}\n";
    for (const std::string &bytes :
         {wire, serializeArtifact(key, JitCacheEntry{}),
          wrapArtifact(strCat("tuning-db|v", TuningDb::kFileVersion),
                       "not a list of entries"),
          json})
        expectUnusable(path, bytes);
    std::remove(path.c_str());
    std::remove((path + ".bad").c_str());
}

TEST(TuningDbTest, UnreadablePathStaysInPlace)
{
    // A path the DB cannot read, here a directory, loads as an empty DB
    // with a warning; it is not the DB's to move aside or replace.
    const std::string path = tempPath("dir.db");
    std::filesystem::remove_all(path);
    std::filesystem::remove_all(path + ".bad");
    ASSERT_TRUE(std::filesystem::create_directory(path));
    TuningDb db(path);
    EXPECT_TRUE(db.stats().load_failed);
    EXPECT_EQ(db.stats().entries, 0u);
    db.record(sampleEntry(TuningDb::makeKey(6, "T4", "t")));
    EXPECT_FALSE(db.save());
    EXPECT_TRUE(std::filesystem::is_directory(path));
    EXPECT_FALSE(std::filesystem::exists(path + ".bad"));
    std::filesystem::remove_all(path);
}

TEST(TuningDbTest, SessionReusesDbAcrossRuns)
{
    const std::string path = tempPath("session.db");
    std::remove(path.c_str());
    const testing::Fig7Graph f = testing::buildFig7(512, 256);

    SessionOptions options = tunedOptions();
    options.tuning.db_path = path;
    int first_candidates = 0;
    {
        Session session(f.graph, std::make_unique<AStitchBackend>(),
                        options);
        session.compile();
        const TuningReport &report = session.tuningReport();
        ASSERT_TRUE(report.enabled);
        ASSERT_FALSE(report.clusters.empty());
        EXPECT_EQ(report.dbHitCount(), 0);
        for (const ClusterTuningResult &r : report.clusters)
            first_candidates += r.candidates_evaluated;
        EXPECT_GT(first_candidates, 0);
    }
    {
        Session session(f.graph, std::make_unique<AStitchBackend>(),
                        options);
        session.compile();
        const TuningReport &report = session.tuningReport();
        EXPECT_GT(report.dbHitCount(), 0);
        int candidates = 0;
        for (const ClusterTuningResult &r : report.clusters)
            candidates += r.candidates_evaluated;
        // A DB hit replays the stored decision: at most one verifying
        // compile per cluster instead of a whole search.
        EXPECT_LE(candidates,
                  static_cast<int>(report.clusters.size()));
        EXPECT_LT(candidates, first_candidates);
    }
    std::remove(path.c_str());
}

TEST(TuningDbTest, StoredDecisionsReplayBitIdentically)
{
    // With this wide beam and six mutation rounds the search adopts a
    // decision on every Transformer cluster, six scheme flips and 68
    // mapping overrides among them, so the second compile replays
    // stored decisions, not only "the heuristic is best" entries.
    const std::string path = tempPath("replay.db");
    std::remove(path.c_str());
    const Graph graph = workloads::inferenceWorkloads()[3].build();
    SessionOptions options = tunedOptions(TuningMode::Full, 96);
    options.tuning.beam_width = 8;
    options.tuning.generations = 6;
    options.tuning.db_path = path;
    const auto planDigests = [](Session &session) {
        std::vector<std::uint64_t> digests;
        for (const CompiledCluster &compiled : session.compiled()) {
            JitCacheEntry entry;
            entry.compiled = {compiled};
            digests.push_back(checksum64(serializePlanPayload(entry)));
        }
        return digests;
    };

    Session first(graph, std::make_unique<AStitchBackend>(), options);
    first.compile();
    const TuningReport tuned = first.tuningReport();
    ASSERT_FALSE(tuned.clusters.empty());
    EXPECT_EQ(tuned.dbHitCount(), 0);
    std::size_t schemes = 0, mappings = 0;
    for (const ClusterTuningResult &r : tuned.clusters) {
        schemes += r.decision.schemes.size();
        mappings += r.decision.mappings.size();
    }
    EXPECT_GT(tuned.improvedCount(), 0);
    EXPECT_GT(schemes, 0u);
    EXPECT_GT(mappings, 0u);

    Session second(graph, std::make_unique<AStitchBackend>(), options);
    second.compile();
    const TuningReport &replayed = second.tuningReport();
    ASSERT_EQ(replayed.clusters.size(), tuned.clusters.size());
    for (std::size_t i = 0; i < tuned.clusters.size(); ++i) {
        const ClusterTuningResult &a = tuned.clusters[i];
        const ClusterTuningResult &b = replayed.clusters[i];
        EXPECT_TRUE(b.db_hit) << "cluster " << i;
        EXPECT_EQ(b.improved, a.improved) << "cluster " << i;
        EXPECT_EQ(b.tuned_cost_us, a.tuned_cost_us) << "cluster " << i;
        EXPECT_TRUE(sameDecision(b.decision, a.decision))
            << "cluster " << i;
    }
    EXPECT_EQ(planDigests(second), planDigests(first));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Monotonicity: the tuner keeps the heuristic plan unless a candidate
// is strictly cheaper, so tuned cost <= heuristic cost always.
// ---------------------------------------------------------------------

TEST(AutotunerMonotonicity, TunedNeverWorseOnRandomCorpus)
{
    for (std::uint64_t seed : {11u, 23u, 47u}) {
        workloads::RandomGraphConfig config;
        config.num_nodes = 160;
        config.seed = seed;
        config.segment_size = 40;
        const Graph graph = workloads::buildRandomGraph(config);

        Session session(graph, std::make_unique<AStitchBackend>(),
                        tunedOptions(TuningMode::Seeded, 16));
        const RunReport report = session.profile();
        ASSERT_TRUE(report.tuning.enabled) << "seed " << seed;
        for (std::size_t i = 0; i < report.tuning.clusters.size(); ++i) {
            const ClusterTuningResult &r = report.tuning.clusters[i];
            EXPECT_LE(r.tuned_cost_us, r.heuristic_cost_us)
                << "seed " << seed << " cluster " << i;
            if (r.improved) {
                EXPECT_LT(r.tuned_cost_us, r.heuristic_cost_us)
                    << "seed " << seed << " cluster " << i;
            }
        }
    }
}

TEST(AutotunerMonotonicity, OffModeReportsDisabled)
{
    const testing::Fig7Graph f = testing::buildFig7();
    Session session(f.graph, std::make_unique<AStitchBackend>());
    const RunReport report = session.profile();
    EXPECT_FALSE(report.tuning.enabled);
    EXPECT_EQ(report.pass_timings.autotune_ms, 0.0);
}

} // namespace
} // namespace astitch
