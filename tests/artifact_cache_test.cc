/**
 * @file
 * Tests of the persistent kernel-artifact cache: serde round-trips,
 * envelope integrity classification, every disk-corruption scenario
 * (truncation, bit-flips, version skew, foreign keys, tampered plans,
 * crash orphans), the injected disk faults, and concurrent compilers
 * sharing one cache directory. The invariant under test throughout:
 * no disk state may ever crash a compile or serve an unverified plan —
 * the worst case is an AS62x diagnostic plus a clean in-memory
 * recompile.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analyzer.h"
#include "core/astitch_backend.h"
#include "runtime/artifact_cache.h"
#include "runtime/plan_serde.h"
#include "runtime/session.h"
#include "support/atomic_file.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

/** A per-test cache directory, cleared of previous runs' files. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "astitch_artifact_" + name;
    ArtifactCache(dir).clear();
    return dir;
}

SessionOptions
cacheOptions(const std::string &dir)
{
    SessionOptions options;
    options.artifact_cache_dir = dir;
    return options;
}

int
codeCount(const DiagnosticEngine &engine, const std::string &code)
{
    int n = 0;
    for (const Diagnostic &d : engine.diagnostics())
        n += d.code == code;
    return n;
}

/** Overwrite @p path with raw @p bytes (normal, non-atomic write — the
 * tests play the role of the hostile disk). */
void
writeRaw(const std::string &path, const std::string &bytes)
{
    std::ofstream file(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file.good());
    file.write(bytes.data(),
               static_cast<std::streamsize>(bytes.size()));
}

/** Compile-key of the single artifact in @p dir (strips the serde
 * pass-version suffix the cache appends). */
std::string
soleCompileKey(const std::string &dir)
{
    const auto files = ArtifactCache(dir).scan();
    for (const ArtifactFileInfo &info : files) {
        if (info.quarantined)
            continue;
        const std::size_t cut = info.key.rfind("|serde-pass-v");
        return cut == std::string::npos ? info.key
                                        : info.key.substr(0, cut);
    }
    return {};
}

/** Count live (non-quarantined) artifacts / `*.bad` sidecars. */
std::pair<int, int>
countArtifacts(const std::string &dir)
{
    int live = 0, bad = 0;
    for (const ArtifactFileInfo &info : ArtifactCache(dir).scan())
        (info.quarantined ? bad : live) += 1;
    return {live, bad};
}

/** Run one cached session over fig7; returns its outputs. */
std::vector<Tensor>
runSession(const Graph &graph, const SessionOptions &options,
           bool *from_artifact = nullptr,
           DiagnosticEngine *diags = nullptr)
{
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);
    Session session(graph, std::make_unique<AStitchBackend>(), options);
    session.compile();
    if (from_artifact)
        *from_artifact = session.passTimings().fromArtifact();
    if (diags) {
        diags->clear();
        diags->merge(session.diagnostics());
    }
    EXPECT_FALSE(session.degradation().degraded());
    return session.run(feeds).outputs;
}

void
expectSameOutputs(const std::vector<Tensor> &got,
                  const std::vector<Tensor> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i].allClose(want[i], 1e-6, 1e-7))
            << "output " << i << " diverged";
}

/** Little-endian appenders matching the wire format, for hand-crafted
 * envelopes. */
void
appendU32(std::string *out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
appendU64(std::string *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/** Frame @p payload under @p key like wrapArtifact, but with an
 * arbitrary wire version; @p fnv frames it with FNV-1a checksums, as
 * wire version 2 did, in place of hash64. */
std::string
wrapWithVersion(const std::string &key, const std::string &payload,
                std::uint32_t version, bool fnv = false)
{
    const auto hash = [fnv](const std::string &bytes) {
        return fnv ? checksum64(bytes) : hash64(bytes);
    };
    std::string header = "ASTC";
    appendU32(&header, version);
    appendU32(&header, static_cast<std::uint32_t>(key.size()));
    header += key;
    appendU64(&header, payload.size());
    appendU64(&header, hash(payload));
    appendU64(&header, hash(header));
    return header + payload;
}

TEST(ArtifactCacheCodes, AS62xFamilyRegistered)
{
    for (const char *code : {"AS620", "AS621", "AS622", "AS623",
                             "AS624", "AS625", "AS626"})
        EXPECT_NE(findDiagnosticCode(code), nullptr) << code;
}

TEST(PlanSerde, EnvelopeClassifiesEveryLie)
{
    const std::string key = "some/key";
    const std::string payload = "payload bytes with entropy 123";
    const std::string good = wrapArtifact(key, payload);

    std::string out;
    EXPECT_EQ(unwrapArtifact(good, key, &out), ArtifactStatus::Ok);
    EXPECT_EQ(out, payload);

    EXPECT_EQ(unwrapArtifact("", key, &out), ArtifactStatus::Truncated);
    EXPECT_EQ(unwrapArtifact(good.substr(0, good.size() - 1), key, &out),
              ArtifactStatus::Truncated);
    EXPECT_EQ(unwrapArtifact(good.substr(0, 10), key, &out),
              ArtifactStatus::Truncated);

    std::string bad_magic = good;
    bad_magic[0] = 'X';
    EXPECT_EQ(unwrapArtifact(bad_magic, key, &out),
              ArtifactStatus::BadMagic);

    std::string bad_header = good; // flip inside the embedded key
    bad_header[12] = static_cast<char>(bad_header[12] ^ 0xff);
    EXPECT_EQ(unwrapArtifact(bad_header, key, &out),
              ArtifactStatus::BadHeaderChecksum);

    std::string bad_payload = good; // flip the final payload byte
    bad_payload.back() = static_cast<char>(bad_payload.back() ^ 0x01);
    EXPECT_EQ(unwrapArtifact(bad_payload, key, &out),
              ArtifactStatus::BadPayloadChecksum);

    EXPECT_EQ(unwrapArtifact(good, "another/key", &out),
              ArtifactStatus::KeyMismatch);

    EXPECT_EQ(unwrapArtifact(
                  wrapWithVersion(key, payload,
                                  kArtifactFormatVersion + 1),
                  key, &out),
              ArtifactStatus::VersionSkew);

    std::string embedded;
    EXPECT_EQ(inspectArtifact(good, &embedded, &out), ArtifactStatus::Ok);
    EXPECT_EQ(embedded, key);
}

TEST(ArtifactCache, ColdStoresWarmServesIdenticalPlans)
{
    const std::string dir = freshDir("cold_warm");
    const Graph graph = testing::buildFig7().graph;

    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto cold =
        runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_EQ(codeCount(diags, "AS620"), 0);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));

    const auto warm =
        runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_TRUE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS620"), 1);
    expectSameOutputs(warm, cold);
}

TEST(ArtifactCache, WarmHitReportsOnlyArtifactSpans)
{
    const std::string dir = freshDir("timings");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));

    Session session(graph, std::make_unique<AStitchBackend>(),
                    cacheOptions(dir));
    session.compile();
    const CompilePassTimings &t = session.passTimings();
    ASSERT_TRUE(t.fromArtifact());
    // The proof a warm start skipped the compiler: every compile-pass
    // span is exactly zero (scheduling is session-side and may not be).
    EXPECT_EQ(t.clustering_ms, 0.0);
    EXPECT_EQ(t.remote_stitch_ms, 0.0);
    EXPECT_EQ(t.backend_compile_ms, 0.0);
    EXPECT_EQ(t.analysis_ms, 0.0);
    EXPECT_EQ(t.autotune_ms, 0.0);
    EXPECT_EQ(t.parallel_section_ms, 0.0);
    EXPECT_GT(t.artifact_load_ms + t.artifact_verify_ms, 0.0);
}

TEST(PlanSerde, RoundTripIsLosslessAndDeterministic)
{
    const std::string dir = freshDir("roundtrip");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));

    ArtifactCache cache(dir);
    auto lease = cache.acquire(soleCompileKey(dir), graph,
                               GpuSpec::v100(), nullptr);
    ASSERT_NE(lease.entry, nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1);

    const std::string once = serializePlanPayload(*lease.entry);
    JitCacheEntry back;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(once, &back, &error)) << error;
    EXPECT_EQ(serializePlanPayload(back), once);
}

/**
 * A cache entry in which every persisted field is populated. Declared
 * shape ranges give the plans certificates and symbolic twins (LinExpr
 * terms); tuning decisions, finding provenance, degradation causes and
 * compile timings, which a clean default compile leaves empty, are
 * filled by hand.
 */
JitCacheEntry
fullyPopulatedEntry()
{
    const testing::Fig7Graph f = testing::buildFig7(8, 32);
    ShapeDim batch;
    batch.name = "batch";
    batch.value = 8;
    batch.lo = 4;
    batch.hi = 8;
    batch.divisor = 2;
    SessionOptions options;
    options.shape_params = {batch};
    Session session(f.graph, std::make_unique<AStitchBackend>(), options);

    JitCacheEntry entry;
    entry.clusters = session.clusters();
    entry.compiled = session.compiled();
    entry.cluster_diagnostics.resize(entry.clusters.size());
    entry.cluster_diagnostics.front().merge(session.diagnostics());
    Diagnostic merged;
    merged.code = "AS831";
    merged.severity = Severity::Note;
    merged.kernel = "<bucket>";
    merged.message = "deduplicated across buckets";
    merged.node = f.reduce1;
    merged.provenance = {"batch=4", "batch=8"};
    entry.cluster_diagnostics.back().add(merged);

    ClusterDegradation demoted;
    demoted.level = LadderLevel::LoopFusion;
    demoted.retries = 2;
    demoted.causes = {"full-stitch: injected fault",
                      "local-only: injected fault"};
    entry.degradation.clusters = {demoted, ClusterDegradation{}};
    entry.degradation.clustering_fallback = true;
    entry.degradation.cache_bypassed = true;
    entry.degradation.session_retries = 3;

    entry.timings.clustering_ms = 1.5;
    entry.timings.remote_stitch_ms = 2.5;
    entry.timings.backend_compile_ms = 3.5;
    entry.timings.analysis_ms = 4.5;
    entry.timings.autotune_ms = 5.5;
    entry.timings.parallel_section_ms = 6.5;
    entry.timings.scheduling_ms = 7.5;

    ClusterTuningResult tuned;
    tuned.fingerprint = 0x0123456789abcdefULL;
    tuned.heuristic_cost_us = 12.5;
    tuned.tuned_cost_us = 10.25;
    tuned.candidates_evaluated = 7;
    tuned.candidates_rejected = 2;
    tuned.improved = true;
    tuned.db_hit = true;
    tuned.search_ms = 3.75;
    tuned.decision.schemes = {{f.reduce2, StitchScheme::Global},
                              {f.reduce1, StitchScheme::Regional},
                              {f.power1, StitchScheme::Local}};
    tuned.decision.mappings = {{f.reduce2, MappingOverride{128, 4}},
                               {f.reduce1, MappingOverride{256, 2}}};
    entry.tuning.enabled = true;
    entry.tuning.clusters = {tuned, ClusterTuningResult{}};
    return entry;
}

TEST(PlanSerde, FullyPopulatedEntryRoundTripsAndEveryPrefixFails)
{
    const JitCacheEntry entry = fullyPopulatedEntry();
    std::vector<const KernelPlan *> plans;
    for (const CompiledCluster &cc : entry.compiled)
        for (const KernelPlan &plan : cc.kernels)
            plans.push_back(&plan);
    bool has_dims = false;
    bool has_terms = false;
    for (const KernelPlan *plan : plans) {
        has_dims |= !plan->certificate.dims.empty();
        for (const SymbolicAccess &s : plan->sym_accesses)
            has_terms |= !s.extent.terms.empty() || !s.offset.terms.empty() ||
                         !s.value_extent.terms.empty();
    }
    ASSERT_TRUE(has_dims) << "no plan carries a shape certificate";
    ASSERT_TRUE(has_terms) << "no symbolic access has a dimension term";

    const std::string payload = serializePlanPayload(entry);
    JitCacheEntry back;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &back, &error)) << error;
    EXPECT_EQ(serializePlanPayload(back), payload);

    ASSERT_EQ(back.tuning.clusters.size(), entry.tuning.clusters.size());
    for (std::size_t i = 0; i < entry.tuning.clusters.size(); ++i) {
        const TuningOverrides &want = entry.tuning.clusters[i].decision;
        const TuningOverrides &got = back.tuning.clusters[i].decision;
        EXPECT_EQ(got.schemes, want.schemes) << "cluster " << i;
        EXPECT_EQ(got.mappings, want.mappings) << "cluster " << i;
    }
    std::size_t k = 0;
    for (const CompiledCluster &cc : back.compiled) {
        for (const KernelPlan &plan : cc.kernels) {
            ASSERT_LT(k, plans.size());
            const std::vector<ShapeDim> &want = plans[k++]->certificate.dims;
            ASSERT_EQ(plan.certificate.dims.size(), want.size());
            for (std::size_t d = 0; d < want.size(); ++d) {
                EXPECT_EQ(plan.certificate.dims[d].name, want[d].name);
                EXPECT_EQ(plan.certificate.dims[d].value, want[d].value);
                EXPECT_EQ(plan.certificate.dims[d].lo, want[d].lo);
                EXPECT_EQ(plan.certificate.dims[d].hi, want[d].hi);
                EXPECT_EQ(plan.certificate.dims[d].divisor,
                          want[d].divisor);
            }
        }
    }
    EXPECT_EQ(k, plans.size());

    // Every strict prefix runs out of bytes somewhere in the walk.
    std::vector<std::size_t> decoded_prefixes;
    for (std::size_t n = 0; n < payload.size(); ++n) {
        JitCacheEntry partial;
        if (deserializePlanPayload(payload.substr(0, n), &partial, nullptr))
            decoded_prefixes.push_back(n);
    }
    EXPECT_TRUE(decoded_prefixes.empty())
        << decoded_prefixes.size() << " prefixes decoded, first of "
        << decoded_prefixes.front() << " bytes";
}

TEST(PlanSerde, EnvelopeBytesArePinned)
{
    // compile_digests.txt pins payloads only; this pins the framed
    // envelope, so a change to how the header and payload are laid out
    // (or checksummed) cannot pass as a refactor. ASR on V100 is a
    // Table-2 compile as the digest golden builds its entry; the fully
    // populated entry walks every persisted field.
    const auto envelope = [](const std::string &key,
                             const JitCacheEntry &entry) {
        const std::string bytes =
            wrapArtifact(key, serializePlanPayload(entry));
        return strCat(bytes.size(), ":", strHex(checksum64(bytes)));
    };

    const Graph asr = workloads::inferenceWorkloads()[1].build();
    SessionOptions options;
    options.spec = GpuSpec::v100();
    Session session(asr, std::make_unique<AStitchBackend>(), options);
    JitCacheEntry entry;
    entry.clusters = session.clusters();
    entry.compiled = session.compiled();
    EXPECT_EQ(envelope("ASR|v100|serde-pass-v1", entry),
              "254827:4db4453e11e905d6");
    EXPECT_EQ(envelope("fully/populated", fullyPopulatedEntry()),
              "8699:8afe7dae7ab9bd89");
}

TEST(PlanSerde, SerializedArtifactEqualsTheWrappedPayload)
{
    // The publish path frames the entry in one buffer; the bytes must be
    // the two-step wrapArtifact(serializePlanPayload()) ones, and the
    // payload must decode where it lies in them.
    const JitCacheEntry entry = fullyPopulatedEntry();
    const std::string key = "one/buffer";
    const std::string bytes = serializeArtifact(key, entry);
    EXPECT_EQ(bytes, wrapArtifact(key, serializePlanPayload(entry)));

    std::string_view payload;
    ASSERT_EQ(unwrapArtifact(bytes, key, &payload), ArtifactStatus::Ok);
    EXPECT_EQ(payload.data() + payload.size(), bytes.data() + bytes.size());
    JitCacheEntry back;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &back, &error)) << error;
    EXPECT_EQ(serializePlanPayload(back), serializePlanPayload(entry));

    EXPECT_EQ(unwrapArtifact(bytes, "another/key", &payload),
              ArtifactStatus::KeyMismatch);
    EXPECT_TRUE(payload.empty());
}

TEST(ArtifactCache, TruncationAlwaysRecompiles)
{
    const std::string dir = freshDir("truncate");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);

    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{17},
          good.size() / 2, good.size() - 1}) {
        SCOPED_TRACE("truncated to " + std::to_string(keep) + " bytes");
        writeRaw(path, good.substr(0, keep));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS621"), 1);
        expectSameOutputs(outputs, reference);
        // The recompile republished a good artifact over the wreck.
        EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
                  artifactStatusName(ArtifactStatus::Ok));
    }
    EXPECT_EQ(countArtifacts(dir).second, 1); // evidence quarantined
}

TEST(ArtifactCache, BitFlipSweepNeverCrashesNorServes)
{
    const std::string dir = freshDir("bitflip");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);

    // Flip one byte at a spread of offsets: header fields, the key,
    // the checksums and payload regions all get hit.
    for (std::size_t offset = 0; offset < good.size();
         offset += good.size() / 13 + 1) {
        SCOPED_TRACE("bit flip at offset " + std::to_string(offset));
        std::string evil = good;
        evil[offset] = static_cast<char>(evil[offset] ^ 0x40);
        writeRaw(path, evil);

        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        // Classification depends on which field the flip hit, but it
        // must always land in the corruption family: integrity (621),
        // version/key skew (622) or decode failure (623).
        EXPECT_GE(codeCount(diags, "AS621") + codeCount(diags, "AS622") +
                      codeCount(diags, "AS623"),
                  1);
        expectSameOutputs(outputs, reference);
    }
}

TEST(ArtifactCache, StaleWireVersionIsACleanMiss)
{
    const std::string dir = freshDir("version_skew");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);

    writeRaw(path,
             wrapWithVersion(key, payload, kArtifactFormatVersion + 7));
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS622"), 1);
    // Version skew is expected across builds — no quarantine, the
    // recompile just overwrites the foreign file.
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));
}

TEST(ArtifactCache, FnvFramedVersionTwoArtifactIsACleanMiss)
{
    // What the previous wire format wrote: version 2, both checksums
    // FNV-1a. Its header checksum fails under hash64, and the version
    // field says why.
    const std::string dir = freshDir("wire_v2");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);

    const std::string v2 = wrapWithVersion(key, payload, 2, /*fnv=*/true);
    std::string out;
    EXPECT_EQ(unwrapArtifact(v2, key, &out), ArtifactStatus::VersionSkew);
    writeRaw(path, v2);
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS622"), 1);
    EXPECT_EQ(codeCount(diags, "AS621"), 0);
    // The recompile overwrote the old file in place: it is never
    // quarantined, and it reads back at the current version.
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    std::string rewritten;
    ASSERT_EQ(readFileBytes(path, &rewritten), FileReadStatus::Ok);
    EXPECT_EQ(unwrapArtifact(rewritten, key, &out), ArtifactStatus::Ok);
}

TEST(ArtifactCache, ForeignArtifactUnderOurNameMissesCleanly)
{
    const std::string dir = freshDir("foreign_key");
    const Graph fig7 = testing::buildFig7().graph;
    const Graph softmax = testing::buildSoftmax(32, 64);
    const auto reference = runSession(fig7, cacheOptions(dir));
    const std::string fig7_path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));

    const std::string dir2 = freshDir("foreign_key_src");
    runSession(softmax, cacheOptions(dir2));
    std::string foreign;
    ASSERT_EQ(readFileBytes(ArtifactCache(dir2).filePathFor(
                                soleCompileKey(dir2)),
                            &foreign),
              FileReadStatus::Ok);

    // A rename/copy gone wrong: another compilation's (intact) artifact
    // sits under our file name. The embedded key defends it.
    writeRaw(fig7_path, foreign);
    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto outputs =
        runSession(fig7, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS622"), 1);
    expectSameOutputs(outputs, reference);
}

TEST(ArtifactCache, TamperedPlanIsRejectedBeforeServing)
{
    const std::string dir = freshDir("tamper");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string compile_key = soleCompileKey(dir);
    const std::string path = ArtifactCache(dir).filePathFor(compile_key);
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);

    JitCacheEntry entry;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &entry, &error)) << error;
    ASSERT_FALSE(entry.clusters.empty());

    // Tamper 1: a node reference beyond the graph — structural
    // validation must reject the decode (AS623).
    {
        JitCacheEntry evil = entry;
        evil.clusters[0].nodes[0] = 1000000;
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS623"), 1);
        expectSameOutputs(outputs, reference);
        EXPECT_GE(countArtifacts(dir).second, 1); // quarantined
    }

    // Tamper 2: structurally valid but semantically wrong — a
    // checksum-correct artifact claiming a degraded compilation. The
    // serving gate must refuse it (AS624): degraded plans are never
    // served from disk.
    {
        JitCacheEntry evil = entry;
        ASSERT_FALSE(evil.degradation.clusters.empty());
        evil.degradation.clusters[0].level = LadderLevel::KernelPerOp;
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS624"), 1);
        expectSameOutputs(outputs, reference);
    }

    // Tamper 3: a plan op re-pointed at a graph node outside its
    // cluster — passes range checks, so only the analyzer's
    // re-verification can catch it (AS624; AS623 acceptable if the
    // structural net tightens later).
    {
        JitCacheEntry evil = entry;
        ASSERT_FALSE(evil.compiled.empty());
        bool mutated = false;
        for (KernelPlan &plan : evil.compiled[0].kernels) {
            if (plan.ops.empty())
                continue;
            plan.ops[0].node = evil.clusters[0].inputs.empty()
                                   ? 0
                                   : evil.clusters[0].inputs[0];
            mutated = true;
            break;
        }
        ASSERT_TRUE(mutated);
        writeRaw(path,
                 wrapArtifact(key, serializePlanPayload(evil)));
        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        EXPECT_GE(codeCount(diags, "AS623") + codeCount(diags, "AS624"),
                  1);
        expectSameOutputs(outputs, reference);
    }
}

TEST(ArtifactCache, EveryStructuralRejectionQuarantinesAndRecompiles)
{
    const std::string dir = freshDir("validate");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));
    std::string good;
    ASSERT_EQ(readFileBytes(path, &good), FileReadStatus::Ok);
    std::string key, payload;
    ASSERT_EQ(inspectArtifact(good, &key, &payload), ArtifactStatus::Ok);
    JitCacheEntry entry;
    std::string error;
    ASSERT_TRUE(deserializePlanPayload(payload, &entry, &error)) << error;
    ASSERT_FALSE(entry.compiled.empty());
    ASSERT_FALSE(entry.compiled[0].kernels.empty());
    ASSERT_FALSE(entry.compiled[0].kernels[0].ops.empty());
    ASSERT_FALSE(entry.compiled[0].kernels[0].accesses.empty());

    // One tamper per rejection of the structural validation, with the
    // reason that rejection reports.
    const auto plan = [](JitCacheEntry &e) -> KernelPlan & {
        return e.compiled[0].kernels[0];
    };
    const NodeId outside = graph.numNodes();
    const std::vector<
        std::pair<std::string, std::function<void(JitCacheEntry &)>>>
        tampers = {
            {"per-cluster vectors disagree on cluster count",
             [](JitCacheEntry &e) { e.tuning.clusters.emplace_back(); }},
            {"cluster references a node outside the graph",
             [&](JitCacheEntry &e) {
                 e.clusters[0].outputs.push_back(outside);
             }},
            {"negative compiled-cluster resource count",
             [](JitCacheEntry &e) { e.compiled[0].num_memcpy = -1; }},
            {"has a degenerate launch",
             [&](JitCacheEntry &e) { plan(e).launch.block = 0; }},
            {"has a negative resource count",
             [&](JitCacheEntry &e) { plan(e).num_global_barriers = -1; }},
            {"schedules an unknown node",
             [&](JitCacheEntry &e) { plan(e).ops[0].node = outside; }},
            {"reads an unknown node",
             [&](JitCacheEntry &e) {
                 plan(e).inputs.push_back(KernelInput{outside, 1.0});
             }},
            {"writes an unknown node",
             [&](JitCacheEntry &e) { plan(e).outputs.push_back(-1); }},
            {"places a barrier outside its schedule",
             [&](JitCacheEntry &e) {
                 BarrierPoint b;
                 b.after_op = static_cast<int>(plan(e).ops.size());
                 plan(e).barriers.push_back(b);
             }},
            {"has an invalid shared slot",
             [&](JitCacheEntry &e) {
                 plan(e).shared_slots.push_back(SharedSlot{0, -8, 8});
             }},
            {"has an invalid access summary",
             [&](JitCacheEntry &e) { plan(e).accesses[0].elem_bytes = 0; }},
            {"has a dangling symbolic access",
             [&](JitCacheEntry &e) {
                 SymbolicAccess sym;
                 sym.access_index =
                     static_cast<int>(plan(e).accesses.size());
                 plan(e).sym_accesses.push_back(sym);
             }},
            {"references an undeclared shape dim",
             [&](JitCacheEntry &e) {
                 SymbolicAccess sym;
                 sym.access_index = 0;
                 sym.offset = LinExpr::dim(
                     static_cast<int>(plan(e).certificate.dims.size()), 1);
                 plan(e).sym_accesses.push_back(sym);
             }},
        };
    for (const auto &[reason, tamper] : tampers) {
        SCOPED_TRACE(reason);
        JitCacheEntry evil = entry;
        tamper(evil);
        const std::string bytes = serializeArtifact(key, evil);
        writeRaw(path, bytes);
        std::remove((path + ".bad").c_str());

        bool from_artifact = true;
        DiagnosticEngine diags;
        const auto outputs = runSession(graph, cacheOptions(dir),
                                        &from_artifact, &diags);
        EXPECT_FALSE(from_artifact);
        ASSERT_EQ(codeCount(diags, "AS623"), 1);
        for (const Diagnostic &d : diags.diagnostics()) {
            if (d.code == "AS623") {
                EXPECT_NE(d.message.find(reason), std::string::npos)
                    << d.message;
            }
        }
        std::string quarantined;
        ASSERT_EQ(readFileBytes(path + ".bad", &quarantined),
                  FileReadStatus::Ok);
        EXPECT_EQ(quarantined, bytes);
        expectSameOutputs(outputs, reference);
        // The recompile republished a good artifact in its place.
        std::string republished, out;
        ASSERT_EQ(readFileBytes(path, &republished), FileReadStatus::Ok);
        EXPECT_EQ(unwrapArtifact(republished, key, &out),
                  ArtifactStatus::Ok);
    }
}

TEST(ArtifactCache, CrashOrphanTempIsInvisible)
{
    const std::string dir = freshDir("crash_orphan");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string path =
        ArtifactCache(dir).filePathFor(soleCompileKey(dir));

    // Simulate a writer that died between temp-write and rename: the
    // bytes sit under the temp name, nothing at the real path.
    std::string bytes;
    ASSERT_EQ(readFileBytes(path, &bytes), FileReadStatus::Ok);
    ASSERT_EQ(::rename(path.c_str(), (path + ".tmp.424242").c_str()), 0);

    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, cacheOptions(dir), &from_artifact, &diags);
    EXPECT_FALSE(from_artifact); // clean miss, no AS62x warnings
    EXPECT_EQ(codeCount(diags, "AS621") + codeCount(diags, "AS623") +
                  codeCount(diags, "AS624"),
              0);
    // scan() never lists orphan temps; clear() sweeps them.
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_GE(ArtifactCache(dir).clear(), 2);
}

TEST(ArtifactCache, DegradedCompilationsAreNeverStored)
{
    const std::string dir = freshDir("degraded_store");
    const Graph graph = testing::buildFig7().graph;
    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "backend-compile"; // permanent: forces demotion
    Session session(graph, std::make_unique<AStitchBackend>(), options);
    ASSERT_NO_THROW(session.compile());
    EXPECT_TRUE(session.degradation().degraded());
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{0, 0}));
}

TEST(ArtifactCache, InjectedWriteFailureKeepsTheCompilation)
{
    const std::string dir = freshDir("fault_write");
    const Graph graph = testing::buildFig7().graph;
    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-write-fail";
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS626"), 1);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{0, 0}));

    // Without the fault the next compile stores normally.
    runSession(graph, cacheOptions(dir));
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
}

TEST(ArtifactCache, InjectedLockTimeoutSkipsTheDiskTier)
{
    const std::string dir = freshDir("fault_lock");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir)); // warm artifact available

    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-lock-timeout";
    bool from_artifact = true;
    DiagnosticEngine diags;
    runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact); // tier skipped despite a good artifact
    EXPECT_GE(codeCount(diags, "AS625"), 1);
}

TEST(ArtifactCache, InjectedReadCorruptionQuarantinesAndRecovers)
{
    const std::string dir = freshDir("fault_read");
    const Graph graph = testing::buildFig7().graph;
    const auto reference = runSession(graph, cacheOptions(dir));

    SessionOptions options = cacheOptions(dir);
    options.fault_plan = "cache-read-corrupt";
    bool from_artifact = true;
    DiagnosticEngine diags;
    const auto outputs =
        runSession(graph, options, &from_artifact, &diags);
    EXPECT_FALSE(from_artifact);
    EXPECT_GE(codeCount(diags, "AS621"), 1);
    expectSameOutputs(outputs, reference);
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 1}));

    // The recompile republished: the next session warm-hits again.
    runSession(graph, cacheOptions(dir), &from_artifact);
    EXPECT_TRUE(from_artifact);
}

TEST(ArtifactCache, ConcurrentCompilersShareOneArtifact)
{
    const std::string dir = freshDir("concurrent");
    const Graph graph = testing::buildFig7().graph;
    const TensorMap feeds = workloads::makeRandomFeeds(graph, 7);
    std::vector<Tensor> reference;
    {
        Session ref(graph, std::make_unique<AStitchBackend>());
        reference = ref.run(feeds).outputs;
    }

    // Several sessions race on a cold directory. The per-key file lock
    // gives single-flight; whoever loses the race either waits and
    // warm-hits or recompiles — all must succeed with equal outputs.
    constexpr int kThreads = 4;
    std::vector<std::vector<Tensor>> outputs(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            Session session(graph, std::make_unique<AStitchBackend>(),
                            cacheOptions(dir));
            session.compile();
            outputs[i] = session.run(feeds).outputs;
        });
    }
    for (std::thread &t : threads)
        t.join();
    for (int i = 0; i < kThreads; ++i) {
        SCOPED_TRACE("thread " + std::to_string(i));
        expectSameOutputs(outputs[i], reference);
    }
    EXPECT_EQ(countArtifacts(dir), (std::pair<int, int>{1, 0}));
    EXPECT_EQ(ArtifactCache(dir).scan()[0].status,
              artifactStatusName(ArtifactStatus::Ok));
}

TEST(ArtifactCache, DirectAcquirePublishCountsStats)
{
    const std::string dir = freshDir("stats");
    const Graph graph = testing::buildFig7().graph;
    runSession(graph, cacheOptions(dir));
    const std::string compile_key = soleCompileKey(dir);

    ArtifactCache cache(dir);
    auto hit =
        cache.acquire(compile_key, graph, GpuSpec::v100(), nullptr);
    ASSERT_NE(hit.entry, nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1);

    auto miss = cache.acquire(compile_key + "/other", graph,
                              GpuSpec::v100(), nullptr);
    EXPECT_EQ(miss.entry, nullptr);
    ASSERT_NE(miss.lock, nullptr);
    ASSERT_TRUE(miss.lock->locked());
    EXPECT_EQ(cache.stats().disk_misses, 1);

    EXPECT_TRUE(cache.publish(miss, compile_key + "/other", *hit.entry,
                              nullptr));
    EXPECT_EQ(cache.stats().stores, 1);
    EXPECT_EQ(countArtifacts(dir).first, 2);
}

} // namespace
} // namespace astitch
