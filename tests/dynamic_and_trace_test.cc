/**
 * @file
 * Tests for dynamic-shape sessions (shape bucketing) and the trace/CSV
 * exports.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/dynamic_session.h"
#include "sim/trace_export.h"
#include "support/logging.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

GraphTemplate
softmaxTemplate()
{
    return [](const std::vector<std::int64_t> &dims) {
        return testing::buildSoftmax(dims.at(0), dims.at(1));
    };
}

BackendFactory
astitchFactory()
{
    return [] { return std::make_unique<AStitchBackend>(); };
}

TEST(DynamicSession, CompilesOncePerShapeSignature)
{
    DynamicSession session(softmaxTemplate(), astitchFactory());
    session.profile({64, 128});
    session.profile({64, 128});
    EXPECT_EQ(session.numCompiledBuckets(), 1);
    session.profile({128, 128});
    EXPECT_EQ(session.numCompiledBuckets(), 2);
}

TEST(DynamicSession, ShapesChangePlansAndTimes)
{
    DynamicSession session(softmaxTemplate(), astitchFactory());
    const RunReport small = session.profile({64, 64});
    const RunReport large = session.profile({8192, 1024});
    EXPECT_GT(large.end_to_end_us, small.end_to_end_us);
}

TEST(DynamicSession, PowerOfTwoBucketingBoundsCompilations)
{
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    DynamicSession session(softmaxTemplate(), astitchFactory(),
                           options);
    // 65..128 rows all land in the 128 bucket.
    for (std::int64_t rows : {65, 100, 128, 127})
        session.profile({rows, 256});
    EXPECT_EQ(session.numCompiledBuckets(), 1);
    EXPECT_EQ(session.bucketFor({100, 256}),
              (std::vector<std::int64_t>{128, 256}));
    session.profile({129, 256});
    EXPECT_EQ(session.numCompiledBuckets(), 2);
}

TEST(DynamicSession, ExactModeKeepsExactDims)
{
    DynamicSession session(softmaxTemplate(), astitchFactory());
    EXPECT_EQ(session.bucketFor({100, 3}),
              (std::vector<std::int64_t>{100, 3}));
}

TEST(DynamicSession, RequiresTemplateAndFactory)
{
    EXPECT_THROW(DynamicSession(nullptr, astitchFactory()), FatalError);
    EXPECT_THROW(DynamicSession(softmaxTemplate(), nullptr), FatalError);
}

TEST(DynamicSession, PowerOfTwoBucketingClampsHugeDims)
{
    // Regression: nextPowerOfTwo used to shift past 2^62 into signed
    // overflow (UB) and loop forever. Dims above the largest int64
    // power of two clamp to it instead.
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    DynamicSession session(softmaxTemplate(), astitchFactory(), options);
    constexpr std::int64_t kMaxPower = std::int64_t{1} << 62;
    EXPECT_EQ(session.bucketFor({kMaxPower + 1, (std::int64_t{1} << 62) +
                                                    (std::int64_t{1}
                                                     << 61)}),
              (std::vector<std::int64_t>{kMaxPower, kMaxPower}));
    EXPECT_EQ(session.bucketFor({kMaxPower}),
              (std::vector<std::int64_t>{kMaxPower}));
    EXPECT_EQ(session.bucketFor({kMaxPower - 1}),
              (std::vector<std::int64_t>{kMaxPower}));
}

TEST(DynamicSession, WarmupErrorSurfacesOnProfile)
{
    GraphTemplate broken = [](const std::vector<std::int64_t> &dims) {
        if (dims.at(0) > 100)
            fatal("template rejects rows > 100");
        return testing::buildSoftmax(dims.at(0), dims.at(1));
    };
    DynamicSession session(std::move(broken), astitchFactory());
    EXPECT_THROW(session.profile({512, 64}), FatalError);
    EXPECT_EQ(session.numCompiledBuckets(), 0);
    // The failed bucket is not kept: a retry compiles, and fails, again.
    EXPECT_THROW(session.profile({512, 64}), FatalError);
    EXPECT_EQ(session.numCompiledBuckets(), 0);
    // Healthy buckets are unaffected.
    session.profile({64, 64});
    EXPECT_EQ(session.numCompiledBuckets(), 1);
}

TEST(DynamicSession, DiagnosticsWaitForWarmups)
{
    // diagnostics() merges the findings of every profiled bucket: each
    // bucket's own findings are in it, tagged with that bucket.
    const workloads::DynamicWorkloadSpec wl =
        workloads::dynamicInferenceWorkloads().at(1); // ASR (AS831)
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    options.dim_names = {wl.dim_name};
    DynamicSession session(wl.build, astitchFactory(), options);
    session.profile({100});
    session.profile({200});
    EXPECT_EQ(session.numCompiledBuckets(), 2);
    const DiagnosticEngine merged = session.diagnostics();
    EXPECT_FALSE(merged.hasErrors());

    std::size_t alone = 0;
    for (const auto &[items, label] :
         {std::pair<std::int64_t, std::string>{100, "bucket 128"},
          std::pair<std::int64_t, std::string>{200, "bucket 256"}}) {
        DynamicSession single(wl.build, astitchFactory(), options);
        single.profile({items});
        const DiagnosticEngine own = single.diagnostics();
        alone += own.size();
        for (const Diagnostic &d : own.diagnostics()) {
            const auto it = std::find_if(
                merged.diagnostics().begin(), merged.diagnostics().end(),
                [&](const Diagnostic &m) {
                    return m.code == d.code && m.kernel == d.kernel &&
                           m.message == d.message &&
                           std::count(m.provenance.begin(),
                                      m.provenance.end(), label) == 1;
                });
            EXPECT_NE(it, merged.diagnostics().end())
                << label << " lost " << d.toString();
        }
    }
    EXPECT_GT(alone, 0u);
    EXPECT_LE(merged.size(), alone);
}

TEST(DynamicSession, ConcurrentProfilesShareBuckets)
{
    DynamicSession session(softmaxTemplate(), astitchFactory());
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&session, t] {
            session.profile({64 * (1 + t % 2), 128});
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(session.numCompiledBuckets(), 2);
}

// ---------------------------------------------------------------------
// Shape-parametric certification (AS8xx) through DynamicSession
// ---------------------------------------------------------------------

GraphTemplate
chainTemplate()
{
    return [](const std::vector<std::int64_t> &dims) {
        return testing::buildElementwiseChain(dims.at(0), 4);
    };
}

TEST(DynamicSessionSymbolic, ElementwiseChainCertifiesWholeBucket)
{
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    options.dim_names = {"n"};
    DynamicSession session(chainTemplate(), astitchFactory(), options);
    session.profile({100});

    DynamicSession::SymbolicStats stats = session.symbolicStats();
    ASSERT_EQ(stats.buckets_proven, 1);
    EXPECT_EQ(stats.buckets_fallback, 0);
    EXPECT_EQ(stats.buckets_unsymbolized, 0);

    const std::vector<ShapeCertificate> certs = session.certificates();
    ASSERT_FALSE(certs.empty());
    for (const ShapeCertificate &cert : certs) {
        EXPECT_EQ(cert.verdict, ShapeCertificate::Verdict::Proven);
        ASSERT_EQ(cert.dims.size(), 1u);
        EXPECT_EQ(cert.dims[0].name, "n");
        EXPECT_EQ(cert.dims[0].lo, 65);
        EXPECT_EQ(cert.dims[0].hi, 128);
        EXPECT_TRUE(cert.covers({100}));
        EXPECT_FALSE(cert.covers({64}));
    }

    // Serves inside the certified range ride the certificate instead
    // of re-running the verifier.
    session.profile({65});
    session.profile({128});
    stats = session.symbolicStats();
    EXPECT_EQ(stats.certified_hits, 3);
    EXPECT_EQ(stats.concrete_reverifications, 0);
}

TEST(DynamicSessionSymbolic, DisabledSymbolicVerifyCertifiesNothing)
{
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    options.symbolic_verify = false;
    DynamicSession session(chainTemplate(), astitchFactory(), options);
    session.profile({100});
    session.profile({90});
    const DynamicSession::SymbolicStats stats = session.symbolicStats();
    EXPECT_EQ(stats.buckets_proven, 0);
    EXPECT_EQ(stats.buckets_fallback, 0);
    EXPECT_EQ(stats.buckets_unsymbolized, 0);
    EXPECT_EQ(stats.certified_hits, 0);
    EXPECT_EQ(stats.concrete_reverifications, 0);
    EXPECT_TRUE(session.certificates().empty());
}

TEST(DynamicSessionSymbolic, ExactBucketsArePointRangesWithoutProofs)
{
    // Without rounding, every bucket serves exactly its compile shape;
    // the parametric pass is skipped (nothing beyond the compile-time
    // concrete verification is claimed) and serving the compile shape
    // again triggers no re-verification.
    DynamicSession session(chainTemplate(), astitchFactory());
    session.profile({100});
    session.profile({100});
    const DynamicSession::SymbolicStats stats = session.symbolicStats();
    EXPECT_EQ(stats.buckets_proven, 0);
    EXPECT_EQ(stats.certified_hits, 0);
    EXPECT_EQ(stats.concrete_reverifications, 0);
    EXPECT_TRUE(session.certificates().empty());
}

TEST(DynamicSessionSymbolic, MergedDiagnosticsDedupeWithBucketProvenance)
{
    // Two buckets of one template produce identical plan-level AS831
    // notes; the merge folds them into one record listing both buckets.
    const workloads::DynamicWorkloadSpec wl =
        workloads::dynamicInferenceWorkloads().at(1); // ASR (fallback)
    DynamicSessionOptions options;
    options.bucket_to_power_of_two = true;
    options.dim_names = {wl.dim_name};
    DynamicSession session(wl.build, astitchFactory(), options);
    session.profile({100}); // bucket 128
    session.profile({200}); // bucket 256
    const DiagnosticEngine merged = session.diagnostics();

    int provenance_notes = 0;
    for (const Diagnostic &d : merged.diagnostics()) {
        if (d.code != "AS831")
            continue;
        const std::string text = d.toString();
        if (text.find("bucket 128, bucket 256") != std::string::npos)
            ++provenance_notes;
    }
    EXPECT_GT(provenance_notes, 0)
        << "expected at least one deduplicated AS831 note spanning "
           "both buckets:\n"
        << merged.renderText();
}

// ---------------------------------------------------------------------
// Trace / CSV export
// ---------------------------------------------------------------------

PerfCounters
sampleCounters()
{
    Graph g = testing::buildSoftmax(256, 512);
    Session session(g, std::make_unique<XlaBackend>());
    return session.profile().counters;
}

TEST(TraceExport, ChromeTraceHasOneSlicePairPerKernel)
{
    const PerfCounters counters = sampleCounters();
    const std::string json = toChromeTrace(counters);
    EXPECT_TRUE(strStartsWith(json, "{\"traceEvents\":["));
    int dispatch = 0, device = 0;
    std::size_t pos = 0;
    while ((pos = json.find("\"tid\":0", pos)) != std::string::npos) {
        ++dispatch;
        pos += 7;
    }
    pos = 0;
    while ((pos = json.find("\"tid\":1,\"ts\"", pos)) !=
           std::string::npos) {
        ++device;
        pos += 7;
    }
    EXPECT_EQ(dispatch, static_cast<int>(counters.kernels.size()));
    EXPECT_EQ(device, static_cast<int>(counters.kernels.size()));
}

TEST(TraceExport, DeviceSlicesAreSerialized)
{
    // ts values on tid 1 must be non-decreasing (single stream).
    const std::string json = toChromeTrace(sampleCounters());
    double last_ts = -1.0;
    std::size_t pos = 0;
    while ((pos = json.find("\"tid\":1,\"ts\":", pos)) !=
           std::string::npos) {
        pos += 14;
        const double ts = std::stod(json.substr(pos, 20));
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
    }
    EXPECT_GT(last_ts, 0.0);
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerKernel)
{
    const PerfCounters counters = sampleCounters();
    const std::string csv = toCsv(counters);
    const auto lines = strSplit(csv, '\n');
    // header + kernels + trailing empty line
    EXPECT_EQ(lines.size(), counters.kernels.size() + 2);
    EXPECT_TRUE(strStartsWith(lines[0], "name,category,grid,block"));
    EXPECT_NE(lines[1].find("fusion_"), std::string::npos);
}

TEST(TraceExport, CsvColumnsParse)
{
    const std::string csv = toCsv(sampleCounters());
    const auto lines = strSplit(csv, '\n');
    const auto cols = strSplit(lines[1], ',');
    ASSERT_EQ(cols.size(), 11u);
    EXPECT_GT(std::stod(cols[4]), 0.0); // time_us
    EXPECT_GE(std::stoll(cols[8]), 0);  // dram_read_txn
}

TEST(TraceExport, EmptyCountersProduceValidDocuments)
{
    PerfCounters empty;
    EXPECT_EQ(toChromeTrace(empty), "{\"traceEvents\":[]}");
    const auto lines = strSplit(toCsv(empty), '\n');
    EXPECT_EQ(lines.size(), 2u); // header + trailing empty
}

} // namespace
} // namespace astitch
