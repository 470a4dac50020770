/**
 * @file
 * Tests for the serving runtime (src/serve): traffic generation,
 * admission control, micro-batching, latency statistics, the router's
 * shed/upgrade state machine — plus the DynamicSession serving
 * extensions it rides on (serveBatchDegraded, compile coalescing and
 * failed-compile eviction), warm-ups on the compile pool and the JIT
 * cache's behavior under serving load.
 *
 * tests/golden/serve_replay.txt pins two cold replays of the perfbench
 * serve_mix tenant mix: every response's virtual timing, rung and
 * bucket. A change to how buckets compile or report their service time
 * that keeps behaviour keeps the file. Regenerate deliberately with
 * `ASTITCH_UPDATE_GOLDEN=1 ctest -R ServeReplayGolden`.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "core/astitch_backend.h"
#include "runtime/dynamic_session.h"
#include "runtime/jit_cache.h"
#include "serve/router.h"
#include "support/logging.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/common.h"

namespace astitch {
namespace {

using serve::BatchKey;
using serve::BatchPolicy;
using serve::LatencyRecorder;
using serve::MicroBatcher;
using serve::Request;
using serve::Response;
using serve::RouterOptions;
using serve::ServeResult;
using serve::ServeRouter;
using serve::ShedReason;
using serve::TenantSpec;
using serve::TokenBucket;
using serve::TrafficOptions;

GraphTemplate
softmaxTemplate(std::int64_t cols = 64)
{
    return [cols](const std::vector<std::int64_t> &dims) {
        return testing::buildSoftmax(dims.at(0), cols);
    };
}

BackendFactory
astitchFactory()
{
    return [] { return std::make_unique<AStitchBackend>(); };
}

/** One serving tenant over the softmax template. */
TenantSpec
softmaxTenant(const std::string &name, const std::string &model,
              double rate_qps, std::int64_t min_items,
              std::int64_t max_items, double admit_qps = 0.0)
{
    TenantSpec spec;
    spec.name = name;
    spec.model = model;
    spec.graph = softmaxTemplate();
    spec.rate_qps = rate_qps;
    spec.min_items = min_items;
    spec.max_items = max_items;
    spec.admit_qps = admit_qps;
    return spec;
}

RouterOptions
routerOptions()
{
    RouterOptions options;
    options.backend = astitchFactory();
    options.batch.max_batch = 2;
    options.batch.max_delay_us = 2000.0;
    return options;
}

/** A hand-built request (arrival order = id order expected by run()). */
Request
request(std::int64_t id, int tenant, std::int64_t items,
        double arrival_us)
{
    Request r;
    r.id = id;
    r.tenant = tenant;
    r.items = items;
    r.arrival_us = arrival_us;
    return r;
}

// ---------------------------------------------------------------------
// Traffic generation.
// ---------------------------------------------------------------------

TEST(ServeTraffic, TraceIsSeedDeterministic)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 500.0, 8, 64),
        softmaxTenant("b", "m", 300.0, 16, 32),
    };
    TrafficOptions options;
    options.seed = 7;
    options.duration_us = 100000.0;
    const std::vector<Request> first = generateTrace(tenants, options);
    const std::vector<Request> second = generateTrace(tenants, options);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(traceFingerprint(first), traceFingerprint(second));
    EXPECT_NE(traceFingerprint(first), 0u);

    options.seed = 8;
    const std::vector<Request> other = generateTrace(tenants, options);
    EXPECT_NE(traceFingerprint(first), traceFingerprint(other));
}

TEST(ServeTraffic, TraceIsSortedDenseAndInRange)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 400.0, 8, 64),
        softmaxTenant("b", "m", 200.0, 16, 32),
    };
    TrafficOptions options;
    options.seed = 3;
    options.duration_us = 200000.0;
    const std::vector<Request> trace = generateTrace(tenants, options);
    ASSERT_FALSE(trace.empty());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Request &r = trace[i];
        EXPECT_EQ(r.id, static_cast<std::int64_t>(i)); // dense ids
        if (i > 0) {
            EXPECT_GE(r.arrival_us, trace[i - 1].arrival_us);
        }
        EXPECT_GE(r.arrival_us, 0.0);
        EXPECT_LT(r.arrival_us, options.duration_us);
        ASSERT_TRUE(r.tenant == 0 || r.tenant == 1);
        const TenantSpec &spec =
            tenants[static_cast<std::size_t>(r.tenant)];
        EXPECT_GE(r.items, spec.min_items);
        EXPECT_LE(r.items, spec.max_items);
    }
}

TEST(ServeTraffic, MaxRequestsCapsTheTrace)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 1000.0, 8, 8)};
    TrafficOptions options;
    options.seed = 1;
    options.duration_us = 1e6;
    options.max_requests = 10;
    EXPECT_EQ(generateTrace(tenants, options).size(), 10u);
}

// ---------------------------------------------------------------------
// Admission control.
// ---------------------------------------------------------------------

TEST(ServeAdmission, TokenBucketAdmitsBurstThenSheds)
{
    // 100 qps, burst 2: the bucket starts full.
    TokenBucket bucket(100.0, 2.0);
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0)); // burst exhausted
    // 100 qps = one token per 10000 us.
    EXPECT_FALSE(bucket.tryAcquire(5000.0));
    EXPECT_TRUE(bucket.tryAcquire(20000.0)); // ~2 tokens accrued
    EXPECT_FALSE(bucket.tryAcquire(20000.0));
}

TEST(ServeAdmission, TokenBucketRefillCapsAtBurst)
{
    TokenBucket bucket(100.0, 2.0);
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    // A long idle period refills to the burst cap, not beyond.
    EXPECT_NEAR(bucket.available(1e9), 2.0, 1e-9);
    EXPECT_TRUE(bucket.tryAcquire(1e9));
    EXPECT_TRUE(bucket.tryAcquire(1e9));
    EXPECT_FALSE(bucket.tryAcquire(1e9));
}

TEST(ServeAdmission, ZeroRateDisablesLimiting)
{
    TokenBucket bucket(0.0, 1.0);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(bucket.tryAcquire(0.0));
}

// ---------------------------------------------------------------------
// Micro-batching.
// ---------------------------------------------------------------------

TEST(ServeBatcher, SizeWatermarkFiresAtMaxBatch)
{
    BatchPolicy policy;
    policy.max_batch = 3;
    MicroBatcher batcher(policy);
    BatchKey key;
    key.bucket = {64};
    EXPECT_EQ(batcher.enqueue(key, request(0, 0, 30, 0.0)),
              MicroBatcher::Enqueue::Queued);
    EXPECT_EQ(batcher.enqueue(key, request(1, 0, 20, 1.0)),
              MicroBatcher::Enqueue::Queued);
    EXPECT_EQ(batcher.enqueue(key, request(2, 0, 10, 2.0)),
              MicroBatcher::Enqueue::Watermark);
    const std::vector<Request> batch = batcher.take(key);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 0); // oldest first
    EXPECT_EQ(batch[2].id, 2);
    EXPECT_TRUE(batcher.empty());
}

TEST(ServeBatcher, DeadlineWatermarkAndKeyOrder)
{
    BatchPolicy policy;
    policy.max_batch = 8;
    policy.max_delay_us = 1000.0;
    MicroBatcher batcher(policy);
    EXPECT_EQ(batcher.nextDeadlineUs(),
              std::numeric_limits<double>::infinity());
    BatchKey early, late;
    early.bucket = {32};
    late.bucket = {64};
    batcher.enqueue(late, request(0, 0, 40, 500.0));
    batcher.enqueue(early, request(1, 0, 20, 100.0));
    // Earliest deadline across queues: 100 + 1000.
    EXPECT_DOUBLE_EQ(batcher.nextDeadlineUs(), 1100.0);
    EXPECT_TRUE(batcher.expired(1000.0).empty());
    const std::vector<BatchKey> due = batcher.expired(1600.0);
    ASSERT_EQ(due.size(), 2u);
    EXPECT_TRUE(due[0] == early); // key order, not arrival order
    EXPECT_TRUE(due[1] == late);
}

TEST(ServeBatcher, QueueCapRejects)
{
    BatchPolicy policy;
    policy.max_batch = 10;
    policy.max_queue = 2;
    MicroBatcher batcher(policy);
    BatchKey key;
    key.bucket = {64};
    EXPECT_EQ(batcher.enqueue(key, request(0, 0, 1, 0.0)),
              MicroBatcher::Enqueue::Queued);
    EXPECT_EQ(batcher.enqueue(key, request(1, 0, 1, 0.0)),
              MicroBatcher::Enqueue::Queued);
    EXPECT_EQ(batcher.enqueue(key, request(2, 0, 1, 0.0)),
              MicroBatcher::Enqueue::Rejected);
    EXPECT_EQ(batcher.depth(key), 2u);
}

// ---------------------------------------------------------------------
// Latency statistics.
// ---------------------------------------------------------------------

TEST(ServeStats, NearestRankPercentiles)
{
    LatencyRecorder recorder;
    EXPECT_DOUBLE_EQ(recorder.percentile(99.0), 0.0); // empty
    for (int i = 1; i <= 100; ++i)
        recorder.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(recorder.percentile(50.0), 50.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(99.0), 99.0);
    EXPECT_DOUBLE_EQ(recorder.percentile(100.0), 100.0);
    EXPECT_DOUBLE_EQ(recorder.mean(), 50.5);
}

// ---------------------------------------------------------------------
// DynamicSession serving extensions (compile coalescing, failed-compile
// eviction, degraded-serve semantics).
// ---------------------------------------------------------------------

TEST(ServeDynamicSession, ConcurrentWarmupsCoalesceIntoOneCompile)
{
    // Racing profile() + serveBatch() callers for one bucket must share
    // a single compilation (the bucket-future single-flight).
    DynamicSession session(softmaxTemplate(), astitchFactory());
    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&session] { session.profile({64, 64}); });
    for (int i = 0; i < 2; ++i)
        threads.emplace_back(
            [&session] { session.serveBatch({64, 64}); });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(session.numCompiledBuckets(), 1);
}

TEST(ServeDynamicSession, CrossSessionCompilesSingleFlightViaJitCache)
{
    // Two sessions over the same template with the shared JIT cache:
    // concurrent serves must produce exactly one compilation — the
    // second caller either joins the in-flight one or hits the cache.
    JitCache::global().clear();
    DynamicSessionOptions options;
    options.session.use_jit_cache = true;
    DynamicSession a(softmaxTemplate(96), astitchFactory(), options);
    DynamicSession b(softmaxTemplate(96), astitchFactory(), options);
    std::thread ta([&a] { a.serveBatch({48, 96}); });
    std::thread tb([&b] { b.serveBatch({48, 96}); });
    ta.join();
    tb.join();
    const JitCache::Stats stats = JitCache::global().stats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_GE(stats.hits + stats.coalesced, 1);
    JitCache::global().clear();
}

TEST(ServeDynamicSession, FailedWarmupIsEvictedAndRetried)
{
    // A compilation that throws must evict its bucket future so the
    // next request retries instead of consuming a poisoned future
    // forever.
    auto failures = std::make_shared<std::atomic<int>>(1);
    GraphTemplate flaky =
        [failures](const std::vector<std::int64_t> &dims) {
            if (failures->fetch_sub(1) > 0)
                throw std::runtime_error("transient build failure");
            return testing::buildSoftmax(dims.at(0), dims.at(1));
        };
    DynamicSession session(std::move(flaky), astitchFactory());
    EXPECT_THROW(session.serveBatch({32, 32}), std::runtime_error);
    EXPECT_EQ(session.numCompiledBuckets(), 0);
    // The failed future is gone, so the retry compiles cleanly.
    const DynamicSession::BatchServe serve = session.serveBatch({32, 32});
    EXPECT_FALSE(serve.degraded);
    EXPECT_EQ(session.numCompiledBuckets(), 1);
}

TEST(ServeDynamicSession, DegradedServeAndUpgradeHook)
{
    DynamicSession session(softmaxTemplate(), astitchFactory());

    // The loop-fusion twin serves immediately, flagged degraded, and
    // never touches the full bucket's lifecycle.
    const DynamicSession::BatchServe degraded =
        session.serveBatchDegraded({64, 64});
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.level, LadderLevel::LoopFusion);
    EXPECT_GT(degraded.report.end_to_end_us, 0.0);
    EXPECT_EQ(session.numFallbackBuckets(), 1);
    EXPECT_EQ(session.numCompiledBuckets(), 0);

    // A second degraded serve reuses the twin.
    session.serveBatchDegraded({64, 64});
    EXPECT_EQ(session.numFallbackBuckets(), 1);
    EXPECT_EQ(session.numCompiledBuckets(), 0);

    // A full serve lands the full bucket, which serves full-stitch
    // from then on.
    const DynamicSession::BatchServe full = session.serveBatch({64, 64});
    EXPECT_EQ(session.numCompiledBuckets(), 1);
    EXPECT_EQ(session.numFallbackBuckets(), 1);
    EXPECT_FALSE(full.degraded);
    EXPECT_EQ(full.level, LadderLevel::FullStitch);
    // The twin is cheaper than the full-stitch compile by design;
    // execution-wise the full-stitch plan must not be slower than the
    // kernel-per-op-ish twin for this memory-intensive graph.
    EXPECT_LE(full.report.end_to_end_us,
              degraded.report.end_to_end_us * 1.5);
}

TEST(ServeJitCache, EvictionUnderServingLoadKeepsHoldersAlive)
{
    // Serving holds cache entries as shared_ptr: an eviction must not
    // invalidate an in-use compilation, and the next request for the
    // evicted key recompiles exactly once (single-flight), repopulating
    // the cache.
    JitCache cache(1);
    std::atomic<int> compiles{0};
    const auto compile = [&compiles] {
        ++compiles;
        JitCacheEntry entry;
        entry.compiled.resize(1);
        return entry;
    };
    const JitCache::EntryPtr held = cache.getOrCompile("alpha", compile);
    ASSERT_TRUE(held);
    EXPECT_EQ(compiles.load(), 1);

    cache.getOrCompile("beta", compile); // capacity 1: evicts alpha
    EXPECT_EQ(compiles.load(), 2);
    EXPECT_FALSE(cache.lookup("alpha"));
    // The evicted holder still serves.
    EXPECT_EQ(held->compiled.size(), 1u);

    // Recompile of the evicted key is deduped across racing servers.
    std::atomic<int> slow_compiles{0};
    std::vector<std::thread> threads;
    std::vector<JitCache::EntryPtr> entries(4);
    for (int i = 0; i < 4; ++i)
        threads.emplace_back([&cache, &slow_compiles, &entries, i] {
            entries[static_cast<std::size_t>(i)] = cache.getOrCompile(
                "alpha", [&slow_compiles] {
                    ++slow_compiles;
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                    return JitCacheEntry{};
                });
        });
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(slow_compiles.load(), 1);
    for (const JitCache::EntryPtr &entry : entries)
        EXPECT_TRUE(entry);
    EXPECT_TRUE(cache.lookup("alpha")); // repopulated
}

// ---------------------------------------------------------------------
// Router end-to-end.
// ---------------------------------------------------------------------

TEST(ServeRouterTest, EveryRequestServedOrShedWithReason)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 400.0, 8, 64),
        softmaxTenant("b", "m", 200.0, 16, 32, /*admit_qps=*/100.0),
    };
    TrafficOptions traffic;
    traffic.seed = 11;
    traffic.duration_us = 150000.0;
    const std::vector<Request> trace = generateTrace(tenants, traffic);
    ServeRouter router(tenants, routerOptions());
    const ServeResult result = router.run(trace);

    ASSERT_EQ(result.responses.size(), trace.size());
    EXPECT_EQ(result.served + result.shed,
              static_cast<std::int64_t>(trace.size()));
    for (const Response &r : result.responses) {
        if (r.shed) {
            EXPECT_NE(r.reason, ShedReason::None);
        } else {
            EXPECT_GT(r.done_us, 0.0);
            EXPECT_GE(r.start_us, r.arrival_us);
            EXPECT_GE(r.latency_us, 0.0);
            EXPECT_GE(r.padded_items, r.batch_items);
        }
    }
    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_EQ(result.tenants[0].name, "a");
    EXPECT_GT(result.tenants[0].served, 0);
}

TEST(ServeRouterTest, ReplayIsDeterministic)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 500.0, 8, 64),
        softmaxTenant("b", "m", 250.0, 16, 32),
    };
    TrafficOptions traffic;
    traffic.seed = 21;
    traffic.duration_us = 100000.0;
    const std::vector<Request> trace = generateTrace(tenants, traffic);

    ServeRouter first(tenants, routerOptions());
    ServeRouter second(tenants, routerOptions());
    const ServeResult a = first.run(trace);
    const ServeResult b = second.run(trace);
    EXPECT_EQ(a.trace_fingerprint, b.trace_fingerprint);
    EXPECT_EQ(a.batch_fingerprint, b.batch_fingerprint);
    EXPECT_NE(a.batch_fingerprint, 0u);
    EXPECT_EQ(a.total_batches, b.total_batches);
    ASSERT_EQ(a.responses.size(), b.responses.size());
    for (std::size_t i = 0; i < a.responses.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.responses[i].latency_us,
                         b.responses[i].latency_us);
        EXPECT_EQ(a.responses[i].degraded, b.responses[i].degraded);
    }
}

TEST(ServeRouterTest, CompileStormShedsDegradedThenUpgrades)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 100.0, 64, 64)};
    RouterOptions options = routerOptions();
    options.batch.max_batch = 1; // every request is its own batch
    options.shed_wait_threshold_us = 1.0;

    // Request 0 arrives cold: its full bucket cannot be ready within
    // the shed threshold, so it must be answered from the loop-fusion
    // twin. Request 1 arrives long after any virtual compile cost, so
    // the same bucket must have upgraded to full-stitch service.
    const std::vector<Request> trace = {
        request(0, 0, 64, 0.0),
        request(1, 0, 64, 1e7),
    };
    ServeRouter router(tenants, options);
    const ServeResult result = router.run(trace);

    EXPECT_TRUE(result.responses[0].degraded);
    EXPECT_EQ(result.responses[0].level, LadderLevel::LoopFusion);
    EXPECT_FALSE(result.responses[1].degraded);
    EXPECT_EQ(result.responses[1].level, LadderLevel::FullStitch);
    EXPECT_EQ(result.degraded_serves, 1);
    EXPECT_EQ(result.compiled_twin, 1);
    EXPECT_EQ(result.upgraded_buckets, 1);
    EXPECT_GE(result.hook_upgrades, 1);
    // The degraded answer landed immediately (inside the threshold
    // regime), not after the full compile's virtual cost.
    EXPECT_LT(result.responses[0].latency_us,
              result.last_full_ready_us);
}

TEST(ServeRouterTest, SheddingOffMakesColdRequestsWait)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 100.0, 64, 64)};
    RouterOptions options = routerOptions();
    options.batch.max_batch = 1;
    options.load_shedding = false;
    const std::vector<Request> trace = {request(0, 0, 64, 0.0)};
    ServeRouter router(tenants, options);
    const ServeResult result = router.run(trace);
    EXPECT_FALSE(result.responses[0].degraded);
    EXPECT_EQ(result.degraded_serves, 0);
    EXPECT_EQ(result.compiled_twin, 0);
    // The request waited out the whole virtual compile.
    EXPECT_GE(result.responses[0].latency_us, serve::kColdCompileCost.base_us);
}

TEST(ServeRouterTest, WarmupEliminatesColdStartAndDegradation)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 300.0, 16, 64)};
    RouterOptions options = routerOptions();
    options.shed_wait_threshold_us = 1.0;
    TrafficOptions traffic;
    traffic.seed = 5;
    traffic.duration_us = 100000.0;
    const std::vector<Request> trace = generateTrace(tenants, traffic);

    ServeRouter cold(tenants, options);
    const ServeResult cold_result = cold.run(trace);

    ServeRouter warm(tenants, options);
    const std::vector<std::int64_t> hot = warm.hotBucketItems(0);
    EXPECT_FALSE(hot.empty());
    warm.warmupTenant(0, hot);
    const ServeResult warm_result = warm.run(trace);

    EXPECT_GT(cold_result.degraded_serves, 0);
    EXPECT_EQ(warm_result.degraded_serves, 0);
    EXPECT_EQ(warm_result.last_full_ready_us, 0.0);
    // Warm per-request latency never exceeds cold (same trace, no
    // compile waits, no degraded detours).
    ASSERT_EQ(warm_result.responses.size(), cold_result.responses.size());
    for (std::size_t i = 0; i < warm_result.responses.size(); ++i) {
        if (!warm_result.responses[i].shed &&
            !cold_result.responses[i].shed) {
            EXPECT_LE(warm_result.responses[i].latency_us,
                      cold_result.responses[i].latency_us + 1e-6);
        }
    }
}

#ifdef __linux__
/** The AStitch backend, recording the kernel thread id of every
 * cluster compile. */
class TidRecordingBackend : public AStitchBackend
{
  public:
    struct Log
    {
        std::mutex mutex;
        std::set<pid_t> tids;
    };

    explicit TidRecordingBackend(std::shared_ptr<Log> log)
        : log_(std::move(log))
    {
    }

    CompiledCluster compileCluster(const Graph &graph,
                                   const Cluster &cluster,
                                   const GpuSpec &spec) const override
    {
        {
            std::lock_guard<std::mutex> lock(log_->mutex);
            log_->tids.insert(::gettid());
        }
        return AStitchBackend::compileCluster(graph, cluster, spec);
    }

  private:
    std::shared_ptr<Log> log_;
};

/** Kernel thread ids of every thread this process has right now. */
std::set<pid_t>
liveThreadIds()
{
    std::set<pid_t> tids;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task"))
        tids.insert(static_cast<pid_t>(
            std::stol(entry.path().filename().string())));
    return tids;
}

TEST(ServeRouterTest, WarmupCompilesOnThreadsThatAlreadyExist)
{
    // A warm-up compiles on its caller and the process-wide compile
    // pool. Once a first warm-up has grown the pool, later warm-ups
    // start no thread: every compile runs on a thread that existed.
    const auto log = std::make_shared<TidRecordingBackend::Log>();
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 100.0, 8, 64)};
    RouterOptions options = routerOptions();
    options.backend = [log] {
        return std::make_unique<TidRecordingBackend>(log);
    };
    // No JIT cache and no artifact dir, so every router compiles every
    // bucket itself.
    options.session.compile_threads = 4;
    options.session.use_jit_cache = false;
    options.session.artifact_cache_dir.clear();

    ServeRouter priming(tenants, options);
    const std::vector<std::int64_t> hot = priming.hotBucketItems(0);
    ASSERT_GT(hot.size(), 1u);
    priming.warmupTenant(0, hot);
    const std::set<pid_t> existing = liveThreadIds();
    {
        std::lock_guard<std::mutex> lock(log->mutex);
        ASSERT_FALSE(log->tids.empty());
        log->tids.clear();
    }

    for (int round = 0; round < 3; ++round) {
        ServeRouter router(tenants, options);
        router.warmupTenant(0, router.hotBucketItems(0));
        EXPECT_EQ(router.session(0).numCompiledBuckets(),
                  static_cast<int>(hot.size()));
    }
    std::lock_guard<std::mutex> lock(log->mutex);
    ASSERT_FALSE(log->tids.empty());
    for (pid_t tid : log->tids)
        EXPECT_EQ(existing.count(tid), 1u)
            << "a warm-up compiled on new thread " << tid;
}
#endif

TEST(ServeRouterTest, TenantsSharingAModelCoalesceCompilations)
{
    // Two tenants of one model, batches landing in the same executed
    // bucket back to back: the second fire must not be charged a second
    // full compilation.
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 100.0, 64, 64),
        softmaxTenant("b", "m", 100.0, 64, 64),
    };
    RouterOptions options = routerOptions();
    options.batch.max_batch = 1;
    options.shed_wait_threshold_us = 1e9; // never shed: join instead
    const std::vector<Request> trace = {
        request(0, 0, 64, 0.0),
        request(1, 1, 64, 100.0),
    };
    ServeRouter router(tenants, options);
    const ServeResult result = router.run(trace);
    EXPECT_EQ(result.compiled_full, 1);
    EXPECT_EQ(result.coalesced_joins, 2); // both waited on one compile
    // Both answered at the shared virtual ready time (plus executor
    // serialization), neither degraded.
    EXPECT_FALSE(result.responses[0].degraded);
    EXPECT_FALSE(result.responses[1].degraded);
}

TEST(ServeRouterTest, AdmissionShedsOnlyTheBurstyTenant)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("greedy", "m", 2000.0, 8, 8, /*admit_qps=*/100.0),
        softmaxTenant("polite", "m", 100.0, 8, 8),
    };
    TrafficOptions traffic;
    traffic.seed = 9;
    traffic.duration_us = 100000.0;
    const std::vector<Request> trace = generateTrace(tenants, traffic);
    ServeRouter router(tenants, routerOptions());
    const ServeResult result = router.run(trace);
    ASSERT_EQ(result.tenants.size(), 2u);
    EXPECT_GT(result.tenants[0].shed_admission, 0);
    EXPECT_EQ(result.tenants[1].shed, 0);
}

TEST(ServeRouterTest, StatsJsonCarriesTheSchema)
{
    const std::vector<TenantSpec> tenants = {
        softmaxTenant("a", "m", 200.0, 16, 64)};
    TrafficOptions traffic;
    traffic.seed = 2;
    traffic.duration_us = 50000.0;
    ServeRouter router(tenants, routerOptions());
    const ServeResult result =
        router.run(generateTrace(tenants, traffic));
    ASSERT_EQ(result.tenants.size(), 1u);
    const std::string json = tenantStatsJson(result.tenants[0]);
    for (const char *field :
         {"\"tenant\":", "\"p50_us\":", "\"p99_us\":", "\"qps\":",
          "\"degraded_serves\":", "\"avg_occupancy\":"})
        EXPECT_NE(json.find(field), std::string::npos) << field;
}

// ---------------------------------------------------------------------
// Golden replay of the perfbench serve_mix tenant mix.
// ---------------------------------------------------------------------

/** The serve_mix tenants: two BERT tenants sharing a model, DIEN and
 * ASR, with no admission cap. */
std::vector<TenantSpec>
serveMixTenants()
{
    const std::vector<workloads::DynamicWorkloadSpec> dynamic =
        workloads::dynamicInferenceWorkloads();
    const auto tenant = [&dynamic](const std::string &model,
                                   const std::string &name, double rate_qps,
                                   std::int64_t min_items,
                                   std::int64_t max_items) {
        const auto it =
            std::find_if(dynamic.begin(), dynamic.end(),
                         [&](const auto &wl) { return wl.name == model; });
        if (it == dynamic.end())
            throw std::runtime_error("dynamic workload " + model +
                                     " missing");
        TenantSpec spec;
        spec.name = name;
        spec.model = it->name;
        spec.graph = it->build;
        spec.dim_name = it->dim_name;
        spec.divisor = it->divisor;
        spec.rate_qps = rate_qps;
        spec.min_items = min_items;
        spec.max_items = max_items;
        spec.admit_qps = 0.0;
        spec.admit_burst = 8.0;
        return spec;
    };
    return {
        tenant("BERT", "bert-a", 400.0, 50, 100),
        tenant("BERT", "bert-b", 150.0, 50, 100),
        tenant("DIEN", "dien", 300.0, 36, 72),
        tenant("ASR", "asr", 250.0, 50, 100),
    };
}

void
fnv1a(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

void
fnv1a(std::uint64_t &hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    fnv1a(hash, bits);
}

std::string
hex64(std::uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

/** One golden line: a cold replay of one second of serve_mix traffic
 * from @p seed, with empty JIT caches and no artifact directory. */
std::string
serveMixReplayLine(std::uint64_t seed)
{
    const std::vector<TenantSpec> tenants = serveMixTenants();
    TrafficOptions traffic;
    traffic.seed = seed;
    traffic.duration_us = 1e6;
    const std::vector<Request> trace = generateTrace(tenants, traffic);

    RouterOptions options;
    options.backend = astitchFactory();
    options.batch.max_batch = 4;
    options.batch.max_delay_us = 3000.0;
    options.load_shedding = true;
    options.session.use_jit_cache = true;
    // Four threads per compile, as perfbench pins them on a 4-core
    // host, so every bucket compile fans out on the compile pool.
    options.session.compile_threads = 4;

    JitCache::global().clear();
    ServeRouter router(tenants, options);
    const ServeResult result = router.run(trace);
    JitCache::global().clear();

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (const Response &r : result.responses) {
        fnv1a(digest, r.start_us);
        fnv1a(digest, r.done_us);
        fnv1a(digest, static_cast<std::uint64_t>(r.degraded));
        fnv1a(digest, static_cast<std::uint64_t>(r.level));
        fnv1a(digest, static_cast<std::uint64_t>(r.bucket.size()));
        for (std::int64_t dim : r.bucket)
            fnv1a(digest, static_cast<std::uint64_t>(dim));
        fnv1a(digest, static_cast<std::uint64_t>(r.batch_size));
        fnv1a(digest, static_cast<std::uint64_t>(r.padded_items));
    }
    return strCat("seed=", seed, " requests=", result.responses.size(),
                  " batches=", result.total_batches,
                  " trace=", hex64(result.trace_fingerprint),
                  " batch=", hex64(result.batch_fingerprint),
                  " compiled_full=", result.compiled_full,
                  " compiled_twin=", result.compiled_twin,
                  " coalesced_joins=", result.coalesced_joins,
                  " upgraded_buckets=", result.upgraded_buckets,
                  " responses=", hex64(digest), "\n");
}

TEST(ServeReplayGolden, ServeMixReplayMatchesGolden)
{
    // Seeds 112 and 113 are the first two cold replays of
    // `perfbench/run.py --workload serve_mix --seed 7`.
    std::string text;
    for (std::uint64_t seed : {112u, 113u})
        text += serveMixReplayLine(seed);

    const char *path = ASTITCH_SOURCE_DIR "/tests/golden/serve_replay.txt";
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
        << "serve replay drifted from " << path
        << " — if intentional, regenerate with ASTITCH_UPDATE_GOLDEN=1";
}

} // namespace
} // namespace astitch
