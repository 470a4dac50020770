/**
 * @file
 * Tests of the JIT cache: fingerprint sensitivity, LRU behaviour,
 * cross-session reuse, and the concurrency guarantees of
 * getOrCompile() (one compilation per key, no lost entries, no
 * stampedes).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/jit_cache.h"
#include "runtime/session.h"
#include "support/logging.h"
#include "support/strings.h"
#include "test_graphs.h"
#include "workloads/bert.h"
#include "workloads/common.h"

namespace astitch {
namespace {

TEST(Fingerprint, StableForIdenticalGraphs)
{
    Graph a = testing::buildSoftmax(8, 16);
    Graph b = testing::buildSoftmax(8, 16);
    EXPECT_EQ(graphFingerprint(a), graphFingerprint(b));
}

TEST(Fingerprint, SensitiveToShapes)
{
    Graph a = testing::buildSoftmax(8, 16);
    Graph b = testing::buildSoftmax(8, 32);
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));
}

TEST(Fingerprint, SensitiveToOpKind)
{
    Graph a, b;
    {
        GraphBuilder ba(a);
        a.markOutput(ba.tanh(ba.parameter({4})));
        GraphBuilder bb(b);
        b.markOutput(bb.exp(bb.parameter({4})));
    }
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));
}

TEST(Fingerprint, SensitiveToAttrs)
{
    Graph a, b;
    {
        GraphBuilder ba(a);
        a.markOutput(ba.power(ba.parameter({4}), 2.0));
        GraphBuilder bb(b);
        b.markOutput(bb.power(bb.parameter({4}), 3.0));
    }
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));
}

TEST(Fingerprint, SensitiveToConstantValues)
{
    Graph a, b;
    {
        GraphBuilder ba(a);
        a.markOutput(ba.mul(ba.parameter({4}), ba.constantScalar(2.0f)));
        GraphBuilder bb(b);
        b.markOutput(bb.mul(bb.parameter({4}), bb.constantScalar(3.0f)));
    }
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));
}

TEST(Fingerprint, LargeLiteralsDifferingInOneElementHashApart)
{
    // As large as DIEN's behavior_ids constant, whose bytes enter the
    // fingerprint in one pass.
    const std::int64_t elements = 750000;
    const auto build = [&](std::int64_t changed) {
        Tensor literal = Tensor::iota(Shape({elements}));
        if (changed >= 0)
            literal.set(changed, -1.0f);
        Graph graph;
        GraphBuilder b(graph);
        graph.markOutput(b.add(b.parameter({elements}), b.constant(literal)));
        return graph;
    };
    const std::uint64_t base = graphFingerprint(build(-1));
    EXPECT_EQ(graphFingerprint(build(-1)), base);
    const std::int64_t changes[] = {0, 1, elements / 2, elements - 1};
    for (const std::int64_t changed : changes)
        EXPECT_NE(graphFingerprint(build(changed)), base) << changed;
}

TEST(Fingerprint, SensitiveToOutputMarking)
{
    Graph a, b;
    {
        GraphBuilder ba(a);
        NodeId n = ba.tanh(ba.parameter({4}));
        a.markOutput(n);
        GraphBuilder bb(b);
        NodeId m = bb.tanh(bb.parameter({4}));
        b.markOutput(bb.graph().node(m).id());
        b.markOutput(bb.graph().parameters()[0]);
    }
    EXPECT_NE(graphFingerprint(a), graphFingerprint(b));
}

TEST(JitCache, HitAfterInsert)
{
    JitCache cache(4);
    EXPECT_EQ(cache.lookup("k"), nullptr);
    EXPECT_EQ(cache.misses(), 1);
    cache.insert("k", JitCacheEntry{});
    EXPECT_NE(cache.lookup("k"), nullptr);
    EXPECT_EQ(cache.hits(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(JitCache, LruEviction)
{
    JitCache cache(2);
    cache.insert("a", JitCacheEntry{});
    cache.insert("b", JitCacheEntry{});
    // Touch "a" so "b" becomes the eviction victim.
    EXPECT_NE(cache.lookup("a"), nullptr);
    cache.insert("c", JitCacheEntry{});
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(cache.lookup("a"), nullptr);
    EXPECT_EQ(cache.lookup("b"), nullptr);
    EXPECT_NE(cache.lookup("c"), nullptr);
}

TEST(JitCache, ReinsertRefreshes)
{
    JitCache cache(2);
    JitCacheEntry entry;
    entry.clusters.resize(1);
    cache.insert("a", JitCacheEntry{});
    cache.insert("a", std::move(entry));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup("a")->clusters.size(), 1u);
}

TEST(JitCache, KeySeparatesBackendAndDevice)
{
    Graph g = testing::buildSoftmax(8, 16);
    const std::string k1 =
        JitCache::makeKey(g, "xla", GpuSpec::v100());
    const std::string k2 =
        JitCache::makeKey(g, "astitch", GpuSpec::v100());
    const std::string k3 = JitCache::makeKey(g, "xla", GpuSpec::t4());
    EXPECT_NE(k1, k2);
    EXPECT_NE(k1, k3);
}

TEST(JitCache, SessionReusesCompilationAcrossSessions)
{
    JitCache::global().clear();
    Graph g = testing::buildSoftmax(256, 512);
    SessionOptions options;
    options.use_jit_cache = true;

    Session first(g, std::make_unique<AStitchBackend>(), options);
    first.compile();
    EXPECT_EQ(JitCache::global().misses(), 1);
    EXPECT_EQ(JitCache::global().size(), 1u);

    Session second(g, std::make_unique<AStitchBackend>(), options);
    second.compile();
    EXPECT_EQ(JitCache::global().hits(), 1);

    // Cached compilation behaves identically.
    const auto a = first.profile();
    const auto b = second.profile();
    EXPECT_EQ(a.memKernelCount(), b.memKernelCount());
    EXPECT_DOUBLE_EQ(a.end_to_end_us, b.end_to_end_us);
    JitCache::global().clear();
}

TEST(JitCache, KeySeparatesPlanChangingOptions)
{
    // A session whose cluster cap or stitching options differ from a
    // cached default compile must get its own plans, the ones it would
    // compile alone, not the cached compile's.
    struct Variant
    {
        const char *name;
        int max_cluster_nodes;
        AStitchOptions stitch;
    };
    AStitchOptions small_smem;
    small_smem.smem_budget_per_block = 1024;
    AStitchOptions no_atm;
    no_atm.adaptive_thread_mapping = false;
    const Variant variants[] = {
        {"max_cluster_nodes=8", 8, AStitchOptions{}},
        {"smem_budget_per_block=1024", 0, small_smem},
        {"adaptive_thread_mapping=off", 0, no_atm},
    };
    const Graph g = workloads::buildBert();
    for (const Variant &variant : variants) {
        JitCache::global().clear();
        SessionOptions cached;
        cached.use_jit_cache = true;
        Session(g, std::make_unique<AStitchBackend>(), cached).compile();

        cached.max_cluster_nodes = variant.max_cluster_nodes;
        Session second(g, std::make_unique<AStitchBackend>(variant.stitch),
                       cached);
        const RunReport served = second.profile();

        SessionOptions alone;
        alone.max_cluster_nodes = variant.max_cluster_nodes;
        Session fresh(g, std::make_unique<AStitchBackend>(variant.stitch),
                      alone);
        const RunReport expected = fresh.profile();

        EXPECT_EQ(JitCache::global().misses(), 2) << variant.name;
        EXPECT_EQ(served.num_clusters, expected.num_clusters)
            << variant.name;
        EXPECT_EQ(served.memKernelCount(), expected.memKernelCount())
            << variant.name;
        EXPECT_DOUBLE_EQ(served.end_to_end_us, expected.end_to_end_us)
            << variant.name;
    }
    JitCache::global().clear();
}

TEST(JitCache, EntriesAreSharedNotCopied)
{
    JitCache cache(4);
    JitCacheEntry entry;
    entry.clusters.resize(3);
    cache.insert("k", std::move(entry));
    const auto a = cache.lookup("k");
    const auto b = cache.lookup("k");
    // Copy-free: every hit hands out the same immutable entry.
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->clusters.size(), 3u);
}

TEST(JitCache, SharedEntrySurvivesEviction)
{
    JitCache cache(1);
    JitCacheEntry entry;
    entry.clusters.resize(2);
    cache.insert("a", std::move(entry));
    const auto held = cache.lookup("a");
    cache.insert("b", JitCacheEntry{}); // evicts "a"
    EXPECT_EQ(cache.lookup("a"), nullptr);
    EXPECT_EQ(held->clusters.size(), 2u); // still alive for the holder
}

TEST(JitCache, StatsSnapshotIsConsistent)
{
    JitCache cache(4);
    cache.lookup("missing");
    cache.insert("k", JitCacheEntry{});
    cache.lookup("k");
    const JitCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1);
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.coalesced, 0);
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.capacity, 4u);
}

TEST(JitCache, GetOrCompileCompilesOnceThenHits)
{
    JitCache cache(4);
    std::atomic<int> compiles{0};
    auto fn = [&] {
        compiles.fetch_add(1);
        JitCacheEntry entry;
        entry.clusters.resize(1);
        return entry;
    };
    const auto first = cache.getOrCompile("k", fn);
    const auto second = cache.getOrCompile("k", fn);
    EXPECT_EQ(compiles.load(), 1);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.misses(), 1);
    EXPECT_EQ(cache.hits(), 1);
}

TEST(JitCache, GetOrCompileDoesNotCacheFailures)
{
    JitCache cache(4);
    int calls = 0;
    auto failing = [&]() -> JitCacheEntry {
        ++calls;
        fatal("backend exploded");
    };
    EXPECT_THROW(cache.getOrCompile("k", failing), FatalError);
    EXPECT_EQ(cache.size(), 0u);
    // The key is retryable after a failure.
    EXPECT_THROW(cache.getOrCompile("k", failing), FatalError);
    EXPECT_EQ(calls, 2);
    EXPECT_NE(cache.getOrCompile("k", [] { return JitCacheEntry{}; }),
              nullptr);
}

TEST(JitCache, ConcurrentGetOrCompileIsSingleFlightPerKey)
{
    // Many threads hammer overlapping keys; each key must compile
    // exactly once, every caller must receive the key's entry, and no
    // entry may be lost.
    JitCache cache(64);
    constexpr int kKeys = 8;
    constexpr int kThreads = 16;
    std::vector<std::atomic<int>> compiles(kKeys);
    std::atomic<bool> mismatch{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < 40; ++round) {
                const int k = (t + round) % kKeys;
                const auto entry = cache.getOrCompile(
                    strCat("key", k), [&compiles, k] {
                        compiles[k].fetch_add(1);
                        // Widen the in-flight window so stampedes
                        // would actually collide.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                        JitCacheEntry e;
                        e.clusters.resize(
                            static_cast<std::size_t>(k) + 1);
                        return e;
                    });
                if (!entry ||
                    entry->clusters.size() !=
                        static_cast<std::size_t>(k) + 1)
                    mismatch.store(true);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_FALSE(mismatch.load());
    for (const auto &c : compiles)
        EXPECT_EQ(c.load(), 1);
    EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
    const JitCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.misses, kKeys);
    EXPECT_EQ(stats.hits + stats.coalesced + stats.misses,
              kThreads * 40);
}

TEST(JitCache, ConcurrentSessionsShareOneCompilation)
{
    JitCache::global().clear();
    Graph g = testing::buildSoftmax(128, 256);
    SessionOptions options;
    options.use_jit_cache = true;
    options.compile_threads = 1;
    std::vector<std::thread> threads;
    std::atomic<int> kernel_counts{-1};
    std::atomic<bool> divergent{false};
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            Session session(g, std::make_unique<AStitchBackend>(),
                            options);
            const int kernels = session.profile().memKernelCount();
            int expected = -1;
            if (!kernel_counts.compare_exchange_strong(expected,
                                                       kernels) &&
                expected != kernels)
                divergent.store(true);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_FALSE(divergent.load());
    // One compilation total: everyone else hit or joined in flight.
    EXPECT_EQ(JitCache::global().misses(), 1);
    EXPECT_EQ(JitCache::global().size(), 1u);
    JitCache::global().clear();
}

TEST(JitCache, CachedRunStillProducesCorrectValues)
{
    JitCache::global().clear();
    auto f = testing::buildFig7(4, 8);
    const TensorMap feeds{
        {f.param1, Tensor::iota({4, 8})},
        {f.param2, Tensor(Shape{4, 1}, {1, 2, 3, 4})},
    };
    const auto expected = Evaluator(f.graph).run(feeds);
    SessionOptions options;
    options.use_jit_cache = true;
    for (int round = 0; round < 2; ++round) {
        Session session(f.graph, std::make_unique<AStitchBackend>(),
                        options);
        const auto report = session.run(feeds);
        ASSERT_EQ(report.outputs.size(), 1u);
        EXPECT_TRUE(report.outputs[0].allClose(expected[0]));
    }
    EXPECT_EQ(JitCache::global().hits(), 1);
    JitCache::global().clear();
}

} // namespace
} // namespace astitch
