/**
 * @file
 * Unit tests for the support library: logging, strings, rng, and the
 * thread pool behind the parallel JIT pipeline.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <vector>

#include "support/logging.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace astitch {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad input ", 42), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("invariant ", "violated"), PanicError);
}

TEST(Logging, FatalMessageContainsArgs)
{
    try {
        fatal("shape ", 12, " is bad");
        FAIL() << "fatal did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "shape 12 is bad");
    }
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatalIf(false, "nope"));
    EXPECT_THROW(fatalIf(true, "yes"), FatalError);
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panicIf(false, "nope"));
    EXPECT_THROW(panicIf(true, "yes"), PanicError);
}

TEST(Logging, FatalErrorIsNotPanicError)
{
    // The two error classes must stay distinguishable: fatal is a user
    // error, panic is a library bug.
    try {
        fatal("user error");
    } catch (const PanicError &) {
        FAIL() << "fatal threw PanicError";
    } catch (const FatalError &) {
        SUCCEED();
    }
}

TEST(Strings, StrCatConcatenatesMixedTypes)
{
    EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(Strings, StrJoinWithSeparator)
{
    std::vector<int> v{1, 2, 3};
    EXPECT_EQ(strJoin(v, ","), "1,2,3");
}

TEST(Strings, StrJoinEmptyRange)
{
    std::vector<int> v;
    EXPECT_EQ(strJoin(v, ","), "");
}

TEST(Strings, StrSplitBasic)
{
    auto parts = strSplit("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(strStartsWith("stitch_bert", "stitch_"));
    EXPECT_FALSE(strStartsWith("xla_bert", "stitch_"));
    EXPECT_FALSE(strStartsWith("st", "stitch_"));
}

TEST(Strings, FixedAndPad)
{
    EXPECT_EQ(strFixed(3.14159, 2), "3.14");
    EXPECT_EQ(strPad("ab", 5), "   ab");
    EXPECT_EQ(strPad("abcdef", 3), "abcdef");
}

TEST(Strings, JsonEscapeQuotesBackslashNewlineAndTab)
{
    EXPECT_EQ(jsonEscape("plain %1 <cluster>"), "plain %1 <cluster>");
    EXPECT_EQ(jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(3, 9);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 9);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(17);
    EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

// ---------------------------------------------------------------------
// ThreadPool / parallelFor
// ---------------------------------------------------------------------

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        std::vector<std::atomic<int>> counts(257);
        parallelFor(threads, counts.size(),
                    [&](std::size_t i) { counts[i].fetch_add(1); });
        for (const auto &c : counts)
            EXPECT_EQ(c.load(), 1);
    }
}

TEST(ThreadPool, ParallelForZeroAndOneIndices)
{
    int calls = 0;
    parallelFor(8, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    parallelFor(8, 1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, PoolIsReusableAcrossParallelFors)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);
    std::atomic<int> total{0};
    for (int round = 0; round < 3; ++round)
        parallelFor(pool, 100, [&](std::size_t) { total.fetch_add(1); });
    EXPECT_EQ(total.load(), 300);
}

TEST(ThreadPool, LowestIndexExceptionWinsDeterministically)
{
    for (int threads : {1, 2, 8}) {
        try {
            parallelFor(threads, 64, [](std::size_t i) {
                if (i == 7 || i == 40)
                    fatal("boom at ", i);
            });
            FAIL() << "parallelFor did not rethrow";
        } catch (const FatalError &e) {
            EXPECT_STREQ(e.what(), "boom at 7");
        }
    }
}

TEST(ThreadPool, ExceptionStillRunsRemainingIndices)
{
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(4, 32,
                             [&](std::size_t i) {
                                 ran.fetch_add(1);
                                 if (i == 0)
                                     panic("first fails");
                             }),
                 PanicError);
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitRunsDetachedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 10; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(ran.load(), 10);
}

TEST(ThreadPool, ResolveCompileThreadsHonorsRequestAndFloor)
{
    EXPECT_EQ(resolveCompileThreads(3), 3);
    EXPECT_EQ(resolveCompileThreads(1), 1);
    EXPECT_GE(resolveCompileThreads(0), 1);
    EXPECT_GE(resolveCompileThreads(-5), 1);
}

TEST(ThreadPool, ResolveCompileThreadsReadsEnv)
{
    ::setenv("ASTITCH_COMPILE_THREADS", "6", 1);
    EXPECT_EQ(resolveCompileThreads(0), 6);
    EXPECT_EQ(resolveCompileThreads(2), 2); // explicit beats env
    ::setenv("ASTITCH_COMPILE_THREADS", "bogus", 1);
    EXPECT_GE(resolveCompileThreads(0), 1);
    ::unsetenv("ASTITCH_COMPILE_THREADS");
}

} // namespace
} // namespace astitch
