/**
 * @file
 * Unit tests for the support library: logging, strings, rng, and the
 * thread pool behind the parallel JIT pipeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <ostream>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "graph/shape_inference.h"
#include "sim/cost_model.h"
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

/** An enum that prints through its own operator<<. */
enum class Flavour { Sweet };

std::ostream &
operator<<(std::ostream &os, Flavour)
{
    return os << "sweet";
}

TEST(Strings, StrCatPrintsIntegerExtremes)
{
    EXPECT_EQ(strCat(std::numeric_limits<std::int64_t>::min()),
              "-9223372036854775808");
    EXPECT_EQ(strCat(SIZE_MAX), "18446744073709551615");
    EXPECT_EQ(strCat(-42, "/", 0), "-42/0");
    EXPECT_EQ(strJoin(std::vector<std::int64_t>{INT64_MIN, -1, INT64_MAX},
                      ","),
              "-9223372036854775808,-1,9223372036854775807");
}

TEST(Strings, StrCatAppendsCharTypesAsCharacters)
{
    EXPECT_EQ(strCat('a', static_cast<signed char>('b'),
                     static_cast<unsigned char>('c')),
              "abc");
    EXPECT_EQ(strJoin(std::vector<char>{'x', 'y'}, "+"), "x+y");
}

TEST(Strings, StrCatPrintsBoolAsDigit)
{
    EXPECT_EQ(strCat(true, false), "10");
}

TEST(Strings, StrCatPrintsDoublesAtStreamDefaults)
{
    EXPECT_EQ(strCat(0.1), "0.1");
    EXPECT_EQ(strCat(1e-7), "1e-07");
    EXPECT_EQ(strCat(123456789.0), "1.23457e+08");
    EXPECT_EQ(strCat(2.0f, " ", -0.5), "2 -0.5");
    EXPECT_EQ(strJoin(std::vector<double>{0.1, 1e-7, 123456789.0}, ", "),
              "0.1, 1e-07, 1.23457e+08");
}

TEST(Strings, StrCatUsesOperatorStreamAndStringViews)
{
    EXPECT_EQ(strCat("[", Flavour::Sweet, "]"), "[sweet]");
    EXPECT_EQ(strCat(std::string_view("view"), std::string("str"), "lit"),
              "viewstrlit");
    EXPECT_EQ(strJoin(std::vector<std::string_view>{"a", "b"}, "::"),
              "a::b");
}

TEST(Strings, StrHexMatchesStdHex)
{
    for (const std::uint64_t value :
         {std::uint64_t{0}, std::uint64_t{255}, std::uint64_t{0xabc0123},
          std::numeric_limits<std::uint64_t>::max()}) {
        std::ostringstream oss;
        oss << std::hex << value;
        EXPECT_EQ(strHex(value), oss.str());
    }
    EXPECT_EQ(strHex(0xdeadbeefULL), "deadbeef");
}

/** The message of the FatalError or PanicError @p check throws. */
template <typename Fn>
std::string
checkMessage(Fn check)
{
    try {
        check();
    } catch (const FatalError &e) {
        return strCat("fatal: ", e.what());
    } catch (const PanicError &e) {
        return strCat("panic: ", e.what());
    }
    return "no error";
}

TEST(CheckMessages, FailingChecksPrintTheirObjects)
{
    EXPECT_EQ(checkMessage([] { Shape{2, -1}; }),
              "fatal: negative dimension in shape [2,-1]");
    EXPECT_EQ(checkMessage([] { Shape{2, 3}.dim(5); }),
              "panic: dim index 5 out of range for [2,3]");
    EXPECT_EQ(checkMessage([] { Shape::broadcast({2, 3}, {4, 3}); }),
              "fatal: shapes [2,3] and [4,3] are not broadcast-compatible");
    EXPECT_EQ(checkMessage([] {
                  inferShape(OpKind::MatMul, {Shape{2, 3}, Shape{4, 5}},
                             NodeAttrs{});
              }),
              "fatal: matmul shape mismatch: [2,3] x [4,5]");
    EXPECT_EQ(checkMessage([] {
                  KernelWorkDesc desc;
                  desc.name = "k";
                  desc.launch.grid = 0;
                  CostModel(GpuSpec::v100()).priceKernel(desc);
              }),
              "fatal: kernel k has empty launch <<<0, 1>>>");
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

#ifdef __linux__
TEST(ThreadPool, ParallelForReusesItsWorkers)
{
    // Every body sleeps, so every helper a call submits claims work.
    // A per-call pool would bring three new threads to each of the 50
    // calls; the shared pool keeps serving them from the same workers.
    std::mutex mutex;
    std::set<pid_t> tids;
    for (int call = 0; call < 50; ++call) {
        parallelFor(4, 32, [&](std::size_t) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
            const pid_t tid = ::gettid();
            std::lock_guard<std::mutex> lock(mutex);
            tids.insert(tid);
        });
    }
    EXPECT_LE(tids.size(), 16u);
}
#endif

TEST(ThreadPool, ConcurrentCallsShareThePool)
{
    // Concurrent callers each see their own indices exactly once and
    // their own lowest-index failure, whatever the others are doing.
    std::atomic<int> failures{0};
    std::vector<std::thread> callers;
    for (int t = 0; t < 8; ++t) {
        callers.emplace_back([&failures, t] {
            for (int call = 0; call < 20; ++call) {
                const bool throws = (call + t) % 2 == 0;
                std::vector<std::atomic<int>> counts(257);
                try {
                    parallelFor(4, counts.size(), [&](std::size_t i) {
                        counts[i].fetch_add(1);
                        if (throws && (i == 5 || i == 9))
                            fatal("boom at ", i);
                    });
                    if (throws)
                        failures.fetch_add(1);
                } catch (const FatalError &e) {
                    if (!throws || std::string(e.what()) != "boom at 5")
                        failures.fetch_add(1);
                }
                for (const auto &c : counts) {
                    if (c.load() != 1)
                        failures.fetch_add(1);
                }
            }
        });
    }
    for (std::thread &caller : callers)
        caller.join();
    EXPECT_EQ(failures.load(), 0);
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

    // Only a whole positive decimal integer counts; a value with a
    // numeric prefix falls back like an unset variable. The prefix is
    // never the fallback's own value.
    const int unset = resolveCompileThreads(0);
    const int n = unset + 3;
    for (const std::string &value :
         {strCat(n, "abc"), strCat(n, ".5"), strCat(n, " threads"),
          strCat("0x", n), strCat(" ", n), strCat("+", n)}) {
        ::setenv("ASTITCH_COMPILE_THREADS", value.c_str(), 1);
        EXPECT_EQ(resolveCompileThreads(0), unset) << "'" << value << "'";
    }
    ::setenv("ASTITCH_COMPILE_THREADS", strCat(n).c_str(), 1);
    EXPECT_EQ(resolveCompileThreads(0), n);
    ::unsetenv("ASTITCH_COMPILE_THREADS");
}

TEST(ThreadPool, ResolveCompileThreadsWarnsOncePerMalformedValue)
{
    // The values differ from every other test's: the record of what was
    // warned about lasts the process.
    const auto warnings = [](const char *value) {
        ::setenv("ASTITCH_COMPILE_THREADS", value, 1);
        ::testing::internal::CaptureStderr();
        resolveCompileThreads(0);
        resolveCompileThreads(0);
        return ::testing::internal::GetCapturedStderr();
    };
    const std::string first = warnings("12x-warn-once");
    const std::string repeat = warnings("12x-warn-once");
    const std::string second = warnings("13x-warn-once");
    ::unsetenv("ASTITCH_COMPILE_THREADS");
    EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 1) << first;
    EXPECT_NE(first.find("'12x-warn-once'"), std::string::npos) << first;
    EXPECT_EQ(repeat, "");
    EXPECT_EQ(std::count(second.begin(), second.end(), '\n'), 1) << second;
    EXPECT_NE(second.find("'13x-warn-once'"), std::string::npos) << second;
}

} // namespace
} // namespace astitch
