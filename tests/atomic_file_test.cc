/**
 * @file
 * Tests of the shared crash-safe file primitives: checksums and the
 * envelope hash, atomic
 * publish, quarantine, orphan temp files and the advisory inter-process
 * file lock (support/atomic_file.h).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <memory>
#include <string>

#include <unistd.h>

#include "support/atomic_file.h"

namespace astitch {
namespace {

std::string
tmpPath(const std::string &name)
{
    const std::string path =
        ::testing::TempDir() + "astitch_atomic_" + name;
    ::unlink(path.c_str());
    ::unlink((path + ".bad").c_str());
    return path;
}

TEST(Checksum64, SensitiveToEveryByte)
{
    const std::string base = "the quick brown fox";
    const std::uint64_t want = checksum64(base);
    EXPECT_EQ(checksum64(base), want); // stable
    EXPECT_EQ(checksum64(base.data(), base.size()), want);
    for (std::size_t i = 0; i < base.size(); ++i) {
        std::string flipped = base;
        flipped[i] = static_cast<char>(flipped[i] ^ 0x01);
        EXPECT_NE(checksum64(flipped), want) << "flip at " << i;
    }
    EXPECT_NE(checksum64(std::string()), checksum64(std::string(1, '\0')));
}

TEST(Hash64, KnownAnswers)
{
    // Artifact envelopes carry these values: a change here is a
    // kArtifactFormatVersion bump.
    std::string ramp;
    for (int i = 0; i < 100; ++i)
        ramp.push_back(static_cast<char>(i));
    EXPECT_EQ(hash64(std::string()), 0xacc6f32f4544bea9ULL);
    EXPECT_EQ(hash64(std::string("a")), 0x0661fe53578d77e4ULL);
    EXPECT_EQ(hash64(std::string("the quick brown fox")),
              0x0a64b4c01e1fb75cULL);
    EXPECT_EQ(hash64(ramp), 0xfb593cc9dd0317feULL);
    EXPECT_EQ(hash64(ramp.data(), ramp.size()), hash64(ramp));
}

TEST(Hash64, EveryBitFlipAndTruncationOfA4KiBBufferChangesIt)
{
    std::string base(4096, '\0');
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    for (char &c : base) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        c = static_cast<char>(state);
    }
    const std::uint64_t want = hash64(base);
    std::string flipped = base;
    for (std::size_t i = 0; i < base.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            flipped[i] = static_cast<char>(base[i] ^ (1 << bit));
            ASSERT_NE(hash64(flipped), want) << "byte " << i << " bit " << bit;
        }
        flipped[i] = base[i];
    }
    for (std::size_t size = 0; size < base.size(); ++size)
        ASSERT_NE(hash64(base.data(), size), want) << "truncated to " << size;
}

TEST(AtomicFile, MissingFileIsAbsentNotError)
{
    std::string out = "sentinel";
    EXPECT_EQ(readFileBytes(tmpPath("missing"), &out),
              FileReadStatus::Absent);
    EXPECT_TRUE(out.empty());
}

TEST(AtomicFile, WriteReadRoundTripIncludingBinary)
{
    const std::string path = tmpPath("roundtrip");
    std::string bytes = "header";
    bytes.push_back('\0');
    bytes += "\x01\xff tail";
    ASSERT_TRUE(atomicWriteFile(path, bytes));

    std::string out;
    ASSERT_EQ(readFileBytes(path, &out), FileReadStatus::Ok);
    EXPECT_EQ(out, bytes);

    // Overwrite publishes the new content whole.
    ASSERT_TRUE(atomicWriteFile(path, "v2"));
    ASSERT_EQ(readFileBytes(path, &out), FileReadStatus::Ok);
    EXPECT_EQ(out, "v2");

    // The temp sibling must not survive a successful publish.
    std::string tmp_probe;
    EXPECT_EQ(readFileBytes(path + ".tmp." +
                                std::to_string(::getpid()),
                            &tmp_probe),
              FileReadStatus::Absent);
}

TEST(AtomicFile, OrphanTempNeverShadowsThePath)
{
    const std::string path = tmpPath("orphan");
    // A process that died between temp-write and rename leaves exactly
    // this: garbage under a .tmp.<pid> name, nothing at the real path.
    {
        std::ofstream orphan(path + ".tmp.424242", std::ios::binary);
        orphan << "half-written garbage";
    }
    std::string out;
    EXPECT_EQ(readFileBytes(path, &out), FileReadStatus::Absent);

    // The next publish is unaffected by the orphan.
    ASSERT_TRUE(atomicWriteFile(path, "fresh"));
    ASSERT_EQ(readFileBytes(path, &out), FileReadStatus::Ok);
    EXPECT_EQ(out, "fresh");
    ::unlink((path + ".tmp.424242").c_str());
}

TEST(AtomicFile, QuarantineMovesEvidenceAside)
{
    const std::string path = tmpPath("quarantine");
    ASSERT_TRUE(atomicWriteFile(path, "corrupt-evidence"));

    const std::string bad = quarantineFile(path);
    EXPECT_EQ(bad, path + ".bad");

    // The original is gone (a fresh publish sees a clean miss), the
    // sidecar holds the untouched evidence.
    std::string out;
    EXPECT_EQ(readFileBytes(path, &out), FileReadStatus::Absent);
    ASSERT_EQ(readFileBytes(bad, &out), FileReadStatus::Ok);
    EXPECT_EQ(out, "corrupt-evidence");

    // Quarantining a missing file reports failure without throwing.
    EXPECT_EQ(quarantineFile(path), "");
}

TEST(FileLock, ExcludesSecondHolderUntilRelease)
{
    const std::string path = tmpPath("lock");
    auto first = std::make_unique<FileLock>(path, 1000.0);
    ASSERT_TRUE(first->locked());

    // flock is per open-file-description, so a second open in the same
    // process contends exactly like another process would.
    {
        FileLock second(path, 60.0);
        EXPECT_FALSE(second.locked());
    }

    first.reset(); // release
    FileLock third(path, 60.0);
    EXPECT_TRUE(third.locked());
}

TEST(FileLock, TimeoutIsBounded)
{
    const std::string path = tmpPath("lock_timeout");
    FileLock holder(path, 1000.0);
    ASSERT_TRUE(holder.locked());

    const auto start = std::chrono::steady_clock::now();
    FileLock waiter(path, 100.0);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_FALSE(waiter.locked());
    EXPECT_GE(elapsed_ms, 90.0);
    EXPECT_LT(elapsed_ms, 5000.0);
}

} // namespace
} // namespace astitch
