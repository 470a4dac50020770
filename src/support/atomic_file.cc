#include "support/atomic_file.h"

#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

std::uint64_t
checksum64(const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::uint64_t
checksum64(const std::string &bytes)
{
    return checksum64(bytes.data(), bytes.size());
}

namespace {

// Odd multipliers: multiplying by one is a bijection modulo 2^64.
constexpr std::uint64_t kMul1 = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMul2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kMul3 = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kSeed = 0x27d4eb2f165667c5ULL;

/** The 8 bytes at @p p as a little-endian word. */
std::uint64_t
loadWord(const unsigned char *p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    if constexpr (std::endian::native == std::endian::big)
        word = __builtin_bswap64(word);
    return word;
}

/** One lane step: add the scaled word, rotate, scale. */
std::uint64_t
absorb(std::uint64_t lane, std::uint64_t word)
{
    return std::rotl(lane + word * kMul2, 31) * kMul1;
}

/** One step of the merged state. */
std::uint64_t
fold(std::uint64_t h, std::uint64_t word)
{
    return std::rotl(h ^ absorb(0, word), 27) * kMul1 + kMul3;
}

} // namespace

std::uint64_t
hash64(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t left = size;
    std::uint64_t h = kSeed;
    if (left >= 32) {
        std::uint64_t a = kSeed + kMul1;
        std::uint64_t b = kSeed ^ kMul2;
        std::uint64_t c = kSeed;
        std::uint64_t d = kSeed - kMul3;
        do {
            a = absorb(a, loadWord(p));
            b = absorb(b, loadWord(p + 8));
            c = absorb(c, loadWord(p + 16));
            d = absorb(d, loadWord(p + 24));
            p += 32;
            left -= 32;
        } while (left >= 32);
        h = std::rotl(a, 1) + std::rotl(b, 7) + std::rotl(c, 12) +
            std::rotl(d, 18);
    }
    h += size;
    for (; left >= 8; p += 8, left -= 8)
        h = fold(h, loadWord(p));
    if (left > 0) {
        std::uint64_t word = 0;
        for (std::size_t i = 0; i < left; ++i)
            word |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        h = fold(h, word);
    }
    h ^= h >> 33;
    h *= kMul2;
    h ^= h >> 29;
    h *= kMul3;
    h ^= h >> 32;
    return h;
}

std::uint64_t
hash64(const std::string &bytes)
{
    return hash64(bytes.data(), bytes.size());
}

FileReadStatus
readFileBytes(const std::string &path, std::string *out)
{
    out->clear();
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return errno == ENOENT ? FileReadStatus::Absent
                               : FileReadStatus::Error;
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return FileReadStatus::Error;
    }
    // Read straight into the result, sized by fstat; the spare byte
    // tells a file that grew since from one that did not.
    std::string bytes(static_cast<std::size_t>(st.st_size) + 1, '\0');
    std::size_t got = 0;
    for (;;) {
        if (got == bytes.size())
            bytes.resize(2 * bytes.size());
        const ssize_t n =
            ::read(fd, bytes.data() + got, bytes.size() - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            return FileReadStatus::Error;
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    ::close(fd);
    bytes.resize(got);
    *out = std::move(bytes);
    return FileReadStatus::Ok;
}

namespace {

/** Directory component of @p path ("." when none). */
std::string
dirnameOf(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    return slash == 0 ? "/" : path.substr(0, slash);
}

/** Best-effort fsync of the directory entry holding @p path, so the
 * rename itself survives a power cut on filesystems that need it. */
void
fsyncParentDir(const std::string &path)
{
    const int fd = ::open(dirnameOf(path).c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0)
        return;
    ::fsync(fd);
    ::close(fd);
}

} // namespace

bool
atomicWriteFile(const std::string &path, const std::string &bytes)
{
    // Unique per process: a concurrent writer (or a dead one's orphan)
    // can never be half-overwritten by this write.
    const std::string tmp =
        strCat(path, ".tmp.", static_cast<long long>(::getpid()));

    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("atomic write: cannot create ", tmp, ": ",
             std::strerror(errno));
        return false;
    }
    std::size_t written = 0;
    bool ok = true;
    while (written < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + written,
                                  bytes.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            ok = false;
            break;
        }
        written += static_cast<std::size_t>(n);
    }
    // fsync before rename: the rename must never publish a file whose
    // data blocks are still only in the page cache.
    if (ok && ::fsync(fd) != 0)
        ok = false;
    if (::close(fd) != 0)
        ok = false;
    if (!ok) {
        warn("atomic write: short write or fsync failure on ", tmp, ": ",
             std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("atomic write: cannot publish ", path, ": ",
             std::strerror(errno));
        ::unlink(tmp.c_str());
        return false;
    }
    fsyncParentDir(path);
    return true;
}

std::string
quarantineFile(const std::string &path)
{
    const std::string bad = path + ".bad";
    // Overwrite any previous sidecar: the latest corruption is the one
    // worth inspecting, and an un-renamable corrupt file must never
    // block recovery.
    if (::rename(path.c_str(), bad.c_str()) != 0) {
        if (errno != ENOENT)
            warn("cannot quarantine ", path, ": ", std::strerror(errno));
        return {};
    }
    fsyncParentDir(path);
    return bad;
}

FileLock::FileLock(const std::string &path, double timeout_ms) : path_(path)
{
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0) {
        warn("file lock: cannot open ", path, ": ", std::strerror(errno));
        return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration<double, std::milli>(timeout_ms);
    for (;;) {
        if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
            locked_ = true;
            return;
        }
        if (errno != EWOULDBLOCK && errno != EINTR) {
            warn("file lock: flock on ", path, " failed: ",
                 std::strerror(errno));
            return;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return; // timeout: locked_ stays false
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

FileLock::~FileLock()
{
    if (fd_ >= 0) {
        if (locked_)
            ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

} // namespace astitch
