/**
 * @file
 * Crash-safe file primitives shared by every persistent store.
 *
 * Both on-disk stores in this codebase — the autotuner's tuning DB and
 * the AOT kernel-artifact cache — face the same failure model: a
 * process can die mid-write, a disk can truncate or bit-rot a file, and
 * two processes can race on one path. This module centralizes the one
 * tested recovery path they share:
 *
 *   - atomicWriteFile(): write-to-temp + fsync(file) + rename + (best
 *     effort) fsync(directory). Readers never observe a half-written
 *     file: they see the old content or the new content, nothing else.
 *     A crash between temp-write and rename leaves only a `*.tmp.<pid>`
 *     orphan that no reader ever opens.
 *   - readFileBytes(): whole-file read that distinguishes "absent"
 *     from "unreadable".
 *   - quarantineFile(): a corrupt file is renamed to a `*.bad` sidecar
 *     — never deleted (the evidence survives for inspection), never
 *     re-read (the store recovers from scratch), and never able to
 *     poison the next atomic publish.
 *   - checksum64(): the FNV-1a checksum the artifact cache names its
 *     files by.
 *   - hash64(): the word-at-a-time hash the artifact envelope detects
 *     truncation and bit-rot with.
 *   - FileLock: an advisory (flock) inter-process lock with a bounded
 *     acquisition timeout, for cross-process single-flight semantics.
 */
#ifndef ASTITCH_SUPPORT_ATOMIC_FILE_H
#define ASTITCH_SUPPORT_ATOMIC_FILE_H

#include <cstdint>
#include <string>

namespace astitch {

/** FNV-1a 64-bit checksum of @p size bytes at @p data. */
std::uint64_t checksum64(const void *data, std::size_t size);

/** FNV-1a 64-bit checksum of a byte string. */
std::uint64_t checksum64(const std::string &bytes);

/**
 * Word-at-a-time 64-bit hash of @p size bytes at @p data. Four
 * independent lanes each absorb one little-endian 8-byte word per step
 * over 32-byte stripes; the words after the last stripe, then the last
 * 1-7 bytes zero-padded into one word, enter the merged state one at a
 * time, and the length enters before them. Every step is a bijection
 * of its state for a fixed word and of its word for a fixed state, so
 * two inputs of one length that differ only within one of the 8-byte
 * words read are always told apart. Not cryptographic: it detects rot
 * and truncation, not an adversary. Artifact envelopes carry its
 * values, so changing it is a kArtifactFormatVersion bump.
 */
std::uint64_t hash64(const void *data, std::size_t size);

/** hash64() of a byte string. */
std::uint64_t hash64(const std::string &bytes);

/** Outcome of a whole-file read. */
enum class FileReadStatus {
    Ok,       ///< contents returned
    Absent,   ///< the path does not exist (a clean miss)
    Error,    ///< the path exists but could not be read
};

/**
 * Read the whole file at @p path into @p out. Distinguishes a missing
 * file (Absent — the caller's clean-miss path) from an I/O failure on
 * an existing file (Error — the caller's corruption path).
 */
FileReadStatus readFileBytes(const std::string &path, std::string *out);

/**
 * Crash-safely replace the file at @p path with @p bytes: the data is
 * written to a unique sibling temp file, fsync'd, and atomically
 * renamed over @p path (then the directory entry is fsync'd, best
 * effort). On any failure the temp file is removed and @p path is left
 * untouched. Returns false (with a warning) on failure; never throws.
 */
bool atomicWriteFile(const std::string &path, const std::string &bytes);

/**
 * Move the (presumed corrupt) file at @p path aside to a `<path>.bad`
 * sidecar, overwriting any previous sidecar, so the store can publish
 * a fresh file while the evidence survives for inspection. Returns the
 * sidecar path, or "" when nothing could be moved.
 */
std::string quarantineFile(const std::string &path);

/**
 * Advisory inter-process lock on `<path>` (the lock file is created if
 * absent and holds no data). Acquisition polls flock(LOCK_EX|LOCK_NB)
 * until it succeeds or @p timeout_ms elapses; locked() reports which.
 * The lock releases on destruction (and, by flock semantics, on any
 * process death — a crashed holder never wedges the next process).
 * Advisory only: correctness of concurrent publishes rests on
 * atomicWriteFile(); the lock exists to dedupe work, not to guard it.
 */
class FileLock
{
  public:
    FileLock(const std::string &path, double timeout_ms);
    ~FileLock();

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** True when the lock was acquired within the timeout. */
    bool locked() const { return locked_; }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
    bool locked_ = false;
};

} // namespace astitch

#endif // ASTITCH_SUPPORT_ATOMIC_FILE_H
