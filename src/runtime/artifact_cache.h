/**
 * @file
 * Crash-safe persistent kernel-artifact cache (the disk tier).
 *
 * The paper amortizes JIT cost across iterations of one process (Sec
 * 6.4.1); the in-memory JitCache extends that across sessions. This
 * cache extends it across *processes and restarts*: a finished
 * compilation — clusters, kernel plans, diagnostics, degradation,
 * timings, tuning — is persisted under its full compilation key, and a
 * warm process restores it for the price of a read + re-verification
 * instead of a compile.
 *
 * Trust model: the disk is hostile. Files get truncated by full disks,
 * bit-flipped by failing media, half-written by crashes, replaced by
 * other builds, and racing processes contend on them. Every artifact
 * is therefore framed by plan_serde's checksummed envelope, decoded by
 * a hardened reader, structurally validated against the live graph,
 * and finally *re-verified by the plan analyzer* before it is served —
 * a stored plan is never trusted, only re-proven. Every failure mode
 * degrades to a clean in-memory recompile with an AS62x diagnostic:
 *
 *   AS620 note     artifact served (re-verified) from disk
 *   AS621 warning  integrity failure (quarantined to `*.bad`)
 *   AS622 note     version skew / foreign key (clean miss)
 *   AS623 warning  checksums passed, decode failed (quarantined)
 *   AS624 warning  analyzer re-verification rejected (quarantined)
 *   AS625 warning  file-lock timeout (disk tier skipped)
 *   AS626 warning  store failure (compilation kept, uncached)
 *
 * Concurrency: a per-key advisory FileLock (bounded timeout) gives
 * cross-process single-flight — one process compiles, the rest find
 * its artifact when the lock frees. Publishes go through
 * atomicWriteFile, so readers never observe a torn artifact even
 * without the lock. Degraded compilations are never stored, and a
 * degraded artifact (hand-planted or foreign) is never served.
 *
 * Fault injection: `cache-read-corrupt`, `cache-write-fail` and
 * `cache-lock-timeout` fire inside acquire()/publish() so CI can prove
 * each disk failure path degrades instead of crashing.
 */
#ifndef ASTITCH_RUNTIME_ARTIFACT_CACHE_H
#define ASTITCH_RUNTIME_ARTIFACT_CACHE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/jit_cache.h"
#include "support/atomic_file.h"

namespace astitch {

/** Counter snapshot of one ArtifactCache instance. */
struct ArtifactCacheStats
{
    std::int64_t disk_hits = 0;       ///< served (verified) from disk
    std::int64_t disk_misses = 0;     ///< no artifact on disk (clean)
    std::int64_t corrupt = 0;         ///< AS621 integrity failures
    std::int64_t version_skew = 0;    ///< AS622 foreign version/key
    std::int64_t decode_failed = 0;   ///< AS623 deserialize failures
    std::int64_t verify_rejected = 0; ///< AS624 analyzer rejections
    std::int64_t lock_timeouts = 0;   ///< AS625 disk tier skipped
    std::int64_t stores = 0;          ///< artifacts published
    std::int64_t store_failures = 0;  ///< AS626 publish failures
};

/** One artifact file as seen by the inspection scan. */
struct ArtifactFileInfo
{
    std::string file;         ///< file name within the cache dir
    std::string key;          ///< embedded compilation key ("" unreadable)
    std::uint64_t bytes = 0;  ///< file size
    std::string status;       ///< artifactStatusName() of self-inspection
    bool quarantined = false; ///< a `*.bad` sidecar, not a live artifact
};

/** The on-disk artifact tier beneath the in-memory JitCache. */
class ArtifactCache
{
  public:
    /**
     * @p dir is created (recursively) if absent. @p lock_timeout_ms
     * bounds how long acquire() waits on another process's compile
     * before giving up on the disk tier.
     */
    explicit ArtifactCache(std::string dir,
                           double lock_timeout_ms = 10000.0);

    /**
     * Outcome of acquire(). Exactly one of three shapes:
     *   - entry != nullptr: a verified artifact was restored; its
     *     timings carry artifact_load/verify spans (compile passes 0).
     *   - entry == nullptr, lock held: the caller must compile and
     *     then publish() with this lease (cross-process single-flight).
     *   - entry == nullptr, lock_timed_out: skip the disk tier —
     *     compile in memory, do not publish.
     */
    struct Lease
    {
        std::shared_ptr<JitCacheEntry> entry;
        std::unique_ptr<FileLock> lock;
        bool lock_timed_out = false;
    };

    /**
     * Try to restore the compilation for @p compile_key, re-verifying
     * any artifact found with every analyzer family over (@p graph,
     * @p spec) before serving it. AS62x events are reported into
     * @p events (may be null). Never throws for disk reasons; injected
     * faults at the cache-* sites are absorbed into their matching
     * failure paths.
     */
    Lease acquire(const std::string &compile_key, const Graph &graph,
                  const GpuSpec &spec, DiagnosticEngine *events);

    /**
     * Persist @p entry for @p compile_key under @p lease's lock.
     * Degraded compilations are skipped (never stored); a missing or
     * timed-out lock skips too. Returns true when an artifact landed
     * on disk.
     */
    bool publish(const Lease &lease, const std::string &compile_key,
                 const JitCacheEntry &entry, DiagnosticEngine *events);

    /** Full key an artifact for @p compile_key embeds (adds the
     * serde pass version, so semantic bumps miss cleanly). */
    static std::string artifactKey(const std::string &compile_key);

    /** Path of the artifact file for @p compile_key. */
    std::string filePathFor(const std::string &compile_key) const;

    /** Scan the cache dir: live artifacts, orphan temps excluded,
     * quarantined sidecars flagged. Sorted by file name. */
    std::vector<ArtifactFileInfo> scan() const;

    /** Delete every artifact, lock and quarantine file in the dir.
     * Returns the number of files removed. */
    int clear();

    const std::string &dir() const { return dir_; }
    const ArtifactCacheStats &stats() const { return stats_; }

  private:
    std::string dir_;
    double lock_timeout_ms_;
    ArtifactCacheStats stats_;
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_ARTIFACT_CACHE_H
