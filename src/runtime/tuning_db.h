/**
 * @file
 * Persistent autotuning database.
 *
 * Tuned per-cluster decisions survive the process: entries
 * (TuningDbEntry, opt/autotuner.h) are keyed by (cluster fingerprint,
 * device, pipeline-options tag, pass version) and stored as one file in
 * plan_serde's checksummed envelope, so JitCache/DynamicSession users —
 * and the `astitch-cli tune` subcommand — reuse search results across
 * sessions instead of re-running the beam. The file is binary, like
 * the artifacts; `astitch-cli tune` prints every decision.
 *
 * Versioning: a `kPassVersion` bump (any pipeline/cost-model change
 * that invalidates stored decisions) changes every key, so stale
 * entries simply miss. Any unusable file — truncated, bit-flipped, a
 * foreign or older envelope, bytes that do not decode — degrades to an
 * empty DB with a warning: tuning then searches from scratch; it never
 * crashes the compile. Such a file is quarantined to a `*.bad` sidecar
 * and saves publish crash-safely (temp + fsync + atomic rename)
 * through support/atomic_file, the same recovery path the AOT artifact
 * cache uses. A path that cannot be read at all (a directory, say)
 * also loads as an empty DB with a warning, but is left in place.
 *
 * Determinism: lookups only ever see the load-time snapshot; results
 * recorded during a run are buffered and merged at save() time. Tuning
 * outcomes therefore do not depend on the order concurrent cluster
 * compiles finish in.
 */
#ifndef ASTITCH_RUNTIME_TUNING_DB_H
#define ASTITCH_RUNTIME_TUNING_DB_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "opt/autotuner.h"

namespace astitch {

/** Thread-safe, snapshot-isolated tuning database. */
class TuningDb
{
  public:
    /**
     * Version of the tuning pipeline whose decisions this build
     * records. Bump whenever the search space, cost model or override
     * semantics change incompatibly; old entries then miss by key.
     */
    static constexpr int kPassVersion = 1;

    /**
     * On-disk container format version, part of the envelope key. v2
     * moved the DB from a JSON text file into plan_serde's envelope.
     */
    static constexpr int kFileVersion = 2;

    /**
     * Key for one tuned cluster: fingerprint + device + an options tag
     * (the caller encodes the AStitchOptions that shape the pipeline)
     * + pass version.
     */
    static std::string makeKey(std::uint64_t cluster_fingerprint,
                               const std::string &device_name,
                               const std::string &options_tag);

    /** Load the DB file at @p path; an absent file is an empty DB. */
    explicit TuningDb(std::string path);

    /** Snapshot lookup; nullptr on miss. Counts hit/miss stats. */
    const TuningDbEntry *lookup(const std::string &key) const;

    /** Buffer a result for the next save(); does not affect lookups. */
    void record(TuningDbEntry entry);

    /**
     * Merge buffered results into the snapshot (buffered wins, ties
     * deduped by key) and rewrite the file. Returns false (with a
     * warning) when the file cannot be written.
     */
    bool save();

    struct Stats
    {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::size_t entries = 0;  ///< snapshot size
        std::size_t pending = 0;  ///< recorded, not yet saved
        bool load_failed = false; ///< file existed but was unusable
    };
    Stats stats() const;

  private:
    std::string path_;
    bool load_failed_ = false;

    mutable std::mutex mutex_;
    mutable std::int64_t hits_ = 0;
    mutable std::int64_t misses_ = 0;

    /** Load-time snapshot, ordered by key (stable file output). */
    std::map<std::string, TuningDbEntry> snapshot_;

    /** Results recorded this run, merged at save(). */
    std::vector<TuningDbEntry> pending_;
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_TUNING_DB_H
