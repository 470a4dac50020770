/**
 * @file
 * Degradation accounting for fault-tolerant compilation.
 *
 * When a cluster fails to compile, the session walks it down a fallback
 * ladder instead of failing the whole graph:
 *
 *   0  FullStitch   the configured backend, unchanged
 *   1  LocalOnly    loop fusion + adaptive thread mappings (Regional /
 *                   Global stitching disabled — no shared-memory arena,
 *                   no device-wide barriers)
 *   2  LoopFusion   plain loop fusion, naive thread mappings
 *   3  KernelPerOp  one kernel per operator; total by construction
 *
 * Every demotion and retry is recorded here so callers can tell a clean
 * compile from a degraded-but-successful one: the session keeps a
 * DegradationReport, the JIT cache stores one per entry (so a degraded
 * entry is never mistaken for a full-stitch compilation), and the CLI
 * prints it on stderr while still exiting 0.
 */
#ifndef ASTITCH_RUNTIME_DEGRADATION_H
#define ASTITCH_RUNTIME_DEGRADATION_H

#include <string>
#include <vector>

namespace astitch {

/** Rung of the per-cluster fallback ladder (ordered best to worst). */
enum class LadderLevel {
    FullStitch = 0,
    LocalOnly = 1,
    LoopFusion = 2,
    KernelPerOp = 3,
};

/** Stable printable name ("full-stitch", "local-only", ...). */
const char *ladderLevelName(LadderLevel level);

/** How one cluster's compilation ended up. */
struct ClusterDegradation
{
    /** The rung the cluster finally compiled at. */
    LadderLevel level = LadderLevel::FullStitch;

    /** Transient-fault retries spent (across all rungs). */
    int retries = 0;

    /** One entry per demotion: "<from-level>: <what failed>". */
    std::vector<std::string> causes;

    bool degraded() const
    {
        return level != LadderLevel::FullStitch || retries > 0;
    }
};

/** Aggregate degradation state of one compilation / session. */
struct DegradationReport
{
    /** Parallel to the compiled cluster list. */
    std::vector<ClusterDegradation> clusters;

    /** Cluster identification itself failed; singleton fallback used. */
    bool clustering_fallback = false;

    /** Parallel compilation failed at the task layer; recompiled
     * serially. */
    bool serial_fallback = false;

    /** Publishing to the JIT cache failed; entry used uncached.
     * Session-scoped (a lost publish leaves nothing to cache). */
    bool cache_bypassed = false;

    /** Transient-fault retries spent outside any cluster body
     * (clustering, the parallel section, cache publish). */
    int session_retries = 0;

    /** Anything at all to report? */
    bool degraded() const;

    /** Worst rung across all clusters. */
    LadderLevel maxLevel() const;

    /** Number of clusters that landed below FullStitch. */
    int numDegradedClusters() const;

    /** Total transient retries (cluster + session scope). */
    int totalRetries() const;

    /** Human-readable multi-line summary ("" when not degraded). */
    std::string renderText() const;

    /** JSON object (always valid, even when clean). */
    std::string renderJson() const;
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_DEGRADATION_H
