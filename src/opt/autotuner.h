/**
 * @file
 * Cost-model-guided stitching autotuner.
 *
 * The heuristic pipeline (Sec 4) makes every scheme and thread-mapping
 * decision locally; the paper's Ansor case study (Sec 6.2) concedes that
 * search-based compilers sometimes find better points in exactly this
 * space. The autotuner searches the joint space per cluster:
 *
 *   - stitch-scheme assignment for every classified boundary value
 *     (Regional <-> Global, subject to the locality/atomics legality
 *     rules of locality_check and the sanitizer/verifier gate), and
 *   - thread-mapping overrides per group (block-size budgets for task
 *     packing, split factors for task splitting).
 *
 * Search: beam search over decision sites in deterministic order,
 * optionally followed by evolutionary mutation rounds (Full mode),
 * scored end-to-end by the analytical cost model over the emitted
 * plans. Every candidate is recompiled through the real pipeline and
 * must pass the analyzer gate (every family of analysis/analyzer.h,
 * the set Session runs on shipped plans) before it is scored, so
 * the tuner can never pick a plan the heuristic path would reject —
 * and it keeps the heuristic plan unless a candidate is strictly
 * cheaper.
 *
 * Determinism contract: same (graph, cluster, spec, options, seed,
 * candidate budget, DB snapshot) => bit-identical decision, regardless
 * of thread count or wall-clock. Scoring never reads the clock; ties
 * break lexicographically on the decision vector. The optional
 * time_budget_ms truncates the search by wall-clock and is the one
 * knob that trades this guarantee for latency (search_ms is always
 * reporting-only).
 */
#ifndef ASTITCH_OPT_AUTOTUNER_H
#define ASTITCH_OPT_AUTOTUNER_H

#include <functional>
#include <optional>

#include "core/stitch_codegen.h"

namespace astitch {

/** How much tuning a session performs. */
enum class TuningMode {
    Off,    ///< pure heuristics (the default)
    Seeded, ///< beam search seeded at the heuristic plan
    Full,   ///< Seeded + evolutionary mutation rounds
};

/** Budget and reproducibility knobs for the search. */
struct TuningOptions
{
    TuningMode mode = TuningMode::Off;

    /** Beam width (surviving states per decision site). */
    int beam_width = 4;

    /** Hard cap on candidate compilations per cluster (the
     * deterministic budget knob). <= 0 disables tuning. */
    int max_candidates = 64;

    /** Mutation rounds appended in Full mode. */
    int generations = 2;

    /**
     * Optional wall-clock cap per cluster in ms; 0 = none. Truncating
     * by time trades the cross-run determinism guarantee for latency.
     */
    double time_budget_ms = 0.0;

    /** Seed for the Full-mode mutation RNG (mixed with the cluster
     * fingerprint, so clusters explore independently). */
    std::uint64_t seed = 0x5eed5eed5eed5eedULL;

    /** Tuning DB file (runtime/tuning_db.h); empty = none. The session
     * opens it, looks entries up and records results; the search never
     * reads it. */
    std::string db_path;

    /**
     * Test hook: observes every candidate evaluation with its
     * overrides, compiled plans, gate verdict and cost (cost is only
     * meaningful when legal). Must be thread-safe if the session
     * compiles clusters in parallel.
     */
    std::function<void(const TuningOverrides &overrides,
                       const CompiledCluster &compiled, bool legal,
                       double cost_us)>
        observer;
};

/** Per-cluster outcome, reported through RunReport. */
struct ClusterTuningResult
{
    std::uint64_t fingerprint = 0;

    /** Cost-model estimate of the heuristic plan (us). */
    double heuristic_cost_us = 0.0;

    /** Cost-model estimate of the chosen plan (== heuristic when the
     * search found nothing strictly better). */
    double tuned_cost_us = 0.0;

    int candidates_evaluated = 0;

    /** Candidates the analyzer gate rejected. */
    int candidates_rejected = 0;

    /** True when the chosen plan strictly beats the heuristic. */
    bool improved = false;

    /** True when the decision came from the tuning DB (no search). */
    bool db_hit = false;

    /** Search wall-clock (reporting only; never feeds decisions). */
    double search_ms = 0.0;

    /** The decisions imposed; empty means the pure heuristic plan. */
    TuningOverrides decision;
};

/**
 * One stored decision set for one (cluster, device, options) key, the
 * unit the tuning DB (runtime/tuning_db.h) persists. Decisions are
 * recorded in cluster-local node indices (positions in Cluster::nodes),
 * the same canonical space `clusterFingerprint` hashes, so they
 * transfer to any graph containing the same subgraph shape.
 */
struct TuningDbEntry
{
    std::string key;

    /** Cost-model estimate of the heuristic plan when tuned (us). */
    double heuristic_cost_us = 0.0;

    /** Cost-model estimate of the stored decisions' plan (us). */
    double tuned_cost_us = 0.0;

    /** True when the stored decisions beat the heuristic plan. */
    bool improved = false;

    /** The decisions, keyed by cluster-local node index; empty means
     * the heuristic plan. */
    TuningOverrides decision;
};

/** The tuner's answer for one cluster. */
struct AutotuneOutcome
{
    CompiledCluster compiled;
    ClusterTuningResult result;

    /**
     * The decision a search settled on, for the caller to store under
     * its DB key (left empty here). Unset when no search ran: tuning
     * off, a stored decision replayed, or a failure.
     */
    std::optional<TuningDbEntry> to_record;
};

/** Session-level aggregate, carried by RunReport / JitCacheEntry. */
struct TuningReport
{
    bool enabled = false;
    std::vector<ClusterTuningResult> clusters;

    int improvedCount() const
    {
        int n = 0;
        for (const ClusterTuningResult &r : clusters)
            n += r.improved ? 1 : 0;
        return n;
    }
    int dbHitCount() const
    {
        int n = 0;
        for (const ClusterTuningResult &r : clusters)
            n += r.db_hit ? 1 : 0;
        return n;
    }
    double totalHeuristicUs() const
    {
        double t = 0;
        for (const ClusterTuningResult &r : clusters)
            t += r.heuristic_cost_us;
        return t;
    }
    double totalTunedUs() const
    {
        double t = 0;
        for (const ClusterTuningResult &r : clusters)
            t += r.tuned_cost_us;
        return t;
    }
    double totalSearchMs() const
    {
        double t = 0;
        for (const ClusterTuningResult &r : clusters)
            t += r.search_ms;
        return t;
    }
};

/**
 * Cost-model estimate of one compiled cluster: every kernel priced on
 * @p spec (device time + launch overhead) plus its memcpy/memset
 * activities. The tuner's objective function; deterministic.
 */
double estimatedClusterCostUs(const Graph &graph,
                              const CompiledCluster &compiled,
                              const GpuSpec &spec);

/** The options tag identifying a pipeline configuration in DB keys. */
std::string tuningOptionsTag(const AStitchOptions &options);

/**
 * Tune one cluster. @p heuristic is the pipeline's untuned compilation
 * of the same cluster (the seed and the fallback); @p base carries the
 * pipeline configuration candidates compile under. @p stored, when
 * non-null, is the tuning DB's entry for this cluster: it is replayed
 * with one verifying compile, and only searched past when that fails.
 * Never throws: any candidate failure rejects that candidate, any
 * unexpected failure returns the heuristic plan.
 */
AutotuneOutcome autotuneCluster(const Graph &graph, const Cluster &cluster,
                                const GpuSpec &spec,
                                const AStitchOptions &base,
                                const CompiledCluster &heuristic,
                                const TuningOptions &options,
                                const TuningDbEntry *stored = nullptr);

} // namespace astitch

#endif // ASTITCH_OPT_AUTOTUNER_H
