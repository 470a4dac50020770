/**
 * @file
 * Dynamic-shape execution via shape bucketing.
 *
 * Production workloads change tensor shapes between requests (variable
 * batch and sequence lengths) — the motivation behind the authors'
 * follow-on dynamic-shape compiler (DISC/BladeDISC, reference [59]).
 * This session compiles a model *template* per concrete shape signature,
 * reusing compilations through a per-instance bucket cache; optional
 * power-of-two bucketing bounds the number of compilations at the cost
 * of padding.
 *
 * A bucket compiles on the thread that first asks for it. Concurrent
 * callers of the same bucket share that one compilation, and a caller
 * never blocks on a neighbor bucket compiling on another thread — it
 * waits only for its own bucket, so requests that hit already-compiled
 * shapes are served immediately. Warming buckets ahead of traffic is
 * the caller's loop over profile() (ServeRouter::warmupTenant fans it
 * out on the compile pool).
 *
 * With symbolic verification enabled (the default), each bucket's
 * compilation also runs the AS8xx shape-parametric verifier over the
 * bucket's whole rounding range: the dims the bucket serves become
 * declared ShapeDim ranges, the symbolization is cross-checked against
 * a probe instantiation of the template at the range's low endpoint,
 * and a Proven ShapeCertificate lets every later profile() inside the
 * range skip per-shape re-verification (a *certified hit*). When the
 * proof does not close — or the cross-check refutes the symbolization
 * — the bucket degrades to memoized concrete AS7xx re-verification per
 * distinct served shape, reported as an AS831 note, never an error.
 */
#ifndef ASTITCH_RUNTIME_DYNAMIC_SESSION_H
#define ASTITCH_RUNTIME_DYNAMIC_SESSION_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "runtime/session.h"

namespace astitch {

/** Builds the model graph for one concrete binding of dynamic dims. */
using GraphTemplate =
    std::function<Graph(const std::vector<std::int64_t> &dims)>;

/** Creates a fresh backend instance per compiled bucket. */
using BackendFactory = std::function<std::unique_ptr<Backend>()>;

/** Options for dynamic execution. */
struct DynamicSessionOptions
{
    SessionOptions session;

    /**
     * Round each dynamic dim up to the next power of two before
     * compiling, so nearby shapes share one compilation (classic
     * bucketing). The padded graph does at most 2x the work.
     */
    bool bucket_to_power_of_two = false;

    /**
     * Certify each rounded bucket for its whole preimage range with
     * the AS8xx shape-parametric verifier: bucket key 2^k serves
     * (2^(k-1), 2^k], so dim i gets the declared range
     * [max(1, key/2 + 1), key]. Point buckets (rounding disabled) skip
     * the pass — the compile-time AS7xx run already covers the single
     * shape they serve.
     */
    bool symbolic_verify = true;

    /**
     * Names for the dynamic dims, positionally matching the dims
     * vectors passed to profile()/serveBatch(); "d<i>" when absent.
     */
    std::vector<std::string> dim_names;

    /**
     * Granularity of each dynamic dim (positional; 1 when absent):
     * bucket keys round up to a multiple of it, and certificates only
     * claim multiples — for templates that constrain a dim (e.g. CRNN
     * requires conv_rows % (16 * time_steps) == 0).
     */
    std::vector<std::int64_t> dim_divisors;
};

/** Compile-per-shape-signature session with a bucket cache. */
class DynamicSession
{
  public:
    DynamicSession(GraphTemplate graph_template, BackendFactory backend,
                   DynamicSessionOptions options = {});

    /** Profile the model at a concrete shape binding (compiles the
     * bucket inline when no one compiled or is compiling it). Returns
     * the bucket's report, simulated once when the bucket compiled. */
    RunReport profile(const std::vector<std::int64_t> &dims);

    /** One executed request/micro-batch, annotated for the serving
     * layer: which bucket ran it and how degraded that bucket's
     * compilation is. */
    struct BatchServe
    {
        RunReport report;
        std::vector<std::int64_t> key; ///< bucket that executed
        /** Compiled below full-stitch — always true on the forced
         * loop-fusion twin, and true on a full bucket only when the
         * fallback ladder actually demoted it. */
        bool degraded = false;
        /** Worst fallback-ladder rung across the bucket's clusters. */
        LadderLevel level = LadderLevel::FullStitch;
    };

    /** Serve @p dims from the full bucket (compiling inline when
     * missing) — profile() plus the serving annotations. */
    BatchServe serveBatch(const std::vector<std::int64_t> &dims);

    /**
     * Serve @p dims from the bucket's forced loop-fusion twin — the
     * load-shedding path: the twin skips the whole stitching pipeline
     * (SessionOptions::start_ladder_level), so it compiles in a small
     * fraction of the full bucket's time and the request is answered
     * now, degraded. The twin never shares cache lines with the full
     * bucket and is never persisted to the artifact cache. The full
     * bucket compiles when serveBatch() or profile() first asks for it.
     */
    BatchServe serveBatchDegraded(const std::vector<std::int64_t> &dims);

    /** Number of distinct compilations completed so far. */
    int numCompiledBuckets() const { return compiled_buckets_.load(); }

    /** Forced loop-fusion twins compiled so far (serveBatchDegraded). */
    int numFallbackBuckets() const { return fallback_buckets_count_.load(); }

    /** The bucket key @p dims resolves to (after optional rounding). */
    std::vector<std::int64_t>
    bucketFor(const std::vector<std::int64_t> &dims) const;

    /**
     * Analysis findings merged across every bucket (waits for buckets
     * other threads are compiling). Findings identical at the plan
     * level across buckets are deduplicated into one record whose
     * provenance lists every bucket that produced it.
     */
    DiagnosticEngine diagnostics();

    /** How shape-parametric certification fared across the session. */
    struct SymbolicStats
    {
        /** profile() calls served entirely under Proven certificates
         * covering the requested dims — no verifier ran. */
        std::int64_t certified_hits = 0;

        /** Distinct served shapes that fell back to a concrete AS7xx
         * verifier pass (memoized: a repeat of the same shape does not
         * re-verify). */
        std::int64_t concrete_reverifications = 0;

        int buckets_proven = 0;   ///< every access-carrying plan Proven
        int buckets_fallback = 0; ///< certified with >= 1 AS831 fallback
        /** Symbolization refuted by the probe cross-check; the bucket
         * runs concrete-only. */
        int buckets_unsymbolized = 0;
    };

    /** Certification counters. */
    SymbolicStats symbolicStats() const;

    /** Every certificate attached to a compiled plan, across buckets
     * in key order (waits for buckets other threads are compiling). */
    std::vector<ShapeCertificate> certificates();

  private:
    struct Bucket
    {
        std::unique_ptr<Graph> graph;
        std::unique_ptr<Session> session;
        /** The session's profile(), simulated once right after its
         * compile; every serve of the bucket returns it. */
        RunReport report;

        /** Declared ranges the bucket was certified over (empty when
         * symbolic verification is off or the bucket is a point). */
        std::vector<ShapeDim> dims;
        /** Probe cross-check passed and shape_params reached the
         * session — certificates on the plans are meaningful. */
        bool symbolized = false;
        /** True when every access-carrying plan ended Proven. */
        bool all_proven = false;
        /** Bucket-scope findings (probe cross-check AS831 note). */
        DiagnosticEngine extra;

        /** Served shapes already re-verified concretely. */
        std::mutex reverify_mutex;
        std::set<std::vector<std::int64_t>> reverified;
    };
    using BucketPtr = std::shared_ptr<Bucket>;
    using BucketFuture = std::shared_future<BucketPtr>;

    /** Build + compile one bucket on the calling thread. @p fallback
     * compiles the forced loop-fusion twin instead. */
    BucketPtr compileBucket(const std::vector<std::int64_t> &key,
                            bool fallback);

    /** The ShapeDim ranges bucket @p key serves (rounding preimage). */
    std::vector<ShapeDim>
    shapeDimsFor(const std::vector<std::int64_t> &key) const;

    /** Account one served request against the bucket's certificate:
     * a covered Proven bucket counts a certified hit; anything else
     * re-verifies the compiled plans concretely, once per distinct
     * served shape. */
    void recordServe(Bucket &bucket, const std::vector<std::int64_t> &dims);

    /** The future for @p dims' bucket. When none exists, the calling
     * thread registers one and compiles the bucket inline. @p fallback
     * routes through the forced loop-fusion twin map. A compilation
     * that throws evicts its own future before the exception is
     * parked, so a failed bucket retries on the next request instead
     * of staying poisoned forever. */
    BucketFuture bucketFuture(const std::vector<std::int64_t> &dims,
                              bool fallback = false);

    /** Annotate an executed serve with the bucket's degradation. */
    BatchServe annotateServe(const BucketPtr &bucket,
                             const std::vector<std::int64_t> &key,
                             RunReport report) const;

    GraphTemplate template_;
    BackendFactory backend_;
    DynamicSessionOptions options_;

    std::mutex mutex_;
    /** One future per bucket key — ready once compiled; concurrent
     * profile/serveBatch calls for the same key share it (no
     * stampede). */
    std::map<std::vector<std::int64_t>, BucketFuture> buckets_;
    /** Forced loop-fusion twins, keyed like buckets_ (disjoint cache
     * identity: the twin's Session carries start_ladder_level). */
    std::map<std::vector<std::int64_t>, BucketFuture> fallback_map_;
    std::atomic<int> compiled_buckets_{0};
    std::atomic<int> fallback_buckets_count_{0};

    std::atomic<std::int64_t> certified_hits_{0};
    std::atomic<std::int64_t> concrete_reverifications_{0};
    std::atomic<int> buckets_proven_{0};
    std::atomic<int> buckets_fallback_{0};
    std::atomic<int> buckets_unsymbolized_{0};
};

} // namespace astitch

#endif // ASTITCH_RUNTIME_DYNAMIC_SESSION_H
