/**
 * @file
 * The serving router: multi-tenant, shape-bucketed, micro-batched
 * request execution over DynamicSession.
 *
 * Architecture (DESIGN.md §16): requests flow
 *
 *     traffic → admission (token bucket) → batcher (per-bucket
 *     queues, size/deadline watermarks) → bucket state machine →
 *     DynamicSession (full bucket or loop-fusion twin)
 *
 * The router runs a deterministic discrete-event simulation on a
 * virtual microsecond clock: service time is the analytic simulator's
 * end_to_end_us for the padded batch, and compilation is charged by a
 * deterministic virtual cost model keyed off deterministic facts of
 * the real compilation it triggers (cluster count, artifact-cache
 * provenance) — wall-clock compile time is never consulted, so two
 * identically-seeded runs produce bit-identical request traces, batch
 * compositions and latency distributions.
 *
 * Load shedding (the compile-storm path): when a batch fires against
 * a bucket whose full-stitch compilation is still further away than
 * shed_wait_threshold_us, the router serves it immediately from the
 * bucket's forced loop-fusion twin (DynamicSession::serveBatchDegraded
 * — compiled in a fraction of the full cost, flagged degraded in the
 * response). Only the full compilation's virtual time runs in the
 * background: its real compile ran inline when the batch fired. Once
 * the full bucket's virtual ready-time passes, the same bucket
 * upgrades to full-stitch service. Tenants sharing a model coalesce:
 * the first fire pays the compilation, a second tenant joining while
 * it is in flight waits on the same virtual completion (backed by the
 * shared single-flight JIT cache underneath), and a tenant arriving
 * after completion is served from cache at no charge.
 */
#ifndef ASTITCH_SERVE_ROUTER_H
#define ASTITCH_SERVE_ROUTER_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/dynamic_session.h"
#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/stats.h"
#include "serve/traffic.h"

namespace astitch {
namespace serve {

/** Router configuration. */
struct RouterOptions
{
    BatchPolicy batch;

    /** Base Session options for every tenant's buckets (JIT cache,
     * artifact-cache dir, device spec, compile threads...). */
    SessionOptions session;

    /** Backend per compiled bucket (required). */
    BackendFactory backend;

    /** Enable the degraded-serve path. Off = every batch waits for
     * its full-stitch compilation. */
    bool load_shedding = true;

    /** A batch fires degraded when the full bucket is further than
     * this from ready (virtual us). */
    double shed_wait_threshold_us = 5000.0;
};

/**
 * One row of the router's virtual compile-cost table (DESIGN.md §16): a
 * compilation of n clusters is charged base_us + us_per_cluster * n
 * virtual microseconds. The rows below are fixed estimates, not yet
 * fitted to measured pass timings.
 */
struct CompileCost
{
    double base_us;
    double us_per_cluster;

    double charge(double clusters) const
    {
        return base_us + us_per_cluster * clusters;
    }
};

/** Full compile, cold caches. */
inline constexpr CompileCost kColdCompileCost{2000.0, 4000.0};
/** Full compile from a disk artifact. */
inline constexpr CompileCost kWarmCompileCost{300.0, 40.0};
/** Forced loop-fusion twin. */
inline constexpr CompileCost kTwinCompileCost{200.0, 60.0};

/** Everything one trace replay produced. */
struct ServeResult
{
    /** Indexed by request id (== trace order). */
    std::vector<Response> responses;
    std::vector<TenantStats> tenants;

    double duration_us = 0.0;
    double last_done_us = 0.0;
    /** Virtual time the last unwarmed full compilation became ready —
     * the end of the compile storm. Upgrade-on-recompile means no
     * request arriving after this may be served degraded. */
    double last_full_ready_us = 0.0;
    std::uint64_t trace_fingerprint = 0;
    /** FNV-1a over every fired batch (tenant, executed bucket, member
     * ids) in fire order — the determinism witness for batching. */
    std::uint64_t batch_fingerprint = 0;

    std::int64_t total_batches = 0;
    std::int64_t served = 0;
    std::int64_t shed = 0;
    std::int64_t degraded_serves = 0;
    /** Buckets that served degraded and later served full-stitch. */
    std::int64_t upgraded_buckets = 0;
    /** Batches that joined another tenant's in-flight compilation. */
    std::int64_t coalesced_joins = 0;
    /** Full bucket compilations the tenants' sessions have completed
     * (DynamicSession::numCompiledBuckets, summed). */
    std::int64_t hook_upgrades = 0;
    /** Full compilations / twin compilations actually charged. */
    std::int64_t compiled_full = 0;
    std::int64_t compiled_twin = 0;
};

/** Multi-tenant serving instance on a virtual clock. */
class ServeRouter
{
  public:
    ServeRouter(std::vector<TenantSpec> tenants, RouterOptions options);

    /**
     * Pre-compile @p tenant's buckets for the given item counts before
     * traffic starts. The compiles fan out on the process-wide compile
     * pool, SessionOptions::compile_threads wide; a bucket whose
     * compile failed there compiles once more on the calling thread,
     * which raises its error. The warmed buckets are virtually ready
     * at time 0, so cold-start compile waits vanish.
     */
    void warmupTenant(int tenant,
                      const std::vector<std::int64_t> &item_sizes);

    /** Every executed bucket a tenant's batches can land in: the
     * power-of-two keys from bucketFor(min_items) through
     * bucketFor(max_batch * max_items). */
    std::vector<std::int64_t> hotBucketItems(int tenant) const;

    /** Replay @p trace (sorted by arrival; ids dense from 0). */
    ServeResult run(const std::vector<Request> &trace);

    DynamicSession &session(int tenant);
    int numTenants() const { return static_cast<int>(tenants_.size()); }

  private:
    /** Shared (per model × executed bucket) compilation facts: the
     * virtual-clock state machine Cold → [TwinCompiling →
     * DegradedReady →] FullCompiling → Ready, collapsed into ready
     * timestamps. */
    struct CompileFacts
    {
        bool decided = false;
        double full_ready_us = 0.0;
        double twin_ready_us = -1.0; ///< < 0: twin never started
        double full_cost_us = 0.0;
        double twin_cost_us = 0.0;
        int num_clusters = 0;
        bool from_artifact = false;
        bool served_degraded = false;
        bool served_full = false;
        bool counted_upgrade = false;
    };

    struct Tenant
    {
        TenantSpec spec;
        std::unique_ptr<DynamicSession> session;
        std::unique_ptr<TokenBucket> admission;
    };

    CompileFacts &ensureDecided(Tenant &tenant,
                                const std::vector<std::int64_t> &exec_key,
                                double now_us, bool warmed,
                                ServeResult &result);

    void fireBatch(const BatchKey &key, double now_us,
                   MicroBatcher &batcher, ServeResult &result);

    std::vector<Tenant> tenants_;
    RouterOptions options_;

    /** Virtual time the single executor frees up. */
    double gpu_free_us_ = 0.0;

    std::map<std::pair<std::string, std::vector<std::int64_t>>,
             CompileFacts>
        facts_;
    std::uint64_t batch_hash_ = 0xcbf29ce484222325ULL;
    std::int64_t total_batches_ = 0;
};

} // namespace serve
} // namespace astitch

#endif // ASTITCH_SERVE_ROUTER_H
