#include "serve/router.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "support/logging.h"
#include "support/thread_pool.h"

namespace astitch {
namespace serve {

namespace {

void
fnv1a(std::uint64_t &hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
}

} // namespace

ServeRouter::ServeRouter(std::vector<TenantSpec> tenants,
                         RouterOptions options)
    : options_(std::move(options))
{
    fatalIf(tenants.empty(), "serve router requires at least one tenant");
    fatalIf(!options_.backend, "serve router requires a backend factory");
    tenants_.reserve(tenants.size());
    for (TenantSpec &spec : tenants) {
        Tenant tenant;
        DynamicSessionOptions session_options;
        session_options.session = options_.session;
        // Power-of-two buckets, and no AS8xx certification: compile
        // latency is the contended resource on the serving path.
        session_options.bucket_to_power_of_two = true;
        session_options.symbolic_verify = false;
        session_options.dim_names = {spec.dim_name};
        session_options.dim_divisors = {spec.divisor};
        tenant.session = std::make_unique<DynamicSession>(
            spec.graph, options_.backend, session_options);
        tenant.admission = std::make_unique<TokenBucket>(
            spec.admit_qps, spec.admit_burst);
        tenant.spec = std::move(spec);
        tenants_.push_back(std::move(tenant));
    }
}

DynamicSession &
ServeRouter::session(int tenant)
{
    return *tenants_.at(static_cast<std::size_t>(tenant)).session;
}

std::vector<std::int64_t>
ServeRouter::hotBucketItems(int tenant) const
{
    const Tenant &t = tenants_.at(static_cast<std::size_t>(tenant));
    std::vector<std::int64_t> items;
    const std::int64_t lo =
        t.session->bucketFor({t.spec.min_items}).at(0);
    const std::int64_t hi =
        t.session
            ->bucketFor({static_cast<std::int64_t>(
                             options_.batch.max_batch) *
                         t.spec.max_items})
            .at(0);
    for (std::int64_t key = lo; key <= hi;) {
        items.push_back(key);
        // Next reachable bucket key (rounding is idempotent on keys).
        const std::int64_t next = t.session->bucketFor({key + 1}).at(0);
        if (next <= key)
            break;
        key = next;
    }
    return items;
}

void
ServeRouter::warmupTenant(int tenant,
                          const std::vector<std::int64_t> &item_sizes)
{
    Tenant &t = tenants_.at(static_cast<std::size_t>(tenant));
    // Compile the buckets on the process-wide compile pool, as wide as
    // one compile may fan out.
    try {
        parallelFor(resolveCompileThreads(options_.session.compile_threads),
                    item_sizes.size(), [&](std::size_t i) {
                        t.session->profile({item_sizes[i]});
                    });
    } catch (const std::exception &) {
        // Dropped on purpose. A bucket whose compile threw evicted
        // itself before the error parked, so the serial pass below
        // compiles it again and raises the error there. A pooled task
        // that failed (a process-wide fault plan) leaves its bucket to
        // that pass too.
    }
    // Record the warmed buckets as virtually ready at time 0: warmup
    // happened before traffic, so no request ever waits on them. This
    // pass stays on this thread: facts_ has no lock.
    ServeResult scratch;
    for (std::int64_t items : item_sizes) {
        const std::vector<std::int64_t> key =
            t.session->bucketFor({items});
        ensureDecided(t, key, 0.0, /*warmed=*/true, scratch);
    }
}

ServeRouter::CompileFacts &
ServeRouter::ensureDecided(Tenant &tenant,
                           const std::vector<std::int64_t> &exec_key,
                           double now_us, bool warmed,
                           ServeResult &result)
{
    CompileFacts &facts = facts_[{tenant.spec.model, exec_key}];
    if (facts.decided)
        return facts;
    // Probe compile: runs (or joins) the real compilation through the
    // tenant's DynamicSession — artifact cache and JIT cache included —
    // and harvests the deterministic facts the virtual cost model is
    // allowed to see. Wall-clock compile time is deliberately ignored.
    const DynamicSession::BatchServe probe =
        tenant.session->serveBatch(exec_key);
    facts.num_clusters = probe.report.num_clusters;
    facts.from_artifact = probe.report.pass_timings.fromArtifact();
    const double n = static_cast<double>(facts.num_clusters);
    facts.full_cost_us =
        (facts.from_artifact ? kWarmCompileCost : kColdCompileCost)
            .charge(n);
    facts.twin_cost_us = kTwinCompileCost.charge(n);
    facts.full_ready_us = warmed ? 0.0 : now_us + facts.full_cost_us;
    facts.decided = true;
    ++result.compiled_full;
    result.last_full_ready_us =
        std::max(result.last_full_ready_us, facts.full_ready_us);
    return facts;
}

void
ServeRouter::fireBatch(const BatchKey &key, double now_us,
                       MicroBatcher &batcher, ServeResult &result)
{
    const std::vector<Request> batch = batcher.take(key);
    if (batch.empty())
        return;
    Tenant &tenant = tenants_[static_cast<std::size_t>(key.tenant)];

    std::int64_t total_items = 0;
    for (const Request &request : batch)
        total_items += request.items;
    const std::vector<std::int64_t> exec_key =
        tenant.session->bucketFor({total_items});

    CompileFacts &facts =
        ensureDecided(tenant, exec_key, now_us, /*warmed=*/false, result);

    // ---- Bucket state machine on the virtual clock. ----
    bool degraded = false;
    double ready_us;
    DynamicSession::BatchServe serve;
    if (now_us >= facts.full_ready_us) {
        // Ready: full-stitch service (free when another tenant of the
        // same model compiled it — the JIT-cache-hit path).
        serve = tenant.session->serveBatch(exec_key);
        ready_us = facts.full_ready_us;
        if (facts.served_degraded && !facts.counted_upgrade) {
            facts.counted_upgrade = true;
            ++result.upgraded_buckets;
        }
        facts.served_full = true;
    } else if (options_.load_shedding &&
               facts.full_ready_us - now_us >
                   options_.shed_wait_threshold_us) {
        // Compile storm: answer now from the loop-fusion twin while
        // the full compilation's virtual time runs on (its real
        // compile already ran in ensureDecided).
        if (facts.twin_ready_us < 0.0) {
            facts.twin_ready_us = now_us + facts.twin_cost_us;
            ++result.compiled_twin;
        }
        serve = tenant.session->serveBatchDegraded(exec_key);
        ready_us = facts.twin_ready_us;
        degraded = true;
        facts.served_degraded = true;
    } else {
        // Near-ready: joining the in-flight compilation beats both the
        // twin detour and a fresh compile — the single-flight path.
        serve = tenant.session->serveBatch(exec_key);
        ready_us = facts.full_ready_us;
        ++result.coalesced_joins;
        facts.served_full = true;
    }
    // A full bucket can itself be degraded (fault-injected demotion);
    // trust the session's report over the state machine.
    degraded = degraded || serve.degraded;

    const double start_us = std::max({now_us, ready_us, gpu_free_us_});
    const double exec_us = serve.report.end_to_end_us;
    gpu_free_us_ = start_us + exec_us;

    ++total_batches_;
    ++result.total_batches;
    fnv1a(batch_hash_, static_cast<std::uint64_t>(key.tenant));
    for (std::int64_t dim : serve.key)
        fnv1a(batch_hash_, static_cast<std::uint64_t>(dim));
    fnv1a(batch_hash_, static_cast<std::uint64_t>(batch.size()));

    for (const Request &request : batch) {
        fnv1a(batch_hash_, static_cast<std::uint64_t>(request.id));
        Response &response =
            result.responses[static_cast<std::size_t>(request.id)];
        response.id = request.id;
        response.tenant = request.tenant;
        response.items = request.items;
        response.arrival_us = request.arrival_us;
        response.start_us = start_us;
        response.done_us = start_us + exec_us;
        response.latency_us = response.done_us - request.arrival_us;
        response.degraded = degraded;
        response.level = serve.level;
        response.bucket = serve.key;
        response.batch_size = static_cast<int>(batch.size());
        response.batch_items = total_items;
        response.padded_items = serve.key.at(0);
        ++result.served;
        if (degraded)
            ++result.degraded_serves;
        result.last_done_us =
            std::max(result.last_done_us, response.done_us);
    }
}

ServeResult
ServeRouter::run(const std::vector<Request> &trace)
{
    ServeResult result;
    result.responses.resize(trace.size());
    result.trace_fingerprint = traceFingerprint(trace);
    gpu_free_us_ = 0.0;
    batch_hash_ = 0xcbf29ce484222325ULL;
    MicroBatcher batcher(options_.batch);

    std::size_t next = 0;
    while (next < trace.size() || !batcher.empty()) {
        const double next_arrival =
            next < trace.size() ? trace[next].arrival_us
                                : std::numeric_limits<double>::infinity();
        const double next_deadline = batcher.nextDeadlineUs();
        if (next_deadline <= next_arrival) {
            // Deadline watermark: flush every overdue bucket in key
            // order at the deadline instant.
            for (const BatchKey &key : batcher.expired(next_deadline))
                fireBatch(key, next_deadline, batcher, result);
            continue;
        }

        const Request &request = trace[next++];
        result.duration_us =
            std::max(result.duration_us, request.arrival_us);
        Tenant &tenant =
            tenants_[static_cast<std::size_t>(request.tenant)];
        Response &response =
            result.responses[static_cast<std::size_t>(request.id)];
        response.id = request.id;
        response.tenant = request.tenant;
        response.items = request.items;
        response.arrival_us = request.arrival_us;

        if (!tenant.admission->tryAcquire(request.arrival_us)) {
            response.shed = true;
            response.reason = ShedReason::AdmissionRate;
            ++result.shed;
            continue;
        }
        BatchKey key;
        key.tenant = request.tenant;
        key.bucket = tenant.session->bucketFor({request.items});
        switch (batcher.enqueue(key, request)) {
        case MicroBatcher::Enqueue::Rejected:
            response.shed = true;
            response.reason = ShedReason::QueueFull;
            ++result.shed;
            break;
        case MicroBatcher::Enqueue::Watermark:
            fireBatch(key, request.arrival_us, batcher, result);
            break;
        case MicroBatcher::Enqueue::Queued: break;
        }
    }

    for (const Tenant &tenant : tenants_)
        result.hook_upgrades += tenant.session->numCompiledBuckets();
    result.batch_fingerprint = batch_hash_;
    std::vector<std::string> names;
    names.reserve(tenants_.size());
    for (const Tenant &tenant : tenants_)
        names.push_back(tenant.spec.name);
    const double duration =
        result.duration_us > 0.0 ? result.duration_us : 1.0;
    result.tenants = aggregateByTenant(result.responses, names, duration);
    return result;
}

} // namespace serve
} // namespace astitch
