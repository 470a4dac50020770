#include "runtime/dynamic_session.h"

#include <algorithm>

#include "analysis/kernel_verifier.h"
#include "analysis/shape_symbolic.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

namespace {

/** Human-readable bucket identity for diagnostic provenance. */
std::string
bucketLabel(const std::vector<std::int64_t> &key)
{
    std::string label = "bucket ";
    for (std::size_t i = 0; i < key.size(); ++i) {
        if (i > 0)
            label += "x";
        label += std::to_string(key[i]);
    }
    return label;
}

/**
 * Smallest power of two >= v. Clamped to the largest int64 power of two
 * (2^62): shifting past it would overflow (UB) and loop forever, and a
 * dim that large cannot be materialized anyway — padding it further is
 * meaningless.
 */
std::int64_t
nextPowerOfTwo(std::int64_t v)
{
    constexpr std::int64_t kMaxPower = std::int64_t{1} << 62;
    if (v >= kMaxPower)
        return kMaxPower;
    std::int64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** Smallest multiple of @p m that is >= v (m >= 1). */
std::int64_t
roundUpToMultiple(std::int64_t v, std::int64_t m)
{
    return (v + m - 1) / m * m;
}

} // namespace

DynamicSession::DynamicSession(GraphTemplate graph_template,
                               BackendFactory backend,
                               DynamicSessionOptions options)
    : template_(std::move(graph_template)), backend_(std::move(backend)),
      options_(std::move(options))
{
    fatalIf(!template_, "dynamic session requires a graph template");
    fatalIf(!backend_, "dynamic session requires a backend factory");
}

std::vector<std::int64_t>
DynamicSession::bucketFor(const std::vector<std::int64_t> &dims) const
{
    std::vector<std::int64_t> rounded;
    rounded.reserve(dims.size());
    for (std::size_t i = 0; i < dims.size(); ++i) {
        std::int64_t d = dims[i];
        if (options_.bucket_to_power_of_two)
            d = nextPowerOfTwo(std::max<std::int64_t>(1, d));
        // A constrained dim pads up to its granularity so the template
        // accepts the key (power-of-two keys >= a power-of-two divisor
        // are already multiples; everything else genuinely pads).
        if (i < options_.dim_divisors.size() &&
            options_.dim_divisors[i] > 1)
            d = roundUpToMultiple(d, options_.dim_divisors[i]);
        rounded.push_back(d);
    }
    return rounded;
}

std::vector<ShapeDim>
DynamicSession::shapeDimsFor(const std::vector<std::int64_t> &key) const
{
    std::vector<ShapeDim> dims;
    dims.reserve(key.size());
    for (std::size_t i = 0; i < key.size(); ++i) {
        ShapeDim d;
        d.name = i < options_.dim_names.size() ? options_.dim_names[i]
                                               : strCat("d", i);
        d.value = key[i];
        d.divisor = i < options_.dim_divisors.size()
                        ? std::max<std::int64_t>(1, options_.dim_divisors[i])
                        : 1;
        // Power-of-two rounding maps every dim in (key/2, key] onto
        // this bucket, so that half-open interval is exactly what the
        // certificate must cover; the compile point sits at hi. A
        // granularity constraint narrows the claim to the multiples
        // the template accepts.
        d.hi = key[i];
        d.lo = options_.bucket_to_power_of_two
                   ? std::max<std::int64_t>(1, key[i] / 2 + 1)
                   : key[i];
        d.lo = std::min(roundUpToMultiple(d.lo, d.divisor), d.hi);
        dims.push_back(std::move(d));
    }
    return dims;
}

DynamicSession::BucketPtr
DynamicSession::compileBucket(const std::vector<std::int64_t> &key,
                              bool fallback)
{
    auto bucket = std::make_shared<Bucket>();
    bucket->graph = std::make_unique<Graph>(template_(key));

    SessionOptions session_options = options_.session;
    if (fallback) {
        // The load-shedding twin: skip the stitching pipeline entirely
        // and compile at the loop-fusion rung. Certification is skipped
        // too — the twin exists to answer a request in microseconds of
        // compile time, and it retires as soon as the full bucket lands.
        session_options.start_ladder_level = LadderLevel::LoopFusion;
        session_options.tuning.mode = TuningMode::Off;
    }
    std::vector<ShapeDim> dims = options_.symbolic_verify && !fallback
                                     ? shapeDimsFor(key)
                                     : std::vector<ShapeDim>{};
    const bool has_range =
        std::any_of(dims.begin(), dims.end(),
                    [](const ShapeDim &d) { return !d.point(); });
    if (has_range) {
        // The symbolization attributes axes to dims by matching
        // compile-time values — a claim that can hold coincidentally.
        // Validate it against a probe instantiation of the template at
        // the range's low endpoint before trusting any certificate.
        std::vector<std::int64_t> probe_values;
        probe_values.reserve(dims.size());
        for (const ShapeDim &d : dims)
            probe_values.push_back(d.lo);
        if (crossCheckSymbolization(*bucket->graph,
                                    template_(probe_values), dims,
                                    probe_values)) {
            bucket->symbolized = true;
            bucket->dims = dims;
            session_options.shape_params = dims;
        } else {
            buckets_unsymbolized_.fetch_add(1, std::memory_order_relaxed);
            std::string ranges;
            for (const ShapeDim &d : dims)
                ranges += strCat(ranges.empty() ? "" : ", ", d.toString());
            bucket->extra.report(
                "AS831", "<bucket>",
                strCat("probe cross-check refuted the shape "
                       "symbolization over {",
                       ranges,
                       "}; concrete per-shape verification remains in "
                       "effect for this bucket"));
        }
    }

    bucket->session = std::make_unique<Session>(*bucket->graph, backend_(),
                                                session_options);
    bucket->session->compile();
    // The simulated run is a function of the compiled plans alone, so
    // it runs once here, and the future publishes it with the bucket.
    // A throw fails the compile like any other.
    bucket->report = bucket->session->profile();
    // The compile itself ran the concrete verifier at exactly the key
    // shape; a later serve of that shape needs no second pass even when
    // no certificate holds (point buckets, fallbacks, unsymbolized).
    bucket->reverified.insert(key);
    if (bucket->symbolized) {
        const Session::CertificateSummary summary =
            bucket->session->certificateSummary();
        bucket->all_proven = summary.refuted == 0 && summary.fallback == 0;
        if (bucket->all_proven)
            buckets_proven_.fetch_add(1, std::memory_order_relaxed);
        else
            buckets_fallback_.fetch_add(1, std::memory_order_relaxed);
    }
    if (fallback) {
        fallback_buckets_count_.fetch_add(1, std::memory_order_relaxed);
        return bucket;
    }
    compiled_buckets_.fetch_add(1, std::memory_order_relaxed);
    return bucket;
}

void
DynamicSession::recordServe(Bucket &bucket,
                            const std::vector<std::int64_t> &dims)
{
    if (!options_.symbolic_verify)
        return;
    if (bucket.symbolized && bucket.all_proven) {
        // The serve is certified when every access-carrying plan's
        // certificate admits the *requested* dims (not the rounded
        // key): the proof ranged over the rounding preimage, so any
        // shape inside it executes without another verifier pass.
        bool covered = true;
        for (const CompiledCluster &compiled : bucket.session->compiled()) {
            for (const KernelPlan &plan : compiled.kernels) {
                if (plan.accesses.empty())
                    continue;
                if (!plan.certificate.covers(dims)) {
                    covered = false;
                    break;
                }
            }
            if (!covered)
                break;
        }
        if (covered) {
            certified_hits_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
    // Fallback: concrete AS7xx verification of the compiled plans,
    // once per distinct served shape. The plans and graph are the
    // bucket's own (identical to what compile-time analysis saw), so
    // any findings this pass would produce are already recorded in the
    // session's diagnostics — the run exists to restore per-shape
    // verification coverage, and its cost is what certificates save.
    std::lock_guard<std::mutex> lock(bucket.reverify_mutex);
    if (!bucket.reverified.insert(dims).second)
        return;
    concrete_reverifications_.fetch_add(1, std::memory_order_relaxed);
    DiagnosticEngine scratch;
    for (const CompiledCluster &compiled : bucket.session->compiled())
        verifyCompiledCluster(bucket.session->activeGraph(), compiled,
                              options_.session.spec, scratch);
}

DynamicSession::BucketFuture
DynamicSession::bucketFuture(const std::vector<std::int64_t> &dims,
                             bool fallback)
{
    const auto key = bucketFor(dims);
    std::packaged_task<BucketPtr()> task;
    BucketFuture future;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &map = fallback ? fallback_map_ : buckets_;
        const auto it = map.find(key);
        if (it != map.end())
            return it->second;
        task = std::packaged_task<BucketPtr()>([this, key, fallback] {
            try {
                return compileBucket(key, fallback);
            } catch (...) {
                // Evict before the exception parks in the future: a
                // failed compilation must not poison the key forever
                // (the next request re-registers and retries, matching
                // the JIT cache's failures-are-not-cached policy).
                // Eviction happens strictly before the future becomes
                // ready, so a ready future in the map is always a
                // successful compilation.
                std::lock_guard<std::mutex> evict_lock(mutex_);
                (fallback ? fallback_map_ : buckets_).erase(key);
                throw;
            }
        });
        future = task.get_future().share();
        map.emplace(key, future);
    }
    // First requester compiles inline, outside the lock, so compiling
    // one bucket never serializes lookups of already-compiled ones.
    task();
    return future;
}

RunReport
DynamicSession::profile(const std::vector<std::int64_t> &dims)
{
    // get() waits only for this bucket's compilation (inline, or on
    // the thread that asked first) and rethrows its compile error.
    const BucketPtr bucket = bucketFuture(dims).get();
    recordServe(*bucket, dims);
    return bucket->report;
}

DynamicSession::BatchServe
DynamicSession::annotateServe(const BucketPtr &bucket,
                              const std::vector<std::int64_t> &key,
                              RunReport report) const
{
    BatchServe serve;
    serve.report = std::move(report);
    serve.key = key;
    serve.level = bucket->session->degradation().maxLevel();
    serve.degraded = serve.level != LadderLevel::FullStitch;
    return serve;
}

DynamicSession::BatchServe
DynamicSession::serveBatch(const std::vector<std::int64_t> &dims)
{
    const BucketPtr bucket = bucketFuture(dims).get();
    recordServe(*bucket, dims);
    return annotateServe(bucket, bucketFor(dims), bucket->report);
}

DynamicSession::BatchServe
DynamicSession::serveBatchDegraded(const std::vector<std::int64_t> &dims)
{
    // No recordServe: the twin is transient (retired on upgrade) and
    // its compile already verified the key shape concretely; counting
    // its serves as reverifications would misstate certificate
    // coverage of the full buckets.
    const BucketPtr bucket = bucketFuture(dims, /*fallback=*/true).get();
    return annotateServe(bucket, bucketFor(dims), bucket->report);
}

DiagnosticEngine
DynamicSession::diagnostics()
{
    std::vector<std::pair<std::vector<std::int64_t>, BucketFuture>> entries;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        entries.reserve(buckets_.size());
        for (const auto &[key, future] : buckets_)
            entries.emplace_back(key, future);
    }
    // Buckets of one template mostly produce the *same* plan-level
    // findings (the template's structure, not the shape, triggers
    // them); fold identical records into one, tagged with every bucket
    // it appeared in, so a 16-bucket sweep reads like one report.
    DiagnosticEngine merged;
    for (const auto &[key, future] : entries) {
        const std::string label = bucketLabel(key);
        const BucketPtr bucket = future.get();
        merged.mergeDeduped(bucket->session->diagnostics(), label);
        merged.mergeDeduped(bucket->extra, label);
    }
    return merged;
}

DynamicSession::SymbolicStats
DynamicSession::symbolicStats() const
{
    SymbolicStats stats;
    stats.certified_hits = certified_hits_.load(std::memory_order_relaxed);
    stats.concrete_reverifications =
        concrete_reverifications_.load(std::memory_order_relaxed);
    stats.buckets_proven = buckets_proven_.load(std::memory_order_relaxed);
    stats.buckets_fallback =
        buckets_fallback_.load(std::memory_order_relaxed);
    stats.buckets_unsymbolized =
        buckets_unsymbolized_.load(std::memory_order_relaxed);
    return stats;
}

std::vector<ShapeCertificate>
DynamicSession::certificates()
{
    std::vector<BucketFuture> futures;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        futures.reserve(buckets_.size());
        for (const auto &[key, future] : buckets_)
            futures.push_back(future);
    }
    std::vector<ShapeCertificate> certs;
    for (const BucketFuture &future : futures) {
        const BucketPtr bucket = future.get();
        for (const CompiledCluster &compiled : bucket->session->compiled())
            for (const KernelPlan &plan : compiled.kernels)
                if (plan.certificate.verdict !=
                    ShapeCertificate::Verdict::None)
                    certs.push_back(plan.certificate);
    }
    return certs;
}

} // namespace astitch
