/**
 * @file
 * Serving benchmark: p50/p99 latency and QPS of the astitch-serve
 * runtime under a mixed BERT/DIEN/ASR open-loop Poisson workload
 * (extension of the paper's Table-2 inference evaluation to the
 * traffic dimension; Neptune-style methodology).
 *
 * Four scenarios over one seed-deterministic trace shape:
 *
 *   cold_noshed  empty caches, no warmup, load shedding off — every
 *                cold bucket stalls its batches for the full virtual
 *                compile cost (the unprotected compile storm).
 *   cold_shed    same, load shedding on — cold batches are answered
 *                from the loop-fusion twin immediately and upgrade to
 *                full-stitch once the full compile's virtual time has
 *                run out.
 *   warm         artifact cache kept from cold_shed + warmupTenant()
 *                over every reachable bucket before traffic — the
 *                compile-ahead deployment.
 *   determinism  cold_shed replayed twice with the same seed on
 *                memory-only caches; request traces and batch
 *                compositions must be bit-identical.
 *
 * Environment:
 *   ASTITCH_SERVE_JSON          output (default BENCH_serve.json).
 *   ASTITCH_SERVE_SEED          trace seed (default 42).
 *   ASTITCH_SERVE_DURATION_US   trace length (default 1000000).
 *   ASTITCH_SERVE_MAX_REQUESTS  request cap, 0 = none (default 0).
 *   ASTITCH_SERVE_DIR           artifact dir (default
 *                               bench_serve_cache; cleared at start).
 *
 * Exit codes: 0 ok; 2 a serving property regressed (warm p99 not
 * better than cold, shedding not bounding p99, degraded serves never
 * upgrading, nondeterministic replay, or a request dropped without a
 * shed reason).
 */
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "runtime/artifact_cache.h"
#include "runtime/jit_cache.h"
#include "serve/router.h"
#include "support/strings.h"

using namespace astitch;
using namespace astitch::bench;
using namespace astitch::serve;

namespace {

std::string
envStr(const char *name, const std::string &fallback)
{
    const char *value = std::getenv(name);
    return value ? value : fallback;
}

double
envDouble(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    return value ? std::atof(value) : fallback;
}

/** The Table-2 tenant mix: two BERT tenants (shared model — the
 * compilation-coalescing case), DIEN and ASR, sized around their
 * production batch/frame defaults. */
std::vector<TenantSpec>
makeTenants()
{
    const std::vector<workloads::DynamicWorkloadSpec> dynamic =
        workloads::dynamicInferenceWorkloads();
    const auto find = [&](const std::string &name) {
        for (const auto &wl : dynamic)
            if (wl.name == name)
                return wl;
        std::fprintf(stderr, "dynamic workload %s missing\n",
                     name.c_str());
        std::abort();
    };
    const auto tenant = [](const workloads::DynamicWorkloadSpec &wl,
                           const std::string &name, double rate_qps,
                           std::int64_t min_items, std::int64_t max_items,
                           double admit_qps) {
        TenantSpec spec;
        spec.name = name;
        spec.model = wl.name;
        spec.graph = wl.build;
        spec.dim_name = wl.dim_name;
        spec.divisor = wl.divisor;
        spec.rate_qps = rate_qps;
        spec.min_items = min_items;
        spec.max_items = max_items;
        spec.admit_qps = admit_qps;
        spec.admit_burst = 8.0;
        return spec;
    };
    return {
        tenant(find("BERT"), "bert-a", 400.0, 50, 100, 0.0),
        tenant(find("BERT"), "bert-b", 150.0, 50, 100, 0.0),
        tenant(find("DIEN"), "dien", 300.0, 36, 72, 250.0),
        tenant(find("ASR"), "asr", 250.0, 50, 100, 0.0),
    };
}

RouterOptions
makeRouterOptions(bool load_shedding, const std::string &artifact_dir)
{
    RouterOptions options;
    options.batch.max_batch = 4;
    options.batch.max_delay_us = 3000.0;
    options.session.use_jit_cache = true;
    options.session.artifact_cache_dir = artifact_dir;
    options.backend = [] { return std::make_unique<AStitchBackend>(); };
    options.load_shedding = load_shedding;
    return options;
}

struct Scenario
{
    std::string name;
    ServeResult result;
    /** Degraded serves among requests arriving after the compile
     * storm ended (last full compile ready) — must be 0: with
     * upgrade-on-recompile working, degradation is transient. */
    std::int64_t degraded_tail = 0;
    /** Responses neither served nor shed-with-reason. */
    std::int64_t unaccounted = 0;
    double worst_p99_us = 0.0;
};

Scenario
runScenario(const std::string &name, bool load_shedding, bool warm_start,
            const std::string &artifact_dir, std::uint64_t seed,
            double duration_us, std::int64_t max_requests)
{
    // Scenario isolation: the in-memory JIT cache is process-global,
    // so a "cold" scenario must start from an empty one.
    JitCache::global().clear();
    const std::vector<TenantSpec> tenants = makeTenants();
    ServeRouter router(tenants, makeRouterOptions(load_shedding,
                                                  artifact_dir));
    if (warm_start) {
        for (int t = 0; t < router.numTenants(); ++t)
            router.warmupTenant(t, router.hotBucketItems(t));
    }
    TrafficOptions traffic;
    traffic.seed = seed;
    traffic.duration_us = duration_us;
    traffic.max_requests = max_requests;
    const std::vector<Request> trace = generateTrace(tenants, traffic);

    Scenario scenario;
    scenario.name = name;
    scenario.result = router.run(trace);
    for (const Response &r : scenario.result.responses) {
        if (r.shed) {
            if (r.reason == ShedReason::None)
                ++scenario.unaccounted;
        } else if (r.done_us <= 0.0) {
            ++scenario.unaccounted;
        }
        if (r.degraded &&
            r.arrival_us > scenario.result.last_full_ready_us)
            ++scenario.degraded_tail;
    }
    for (const TenantStats &t : scenario.result.tenants)
        scenario.worst_p99_us = std::max(scenario.worst_p99_us, t.p99_us);
    return scenario;
}

void
printScenario(const Scenario &s)
{
    std::printf("\n-- scenario %s --\n", s.name.c_str());
    std::printf("%-8s %8s %8s %6s %5s %10s %10s %10s %8s %6s %5s\n",
                "tenant", "requests", "served", "shed", "degr",
                "p50(us)", "p99(us)", "mean(us)", "qps", "batch",
                "occ");
    for (const TenantStats &t : s.result.tenants) {
        std::printf(
            "%-8s %8lld %8lld %6lld %5lld %10.1f %10.1f %10.1f %8.1f "
            "%6.2f %5.2f\n",
            t.name.c_str(), static_cast<long long>(t.requests),
            static_cast<long long>(t.served),
            static_cast<long long>(t.shed),
            static_cast<long long>(t.degraded_serves), t.p50_us,
            t.p99_us, t.mean_us, t.qps, t.avg_batch_size,
            t.avg_occupancy);
    }
    std::printf("batches=%lld degraded=%lld storm-end=%.0fus "
                "post-storm-degraded=%lld "
                "upgraded-buckets=%lld coalesced=%lld hooks=%lld "
                "compiled=%lld+%lldtwin trace=%016llx batches=%016llx\n",
                static_cast<long long>(s.result.total_batches),
                static_cast<long long>(s.result.degraded_serves),
                s.result.last_full_ready_us,
                static_cast<long long>(s.degraded_tail),
                static_cast<long long>(s.result.upgraded_buckets),
                static_cast<long long>(s.result.coalesced_joins),
                static_cast<long long>(s.result.hook_upgrades),
                static_cast<long long>(s.result.compiled_full),
                static_cast<long long>(s.result.compiled_twin),
                static_cast<unsigned long long>(
                    s.result.trace_fingerprint),
                static_cast<unsigned long long>(
                    s.result.batch_fingerprint));
}

std::string
scenarioJson(const Scenario &s)
{
    std::string tenants;
    for (const TenantStats &t : s.result.tenants)
        tenants += strCat(tenants.empty() ? "" : ",",
                          tenantStatsJson(t));
    char trace_hex[32], batch_hex[32];
    std::snprintf(trace_hex, sizeof(trace_hex), "%016llx",
                  static_cast<unsigned long long>(
                      s.result.trace_fingerprint));
    std::snprintf(batch_hex, sizeof(batch_hex), "%016llx",
                  static_cast<unsigned long long>(
                      s.result.batch_fingerprint));
    return strCat(
        "{\"name\":\"", s.name, "\",\"served\":", s.result.served,
        ",\"shed\":", s.result.shed,
        ",\"unaccounted\":", s.unaccounted,
        ",\"total_batches\":", s.result.total_batches,
        ",\"degraded_serves\":", s.result.degraded_serves,
        ",\"storm_end_us\":", strFixed(s.result.last_full_ready_us, 1),
        ",\"degraded_tail\":", s.degraded_tail,
        ",\"upgraded_buckets\":", s.result.upgraded_buckets,
        ",\"coalesced_joins\":", s.result.coalesced_joins,
        ",\"hook_upgrades\":", s.result.hook_upgrades,
        ",\"compiled_full\":", s.result.compiled_full,
        ",\"compiled_twin\":", s.result.compiled_twin,
        ",\"worst_p99_us\":", strFixed(s.worst_p99_us, 3),
        ",\"trace_fingerprint\":\"", trace_hex,
        "\",\"batch_fingerprint\":\"", batch_hex,
        "\",\"tenants\":[", tenants, "]}");
}

} // namespace

int
main()
{
    const std::string json_path =
        envStr("ASTITCH_SERVE_JSON", "BENCH_serve.json");
    const std::string dir =
        envStr("ASTITCH_SERVE_DIR", "bench_serve_cache");
    const std::uint64_t seed = static_cast<std::uint64_t>(
        envDouble("ASTITCH_SERVE_SEED", 42.0));
    const double duration_us =
        envDouble("ASTITCH_SERVE_DURATION_US", 1e6);
    const std::int64_t max_requests = static_cast<std::int64_t>(
        envDouble("ASTITCH_SERVE_MAX_REQUESTS", 0.0));

    // A stale directory would turn the cold scenarios warm.
    ArtifactCache(dir).clear();

    printHeader("astitch-serve: shape-bucketed micro-batching under "
                "mixed BERT/DIEN/ASR Poisson traffic");
    std::printf("seed=%llu duration=%.0fus max_requests=%lld\n",
                static_cast<unsigned long long>(seed), duration_us,
                static_cast<long long>(max_requests));

    std::vector<Scenario> scenarios;
    scenarios.push_back(runScenario("cold_noshed", /*shed=*/false,
                                    /*warm=*/false, dir, seed,
                                    duration_us, max_requests));
    // cold_noshed seeded the artifact cache; wipe it so cold_shed is
    // genuinely cold, then let cold_shed's artifacts warm `warm`.
    ArtifactCache(dir).clear();
    scenarios.push_back(runScenario("cold_shed", /*shed=*/true,
                                    /*warm=*/false, dir, seed,
                                    duration_us, max_requests));
    scenarios.push_back(runScenario("warm", /*shed=*/true, /*warm=*/true,
                                    dir, seed, duration_us,
                                    max_requests));
    scenarios.push_back(runScenario("replay_a", /*shed=*/true,
                                    /*warm=*/false, "", seed,
                                    duration_us, max_requests));
    scenarios.push_back(runScenario("replay_b", /*shed=*/true,
                                    /*warm=*/false, "", seed,
                                    duration_us, max_requests));
    for (const Scenario &s : scenarios)
        printScenario(s);

    const Scenario &cold_noshed = scenarios[0];
    const Scenario &cold_shed = scenarios[1];
    const Scenario &warm = scenarios[2];
    const Scenario &replay_a = scenarios[3];
    const Scenario &replay_b = scenarios[4];

    int failures = 0;
    const auto check = [&](bool ok, const char *what) {
        std::printf("[%s] %s\n", ok ? "ok" : "FAIL", what);
        failures += !ok;
    };

    // (a) Warm artifact cache + warmup pre-compilation beats the cold
    // start on tail latency for every tenant.
    bool warm_wins = true;
    for (std::size_t t = 0; t < warm.result.tenants.size(); ++t) {
        if (warm.result.tenants[t].served > 0 &&
            warm.result.tenants[t].p99_us >
                cold_shed.result.tenants[t].p99_us)
            warm_wins = false;
    }
    check(warm_wins,
          "warm artifact cache + warmup improves per-tenant p99 vs "
          "cold start");
    // (b) Load shedding bounds the compile-storm p99 below the
    // unprotected cold start, and the degraded serves it takes are
    // transient: none in the trace's second half, with the affected
    // buckets upgraded to full-stitch.
    check(cold_shed.worst_p99_us < cold_noshed.worst_p99_us,
          "load shedding bounds cold-start p99 below the no-shed run");
    check(cold_shed.result.degraded_serves > 0,
          "compile storm produced degraded (loop-fusion rung) serves");
    check(cold_shed.degraded_tail == 0,
          "degraded serves decay to zero at steady state");
    check(cold_shed.result.upgraded_buckets > 0,
          "degraded buckets upgraded to full-stitch service");
    check(warm.result.degraded_serves == 0,
          "warm start needs no degraded serves");
    // Determinism: identical seed => identical trace and batching.
    check(replay_a.result.trace_fingerprint ==
                  replay_b.result.trace_fingerprint &&
              replay_a.result.trace_fingerprint != 0,
          "request trace is seed-deterministic");
    check(replay_a.result.batch_fingerprint ==
              replay_b.result.batch_fingerprint,
          "batch compositions are seed-deterministic");
    // Accounting: every request is served or shed with a reason.
    bool accounted = true;
    for (const Scenario &s : scenarios)
        accounted = accounted && s.unaccounted == 0;
    check(accounted, "no request dropped without a shed reason");
    // Multi-tenant coalescing: the two BERT tenants share compilations.
    check(cold_shed.result.coalesced_joins +
                  cold_shed.result.upgraded_buckets >
              0,
          "tenants coalesce in-flight compilations");

    std::ofstream file(json_path);
    if (file) {
        file << jsonPreamble() << "\"seed\":" << seed
             << ",\"duration_us\":" << duration_us
             << ",\"checks_failed\":" << failures << ",\"scenarios\":[";
        for (std::size_t i = 0; i < scenarios.size(); ++i)
            file << (i ? "," : "") << scenarioJson(scenarios[i]);
        file << "]}\n";
        std::printf("wrote %zu scenarios to %s\n", scenarios.size(),
                    json_path.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        ++failures;
    }

    if (failures > 0) {
        std::fprintf(stderr,
                     "REGRESSION: %d serving propert%s failed\n",
                     failures, failures == 1 ? "y" : "ies");
        return 2;
    }
    return 0;
}
