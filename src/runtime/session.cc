#include "runtime/session.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>

#include "analysis/analyzer.h"
#include "compiler/clustering.h"
#include "compiler/fingerprint.h"
#include "compiler/plan_executor.h"
#include "core/astitch_backend.h"
#include "opt/autotuner.h"
#include "opt/passes.h"
#include "runtime/artifact_cache.h"
#include "runtime/fallback_ladder.h"
#include "runtime/jit_cache.h"
#include "runtime/tuning_db.h"
#include "sim/kernel_sim.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace astitch {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
msSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                     t0)
        .count();
}

/**
 * True when a forced start rung (a load-shedding twin's) accounts for
 * all of @p report: every cluster compiled at @p start or a better
 * rung, with no retries and no session-level fallback. Such an entry
 * is what that rung always produces, not a fault's leftover.
 */
bool
degradedOnlyByStartRung(const DegradationReport &report, LadderLevel start)
{
    return !report.clustering_fallback && !report.serial_fallback &&
           !report.cache_bypassed && report.totalRetries() == 0 &&
           report.maxLevel() <= start;
}

} // namespace

Session::Session(const Graph &graph, std::unique_ptr<Backend> backend,
                 SessionOptions options)
    : graph_(graph), backend_(std::move(backend)), options_(options)
{
    fatalIf(!backend_, "session requires a backend");
}

Session::~Session() = default;

double
Session::compile()
{
    if (compiled_valid_)
        return compile_ms_;

    const auto t0 = std::chrono::steady_clock::now();

    if (options_.enable_optimizer && !optimized_) {
        PassPipeline pipeline = PassPipeline::standard();
        optimized_ = std::make_unique<Graph>(pipeline.run(graph_));
    }
    const Graph &graph = activeGraph();

    // Install this session's fault plan (test/CI facility) for the
    // duration of the compile.
    std::optional<FaultScope> fault_scope;
    if (!options_.fault_plan.empty())
        fault_scope.emplace(FaultPlan::parse(options_.fault_plan));

    compileEntry(graph);
    const std::vector<Cluster> &clusters = entry_->clusters;
    pass_timings_ = entry_->timings;
    const auto scheduling_t0 = SteadyClock::now();

    // ---- Unit scheduling: clusters + compute-intensive nodes. ----
    // unit encoding: [0, C) are clusters; C + i enumerates the i-th
    // compute-intensive node.
    const int num_clusters = static_cast<int>(clusters.size());
    std::vector<NodeId> compute_nodes;
    std::vector<int> unit_of_node(graph.numNodes(), -1);
    for (int c = 0; c < num_clusters; ++c) {
        for (NodeId n : clusters[c].nodes)
            unit_of_node[n] = c;
    }
    for (NodeId n = 0; n < graph.numNodes(); ++n) {
        if (isComputeIntensive(graph.node(n).kind())) {
            unit_of_node[n] =
                num_clusters + static_cast<int>(compute_nodes.size());
            compute_nodes.push_back(n);
        }
    }
    const int num_units =
        num_clusters + static_cast<int>(compute_nodes.size());

    // Kahn topological sort over the unit DAG.
    std::vector<std::vector<int>> unit_users(num_units);
    std::vector<int> in_degree(num_units, 0);
    for (NodeId n = 0; n < graph.numNodes(); ++n) {
        const int u = unit_of_node[n];
        if (u < 0)
            continue;
        for (NodeId op : graph.node(n).operands()) {
            const int pu = unit_of_node[op];
            if (pu < 0 || pu == u)
                continue;
            unit_users[pu].push_back(u);
        }
    }
    for (auto &users : unit_users) {
        std::sort(users.begin(), users.end());
        users.erase(std::unique(users.begin(), users.end()), users.end());
        for (int u : users)
            ++in_degree[u];
    }
    std::deque<int> ready;
    for (int u = 0; u < num_units; ++u) {
        if (in_degree[u] == 0)
            ready.push_back(u);
    }
    unit_order_.clear();
    while (!ready.empty()) {
        const int u = ready.front();
        ready.pop_front();
        unit_order_.push_back(
            u < num_clusters
                ? static_cast<std::int64_t>(u)
                : ~static_cast<std::int64_t>(
                      compute_nodes[u - num_clusters]));
        for (int v : unit_users[u]) {
            if (--in_degree[v] == 0)
                ready.push_back(v);
        }
    }
    fatalIf(static_cast<int>(unit_order_.size()) != num_units,
            "cyclic dependence between stitch ops and library ops — ",
            "clustering produced an illegal partition");
    pass_timings_.scheduling_ms = msSince(scheduling_t0);

    const auto t1 = std::chrono::steady_clock::now();
    compile_ms_ =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    compiled_valid_ = true;
    return compile_ms_;
}

const std::vector<Cluster> &
Session::clusters()
{
    compile();
    return entry_->clusters;
}

const std::vector<CompiledCluster> &
Session::compiled()
{
    compile();
    return entry_->compiled;
}

const DiagnosticEngine &
Session::diagnostics()
{
    compile();
    return diagnostics_;
}

const DegradationReport &
Session::degradation()
{
    compile();
    return degradation_;
}

const CompilePassTimings &
Session::passTimings()
{
    compile();
    return pass_timings_;
}

const TuningReport &
Session::tuningReport()
{
    compile();
    return entry_->tuning;
}

Session::CertificateSummary
Session::certificateSummary()
{
    compile();
    CertificateSummary summary;
    for (const CompiledCluster &cluster : compiled()) {
        for (const KernelPlan &plan : cluster.kernels) {
            switch (plan.certificate.verdict) {
            case ShapeCertificate::Verdict::Proven: ++summary.proven; break;
            case ShapeCertificate::Verdict::Fallback:
                ++summary.fallback;
                break;
            case ShapeCertificate::Verdict::Refuted:
                ++summary.refuted;
                break;
            case ShapeCertificate::Verdict::None: ++summary.none; break;
            }
        }
    }
    return summary;
}

JitCacheEntry
Session::compileAllClusters(const Graph &graph) const
{
    const LadderPolicy policy{options_.fail_fast,
                              options_.start_ladder_level};
    JitCacheEntry entry;

    // ---- Clustering, with containment. ----
    // Timings overwrite per attempt, so they describe the attempt that
    // actually produced the clusters.
    for (int retries = kMaxTransientRetries;;) {
        try {
            const auto cluster_t0 = SteadyClock::now();
            entry.clusters = findMemoryIntensiveClusters(graph);
            entry.timings.clustering_ms = msSince(cluster_t0);
            entry.timings.remote_stitch_ms = 0.0;
            if (backend_->wantsRemoteStitching()) {
                const auto stitch_t0 = SteadyClock::now();
                entry.clusters =
                    remoteStitch(graph, std::move(entry.clusters),
                                 options_.max_cluster_nodes);
                entry.timings.remote_stitch_ms = msSince(stitch_t0);
            }
            break;
        } catch (const TransientFault &) {
            if (options_.fail_fast)
                throw;
            if (retries-- > 0) {
                ++entry.degradation.session_retries;
                continue;
            }
        } catch (const std::exception &) {
            if (options_.fail_fast)
                throw;
        }
        // Last resort: one singleton cluster per memory-intensive node.
        // Shielded so a fault cannot chase the recovery path itself.
        FaultShield shield;
        const auto fallback_t0 = SteadyClock::now();
        entry.clusters = fallbackSingletonClusters(graph);
        entry.timings.clustering_ms = msSince(fallback_t0);
        entry.timings.remote_stitch_ms = 0.0;
        entry.degradation.clustering_fallback = true;
        break;
    }

    const std::size_t n = entry.clusters.size();

    // Every cluster compiles and analyzes independently — the
    // embarrassingly-parallel half of the pipeline. Results land in
    // pre-sized slots, so the only cross-thread state is the read-only
    // graph/backend/spec. The ladder contains each cluster's failures
    // inside its own body, so (fail_fast aside) nothing propagates
    // through parallelFor except faults of the task layer itself.
    // CPU time per pass, summed across pool workers. Accumulated in
    // integer nanoseconds: atomic<double>::fetch_add is not universally
    // lock-free and loses precision under contention.
    std::atomic<std::int64_t> backend_compile_ns{0};
    std::atomic<std::int64_t> analysis_ns{0};
    std::atomic<std::int64_t> autotune_ns{0};

    // ---- Autotuning setup (off by default). Tuning only applies to
    // the stitching backend's full-stitch compilations; the DB is
    // loaded once here (lookups see only this snapshot, so results do
    // not depend on the order concurrent clusters finish in) and
    // saved once after the parallel section. Without a path there is
    // no DB: a fresh in-memory one would only ever miss.
    const AStitchBackend *stitch_backend =
        options_.tuning.mode == TuningMode::Off
            ? nullptr
            : dynamic_cast<const AStitchBackend *>(backend_.get());
    const bool tuning_on = stitch_backend != nullptr &&
                           stitch_backend->options().hierarchical_stitching;
    entry.tuning.enabled = tuning_on;
    std::unique_ptr<TuningDb> tuning_db;
    if (tuning_on && !options_.tuning.db_path.empty())
        tuning_db = std::make_unique<TuningDb>(options_.tuning.db_path);
    const auto addNs = [](std::atomic<std::int64_t> &counter,
                          SteadyClock::time_point t0) {
        counter.fetch_add(std::chrono::duration_cast<
                              std::chrono::nanoseconds>(
                              SteadyClock::now() - t0)
                              .count(),
                          std::memory_order_relaxed);
    };

    auto compileOne = [&](std::size_t i) {
        const auto ladder_t0 = SteadyClock::now();
        LadderOutcome outcome = compileClusterWithLadder(
            graph, entry.clusters[i], options_.spec, *backend_, policy);
        addNs(backend_compile_ns, ladder_t0);
        DiagnosticEngine &engine = entry.cluster_diagnostics[i];
        // ---- Autotune before analysis, so analysis (and the AS8xx
        // certificates it attaches) describes the plan that ships.
        // Demoted rungs are not tuned: their plans exist because the
        // full pipeline already failed here.
        if (tuning_on &&
            outcome.degradation.level == LadderLevel::FullStitch) {
            const auto tune_t0 = SteadyClock::now();
            std::string db_key;
            const TuningDbEntry *stored = nullptr;
            if (tuning_db && options_.tuning.max_candidates > 0) {
                db_key = TuningDb::makeKey(
                    clusterFingerprint(graph, entry.clusters[i]),
                    options_.spec.name,
                    tuningOptionsTag(stitch_backend->options()));
                stored = tuning_db->lookup(db_key);
            }
            AutotuneOutcome tuned = autotuneCluster(
                graph, entry.clusters[i], options_.spec,
                stitch_backend->options(), outcome.compiled,
                options_.tuning, stored);
            if (tuning_db && tuned.to_record) {
                tuned.to_record->key = std::move(db_key);
                tuning_db->record(std::move(*tuned.to_record));
            }
            addNs(autotune_ns, tune_t0);
            if (tuned.result.improved) {
                outcome.compiled = std::move(tuned.compiled);
                engine.report(
                    "AS610", "<cluster>",
                    strCat("autotuner replaced the heuristic plan: ",
                           strFixed(tuned.result.heuristic_cost_us, 3),
                           "us -> ",
                           strFixed(tuned.result.tuned_cost_us, 3),
                           "us over ",
                           tuned.result.candidates_evaluated,
                           " candidate(s)",
                           tuned.result.db_hit ? " (tuning-DB hit)"
                                               : ""));
            }
            entry.tuning.clusters[i] = std::move(tuned.result);
        }
        // ---- The one analysis of the plan that ships. Declared
        // dynamic dims certify it for the whole range (AS8xx).
        const auto analysis_t0 = SteadyClock::now();
        try {
            analyzeCompiledCluster(graph, entry.clusters[i],
                                   outcome.compiled, options_.spec, engine,
                                   options_.shape_params);
        } catch (const std::exception &e) {
            if (options_.fail_fast)
                throw;
            // Analysis itself crashed on the plan: drop to the terminal
            // rung, whose single-op kernels the analyses trivially
            // accept.
            outcome.degradation.causes.push_back(
                strCat(ladderLevelName(outcome.degradation.level),
                       ": analysis failed: ", e.what()));
            outcome.degradation.level = LadderLevel::KernelPerOp;
            FaultShield shield;
            outcome.compiled = compileClusterKernelPerOp(
                graph, entry.clusters[i], options_.spec);
            engine.clear();
            analyzeCompiledCluster(graph, entry.clusters[i],
                                   outcome.compiled, options_.spec, engine,
                                   options_.shape_params);
        }
        addNs(analysis_ns, analysis_t0);
        if (outcome.degradation.level != LadderLevel::FullStitch) {
            engine.report(
                "AS601", "<cluster>",
                strCat("compiled at ",
                       ladderLevelName(outcome.degradation.level),
                       " after ", outcome.degradation.causes.size(),
                       " demotion(s): ",
                       strJoin(outcome.degradation.causes, "; ")));
        }
        if (outcome.degradation.retries > 0) {
            engine.report("AS602", "<cluster>",
                          strCat(outcome.degradation.retries,
                                 " transient-fault retr",
                                 outcome.degradation.retries == 1
                                     ? "y"
                                     : "ies",
                                 " absorbed"));
        }
        entry.compiled[i] = std::move(outcome.compiled);
        entry.degradation.clusters[i] = std::move(outcome.degradation);
    };

    auto resetSlots = [&] {
        entry.compiled.assign(n, CompiledCluster{});
        entry.cluster_diagnostics.assign(n, DiagnosticEngine{});
        entry.degradation.clusters.assign(n, ClusterDegradation{});
        entry.tuning.clusters.assign(n, ClusterTuningResult{});
        // Timings track the attempt whose results were kept.
        backend_compile_ns.store(0, std::memory_order_relaxed);
        analysis_ns.store(0, std::memory_order_relaxed);
        autotune_ns.store(0, std::memory_order_relaxed);
    };
    resetSlots();

    const int threads = resolveCompileThreads(options_.compile_threads);
    const auto parallel_t0 = SteadyClock::now();
    for (int retries = kMaxTransientRetries;;) {
        try {
            parallelFor(threads, n, compileOne);
            break;
        } catch (const TransientFault &) {
            if (options_.fail_fast)
                throw;
            if (retries-- > 0) {
                ++entry.degradation.session_retries;
                resetSlots();
                continue;
            }
        } catch (const std::exception &) {
            if (options_.fail_fast)
                throw;
        }
        // The pooled path failed even though every cluster body is
        // contained: the task layer itself is faulty. The serial path
        // has no pooled tasks, so it bypasses that layer entirely.
        resetSlots();
        entry.degradation.serial_fallback = true;
        parallelFor(1, n, compileOne);
        break;
    }
    entry.timings.parallel_section_ms = msSince(parallel_t0);
    entry.timings.backend_compile_ms =
        static_cast<double>(
            backend_compile_ns.load(std::memory_order_relaxed)) *
        1e-6;
    entry.timings.analysis_ms =
        static_cast<double>(analysis_ns.load(std::memory_order_relaxed)) *
        1e-6;
    entry.timings.autotune_ms =
        static_cast<double>(autotune_ns.load(std::memory_order_relaxed)) *
        1e-6;
    if (tuning_db)
        tuning_db->save();
    return entry;
}

std::string
Session::compileCacheKey(const Graph &graph) const
{
    // The compilation's full identity, shared by the in-memory JIT
    // cache and the on-disk artifact tier. Declared shape ranges are
    // part of it — the certificates riding in the cached plans are
    // only valid for their own ranges.
    std::string cache_key =
        JitCache::makeKey(graph, backend_->name(), options_.spec);
    for (const ShapeDim &d : options_.shape_params) {
        cache_key += strCat("|dim:", d.name, "=", d.value, "[", d.lo, ",",
                            d.hi, "]/", d.divisor);
    }
    // Tuning knobs change the plans an entry holds, so they are part
    // of the compilation's identity too (a tuned and an untuned
    // compile of the same graph must not share an entry).
    if (options_.tuning.mode != TuningMode::Off) {
        const TuningOptions &t = options_.tuning;
        cache_key += strCat(
            "|tune:", t.mode == TuningMode::Full ? "full" : "seeded",
            ",b", t.beam_width, ",c", t.max_candidates, ",g",
            t.generations, ",t", t.time_budget_ms, ",s", t.seed, ",db=",
            t.db_path);
    }
    // A forced start rung produces deliberately different plans for the
    // same graph; keep it out of the full compile's cache line.
    if (options_.start_ladder_level != LadderLevel::FullStitch) {
        cache_key +=
            strCat("|rung:", ladderLevelName(options_.start_ladder_level));
    }
    // So do the cluster cap and the stitching options the backend's
    // name leaves out; the tuning DB's tag names the latter.
    if (options_.max_cluster_nodes > 0)
        cache_key += strCat("|cap:", options_.max_cluster_nodes);
    if (const auto *stitch =
            dynamic_cast<const AStitchBackend *>(backend_.get()))
        cache_key += strCat("|stitch:", tuningOptionsTag(stitch->options()));
    return cache_key;
}

void
Session::compileEntry(const Graph &graph)
{
    // The on-disk artifact tier sits beneath the in-memory cache (and
    // works without it): a miss consults the disk, a verified artifact
    // is served without compiling, and a fresh compile is persisted
    // for the next process. Its AS62x events collect locally and merge
    // after commitEntry() resets the session's diagnostics.
    std::unique_ptr<ArtifactCache> artifact_cache;
    if (!options_.artifact_cache_dir.empty()) {
        artifact_cache = std::make_unique<ArtifactCache>(
            options_.artifact_cache_dir,
            options_.artifact_lock_timeout_ms);
    }
    const std::string cache_key =
        options_.use_jit_cache || artifact_cache ? compileCacheKey(graph)
                                                 : std::string();
    DiagnosticEngine artifact_events;

    const auto diskAwareCompile = [&]() -> JitCacheEntry {
        if (!artifact_cache)
            return compileAllClusters(graph);
        // The load gate re-proves a stored plan with the live
        // analyzer (see ArtifactCache::acquire): an artifact is never
        // trusted on checksums alone.
        ArtifactCache::Lease lease = artifact_cache->acquire(
            cache_key, graph, options_.spec, &artifact_events);
        if (lease.entry)
            return std::move(*lease.entry);
        JitCacheEntry fresh = compileAllClusters(graph);
        artifact_cache->publish(lease, cache_key, fresh,
                                &artifact_events);
        return fresh;
    };

    if (!options_.use_jit_cache) {
        commitEntry(
            std::make_shared<const JitCacheEntry>(diskAwareCompile()));
        diagnostics_.merge(artifact_events);
        return;
    }

    // getOrCompile dedupes concurrent sessions compiling the same key:
    // one compiles, the rest share the published entry.
    bool compiled_here = false;
    const auto compile_fn = [&] {
        compiled_here = true;
        return diskAwareCompile();
    };

    std::shared_ptr<const JitCacheEntry> entry;
    bool cache_bypassed = false;
    int publish_retries = 0;
    for (int retries = kMaxTransientRetries;;) {
        compiled_here = false;
        try {
            entry = JitCache::global().getOrCompile(cache_key, compile_fn);
            break;
        } catch (const TransientFault &) {
            if (options_.fail_fast)
                throw;
            if (retries-- > 0) {
                ++publish_retries;
                continue;
            }
        } catch (const InjectedFault &) {
            if (options_.fail_fast)
                throw;
        }
        // With containment on, getOrCompile only throws from the
        // cache-publish boundary — cluster and clustering failures are
        // absorbed inside compile_fn. Losing the cache loses sharing,
        // not correctness: recompile with the cache bypassed.
        compiled_here = true;
        entry = std::make_shared<const JitCacheEntry>(
            compileAllClusters(graph));
        cache_bypassed = true;
        break;
    }

    // Never serve a fault-degraded cached entry as-is: recompile now
    // (the fault may have cleared) and republish when strictly better,
    // so the cache heals instead of pinning the degradation forever.
    // A degradation the session's start rung explains is served as-is.
    bool degraded_hit = false;
    bool republished = false;
    if (!compiled_here && entry->degradation.degraded() &&
        !degradedOnlyByStartRung(entry->degradation,
                                 options_.start_ladder_level)) {
        degraded_hit = true;
        auto fresh = std::make_shared<const JitCacheEntry>(
            compileAllClusters(graph));
        if (!fresh->degradation.degraded() ||
            fresh->degradation.maxLevel() <
                entry->degradation.maxLevel()) {
            JitCache::global().insert(cache_key, fresh);
            republished = true;
        }
        entry = std::move(fresh);
    }

    commitEntry(std::move(entry));
    diagnostics_.merge(artifact_events);

    degradation_.cache_bypassed |= cache_bypassed;
    degradation_.session_retries += publish_retries;
    if (cache_bypassed) {
        diagnostics_.report("AS605", "<graph>",
                            "publishing to the JIT cache failed; "
                            "compilation is not shared across sessions");
    }
    if (degraded_hit) {
        diagnostics_.report(
            "AS606", "<graph>",
            strCat("JIT cache held a degraded entry; recompiled",
                   republished ? " and republished an upgrade"
                               : " (still degraded, cache unchanged)"));
    }
}

void
Session::commitEntry(std::shared_ptr<const JitCacheEntry> entry)
{
    entry_ = std::move(entry);
    diagnostics_.clear();
    degradation_ = entry_->degradation;
    if (degradation_.clustering_fallback) {
        diagnostics_.report("AS603", "<graph>",
                            "cluster identification failed; compiled "
                            "one singleton cluster per "
                            "memory-intensive op");
    }
    if (degradation_.serial_fallback) {
        diagnostics_.report("AS604", "<graph>",
                            "parallel compilation failed at the task "
                            "layer; recompiled serially");
    }
    for (const DiagnosticEngine &engine : entry_->cluster_diagnostics) {
        diagnostics_.merge(engine);

        // Structural (AS0xx) defects keep the historical fatal
        // behaviour and message format of the plan validator. Applied
        // in cluster order, so the failing cluster is the same one a
        // serial compile would have stopped at.
        const DiagnosticEngine structural = engine.withFamily("AS0");
        if (!structural.empty()) {
            std::string message = "invalid compiled cluster:";
            for (const Diagnostic &d : structural.diagnostics())
                message += strCat("\n  [", d.kernel, "] ", d.message);
            fatal(message);
        }
    }
}

RunReport
Session::execute(const TensorMap *feeds)
{
    compile();
    const Graph &graph = activeGraph();
    KernelSim sim(options_.spec);

    TensorMap env;
    TensorMap translated;
    if (feeds) {
        translated = translateFeeds(*feeds);
        for (NodeId n = 0; n < graph.numNodes(); ++n) {
            const Node &node = graph.node(n);
            if (node.kind() == OpKind::Parameter) {
                const auto it = translated.find(n);
                fatalIf(it == translated.end(), "no feed for parameter ",
                        node.name());
                env.emplace(n, it->second);
            } else if (node.kind() == OpKind::Constant) {
                env.emplace(n, node.attrs().literal);
            }
        }
    }

    for (std::int64_t unit : unit_order_) {
        if (unit >= 0) {
            // Memory-intensive cluster: its generated kernels + the
            // memcpy/memset activities its compilation requires.
            const CompiledCluster &compiled =
                entry_->compiled[static_cast<std::size_t>(unit)];
            for (const KernelPlan &kernel : compiled.kernels)
                sim.launch(workDescFor(graph, kernel));
            for (int i = 0; i < compiled.num_memcpy; ++i) {
                sim.memcpy(strCat("cpy_u", unit, "_", i),
                           compiled.memcpy_bytes /
                               std::max(1, compiled.num_memcpy));
            }
            if (feeds)
                executeCompiledCluster(graph, compiled, env);
            continue;
        }

        // Library (compute-intensive) op.
        const NodeId n = static_cast<NodeId>(~unit);
        const Node &node = graph.node(n);
        const Shape &a = graph.node(node.operands()[0]).shape();
        const Shape &b = graph.node(node.operands()[1]).shape();
        std::int64_t batch = 1;
        std::int64_t m, nn, k;
        if (node.kind() == OpKind::MatMul) {
            m = a.dim(0);
            k = a.dim(1);
            nn = b.dim(1);
        } else if (node.kind() == OpKind::Conv3x3) {
            // Implicit GEMM over the 9x patch dimension.
            m = a.dim(0);
            k = b.dim(0);
            nn = b.dim(1);
        } else {
            batch = a.dim(0);
            m = a.dim(1);
            k = a.dim(2);
            nn = b.dim(2);
        }
        sim.launchMatmul(node.name(), batch, m, nn, k,
                         dtypeSizeBytes(node.dtype()),
                         backend_->frameworkOverheadUs());
        if (feeds) {
            std::vector<Tensor> operands;
            for (NodeId op : node.operands()) {
                const auto it = env.find(op);
                panicIf(it == env.end(), "library op %", n,
                        " operand not materialized");
                operands.push_back(it->second);
            }
            env.emplace(n, Evaluator::evalNode(node, operands));
        }
    }

    RunReport report;
    report.backend_name = backend_->name();
    report.compile_ms = compile_ms_;
    report.pass_timings = pass_timings_;
    report.num_clusters = static_cast<int>(entry_->clusters.size());
    report.degradation = degradation_;
    report.tuning = entry_->tuning;
    report.counters = sim.takeCounters();
    report.breakdown = breakdownOf(report.counters);
    report.end_to_end_us = report.counters.endToEndUs();
    if (feeds) {
        for (NodeId out : graph.outputs()) {
            const auto it = env.find(out);
            fatalIf(it == env.end(), "graph output %", out,
                    " was not materialized by any kernel");
            report.outputs.push_back(it->second);
        }
    }
    return report;
}

const Graph &
Session::activeGraph() const
{
    return optimized_ ? *optimized_ : graph_;
}

TensorMap
Session::translateFeeds(const TensorMap &feeds) const
{
    if (!optimized_)
        return feeds;
    // Parameters survive every pass and keep their names; remap feeds
    // from original ids to optimized ids by name.
    std::unordered_map<std::string, NodeId> by_name;
    for (NodeId p : optimized_->parameters())
        by_name.emplace(optimized_->node(p).name(), p);
    TensorMap translated;
    for (const auto &[id, tensor] : feeds) {
        const Node &node = graph_.node(id);
        fatalIf(node.kind() != OpKind::Parameter,
                "feed bound to non-parameter node ", id);
        const auto it = by_name.find(node.name());
        fatalIf(it == by_name.end(), "parameter ", node.name(),
                " vanished during optimization");
        translated.emplace(it->second, tensor);
    }
    return translated;
}

RunReport
Session::run(const TensorMap &feeds)
{
    return execute(&feeds);
}

RunReport
Session::profile()
{
    return execute(nullptr);
}

} // namespace astitch
