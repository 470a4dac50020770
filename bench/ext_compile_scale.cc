/**
 * @file
 * Compile-time scalability sweep (extension of Sec 6.4.1).
 *
 * Runs the three algorithmically-rewritten compile passes — cluster
 * identification, remote stitching and assume-relax-apply launch
 * configuration — at 1k to 100k nodes, side by side with the retained
 * pre-optimization reference implementations, verifying *bit-identical*
 * results and recording both wall times plus peak clustering scratch
 * bytes to BENCH_compile_scale.json. A full-session compile with the
 * per-pass breakdown rides along for context.
 *
 * The segmented random graphs barely split, so each tier also runs
 * cluster identification on CRNN with its time steps scaled to the
 * tier's node count: each LSTM step hangs off the last through matmuls,
 * so the cyclic split has hundreds of levels at 10k nodes. Both
 * clustering times are recorded and the clusters compared.
 *
 * Environment:
 *   ASTITCH_SCALE_MAX_NODES   cap the sweep tier (default 100000); CI
 *                             smoke runs at 10000.
 *   ASTITCH_SCALE_BUDGET_MS   optional wall-clock budget for the
 *                             optimized end-to-end pass total at the
 *                             largest tier run; exceeded => exit 2.
 *   ASTITCH_BENCH_SCALE_JSON  output path (default
 *                             BENCH_compile_scale.json).
 *
 * Exit codes: 0 ok; 2 budget exceeded; 3 optimized/reference mismatch.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "compiler/clustering.h"
#include "core/launch_config.h"
#include "support/strings.h"
#include "workloads/crnn.h"
#include "workloads/random_graph.h"

using namespace astitch;
using namespace astitch::bench;

namespace {

/** Like sec641's sweep graph (matmul dividers) but segmented, so the
 * cluster count grows with the node count instead of saturating — the
 * large-serving-graph regime whose per-node reachability bitsets and
 * O(c^2) group scans made the pre-PR passes superlinear. */
Graph
scaleGraph(int nodes, unsigned seed)
{
    workloads::RandomGraphConfig config;
    config.num_nodes = nodes;
    config.seed = seed;
    config.matmul_probability = 0.15;
    config.segment_size = 100;
    return workloads::buildRandomGraph(config);
}

/** CRNN with as many time steps as fit in about @p nodes nodes. */
Graph
deepSplitGraph(int nodes, int *time_steps)
{
    const auto build = [](int steps) {
        workloads::CrnnConfig config = workloads::CrnnConfig::inference();
        config.time_steps = steps;
        // A multiple of 16 * steps: four rows a step after the pools.
        config.conv_rows = 64 * steps;
        return workloads::buildCrnn(config);
    };
    const int one = build(1).numNodes();
    const int per_step = build(2).numNodes() - one;
    *time_steps = std::max(1, 1 + (nodes - one) / per_step);
    return build(*time_steps);
}

constexpr int kMaxClusterNodes = 64;

using SteadyClock = std::chrono::steady_clock;

double
msSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(SteadyClock::now() -
                                                     t0)
        .count();
}

/** Wall time + peak clustering scratch of one pass invocation. */
struct PassRun
{
    double ms = 0.0;
    std::size_t peak_scratch_bytes = 0;
};

template <typename Fn>
PassRun
timePass(Fn &&fn)
{
    resetClusteringScratchStats();
    const auto t0 = SteadyClock::now();
    fn();
    PassRun run;
    run.ms = msSince(t0);
    run.peak_scratch_bytes = clusteringScratchStats().peak_bytes;
    return run;
}

bool
clustersEqual(const std::vector<Cluster> &a, const std::vector<Cluster> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].nodes != b[i].nodes || a[i].inputs != b[i].inputs ||
            a[i].outputs != b[i].outputs) {
            return false;
        }
    }
    return true;
}

bool
launchEqual(const LaunchConfig &a, const LaunchConfig &b)
{
    return a.launch == b.launch &&
           a.regs_per_thread == b.regs_per_thread &&
           a.blocks_per_wave == b.blocks_per_wave &&
           a.grid_packing == b.grid_packing;
}

/** Deterministic launch-configuration query mix: one per stitched
 * cluster, cycling block sizes, shared-memory budgets and the
 * global-barrier flag. */
struct LaunchQuery
{
    std::int64_t logical_grid;
    int block;
    std::int64_t smem;
    bool barrier;
};

std::vector<LaunchQuery>
launchQueries(std::size_t count)
{
    static constexpr int kBlocks[] = {128, 256, 512, 1024};
    std::vector<LaunchQuery> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        queries.push_back(LaunchQuery{
            static_cast<std::int64_t>(1 + (i * 37) % 4096),
            kBlocks[i % 4],
            static_cast<std::int64_t>((i % 5) * 2048),
            (i & 1) != 0});
    }
    return queries;
}

struct TierRecord
{
    int nodes = 0;
    std::size_t clusters = 0;
    std::size_t stitched = 0;
    PassRun opt_clustering, ref_clustering;
    int crnn_nodes = 0, crnn_time_steps = 0;
    std::size_t crnn_clusters = 0;
    PassRun crnn_opt_clustering, crnn_ref_clustering;
    PassRun opt_stitch, ref_stitch;
    double opt_launch_ms = 0.0, ref_launch_ms = 0.0;
    double opt_end_to_end_ms = 0.0, ref_end_to_end_ms = 0.0;
    double speedup = 0.0;
    double session_compile_ms = 0.0;
    CompilePassTimings session_passes;
};

bool
runTier(int nodes, TierRecord &r)
{
    r.nodes = nodes;
    const Graph graph = scaleGraph(nodes, 17);

    // Pass 1: cluster identification.
    std::vector<Cluster> clusters, clusters_ref;
    r.opt_clustering =
        timePass([&] { clusters = findMemoryIntensiveClusters(graph); });
    r.ref_clustering = timePass(
        [&] { clusters_ref = findMemoryIntensiveClustersReference(graph); });
    r.clusters = clusters.size();
    if (!clustersEqual(clusters, clusters_ref)) {
        std::fprintf(stderr,
                     "MISMATCH: clustering diverges from reference at "
                     "%d nodes\n",
                     nodes);
        return false;
    }

    // Pass 2: remote stitching (same input both sides).
    std::vector<Cluster> stitched, stitched_ref;
    r.opt_stitch = timePass([&] {
        stitched = remoteStitch(graph, clusters, kMaxClusterNodes);
    });
    r.ref_stitch = timePass([&] {
        stitched_ref =
            remoteStitchReference(graph, clusters_ref, kMaxClusterNodes);
    });
    r.stitched = stitched.size();
    if (!clustersEqual(stitched, stitched_ref)) {
        std::fprintf(stderr,
                     "MISMATCH: remote stitching diverges from "
                     "reference at %d nodes\n",
                     nodes);
        return false;
    }

    // Pass 3: launch configuration, one query per stitched cluster.
    const std::vector<LaunchQuery> queries = launchQueries(stitched.size());
    const GpuSpec spec = GpuSpec::v100();
    std::vector<LaunchConfig> launches(queries.size());
    std::vector<LaunchConfig> launches_ref(queries.size());
    {
        const auto t0 = SteadyClock::now();
        for (std::size_t i = 0; i < queries.size(); ++i) {
            const LaunchQuery &q = queries[i];
            launches[i] = configureLaunch(spec, q.logical_grid, q.block,
                                          q.smem, q.barrier);
        }
        r.opt_launch_ms = msSince(t0);
    }
    {
        const auto t0 = SteadyClock::now();
        for (std::size_t i = 0; i < queries.size(); ++i) {
            const LaunchQuery &q = queries[i];
            launches_ref[i] = configureLaunchReference(
                spec, q.logical_grid, q.block, q.smem, q.barrier);
        }
        r.ref_launch_ms = msSince(t0);
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
        if (!launchEqual(launches[i], launches_ref[i])) {
            std::fprintf(stderr,
                         "MISMATCH: configureLaunch diverges from "
                         "reference at %d nodes, query %zu\n",
                         nodes, i);
            return false;
        }
    }

    // Deeply splitting input: cluster identification only.
    {
        const Graph crnn = deepSplitGraph(nodes, &r.crnn_time_steps);
        r.crnn_nodes = crnn.numNodes();
        std::vector<Cluster> opt, ref;
        r.crnn_opt_clustering =
            timePass([&] { opt = findMemoryIntensiveClusters(crnn); });
        r.crnn_ref_clustering = timePass(
            [&] { ref = findMemoryIntensiveClustersReference(crnn); });
        r.crnn_clusters = opt.size();
        if (!clustersEqual(opt, ref)) {
            std::fprintf(stderr,
                         "MISMATCH: clustering diverges from reference on "
                         "CRNN at %d time steps\n",
                         r.crnn_time_steps);
            return false;
        }
    }

    r.opt_end_to_end_ms =
        r.opt_clustering.ms + r.opt_stitch.ms + r.opt_launch_ms;
    r.ref_end_to_end_ms =
        r.ref_clustering.ms + r.ref_stitch.ms + r.ref_launch_ms;
    r.speedup = r.opt_end_to_end_ms > 0.0
                    ? r.ref_end_to_end_ms / r.opt_end_to_end_ms
                    : 0.0;

    // Context: a full session compile (clustering + stitching + backend
    // codegen + analysis + scheduling) with the per-pass breakdown.
    SessionOptions options;
    options.max_cluster_nodes = kMaxClusterNodes;
    Session session(graph, makeBackend(Which::AStitch), options);
    r.session_compile_ms = session.compile();
    r.session_passes = session.passTimings();
    return true;
}

void
printTier(const TierRecord &r)
{
    std::printf("%-8d %9zu %9zu %10.1f %10.1f %10.1f %10.1f %8.1f "
                "%8.1f %8.2fx %9.1f %9.1f\n",
                r.nodes, r.clusters, r.stitched, r.opt_clustering.ms,
                r.ref_clustering.ms, r.opt_stitch.ms, r.ref_stitch.ms,
                r.opt_launch_ms, r.ref_launch_ms, r.speedup,
                static_cast<double>(r.opt_stitch.peak_scratch_bytes) /
                    (1024.0 * 1024.0),
                static_cast<double>(r.ref_stitch.peak_scratch_bytes) /
                    (1024.0 * 1024.0));
    std::printf("%-8s CRNN %d steps, %d nodes, %zu clusters: clustering "
                "%.1f ms, reference %.1f ms\n",
                "", r.crnn_time_steps, r.crnn_nodes, r.crnn_clusters,
                r.crnn_opt_clustering.ms, r.crnn_ref_clustering.ms);
}

void
writeJson(const std::vector<TierRecord> &records, int max_nodes,
          double budget_ms)
{
    const char *env = std::getenv("ASTITCH_BENCH_SCALE_JSON");
    const std::string path = env ? env : "BENCH_compile_scale.json";
    std::ofstream file(path);
    if (!file) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    file << jsonPreamble() << "\"max_nodes\":" << max_nodes
         << ",\"budget_ms\":" << budget_ms << ",\"records\":[";
    for (std::size_t i = 0; i < records.size(); ++i) {
        const TierRecord &r = records[i];
        const CompilePassTimings &t = r.session_passes;
        file << (i ? "," : "") << "{\"nodes\":" << r.nodes
             << ",\"clusters\":" << r.clusters
             << ",\"stitched_clusters\":" << r.stitched
             << ",\"optimized\":{\"clustering_ms\":" << r.opt_clustering.ms
             << ",\"remote_stitch_ms\":" << r.opt_stitch.ms
             << ",\"launch_config_ms\":" << r.opt_launch_ms
             << ",\"end_to_end_ms\":" << r.opt_end_to_end_ms
             << ",\"clustering_peak_scratch_bytes\":"
             << r.opt_clustering.peak_scratch_bytes
             << ",\"stitch_peak_scratch_bytes\":"
             << r.opt_stitch.peak_scratch_bytes
             << "},\"reference\":{\"clustering_ms\":" << r.ref_clustering.ms
             << ",\"remote_stitch_ms\":" << r.ref_stitch.ms
             << ",\"launch_config_ms\":" << r.ref_launch_ms
             << ",\"end_to_end_ms\":" << r.ref_end_to_end_ms
             << ",\"clustering_peak_scratch_bytes\":"
             << r.ref_clustering.peak_scratch_bytes
             << ",\"stitch_peak_scratch_bytes\":"
             << r.ref_stitch.peak_scratch_bytes
             << "},\"crnn\":{\"time_steps\":" << r.crnn_time_steps
             << ",\"nodes\":" << r.crnn_nodes
             << ",\"clusters\":" << r.crnn_clusters
             << ",\"optimized_clustering_ms\":" << r.crnn_opt_clustering.ms
             << ",\"reference_clustering_ms\":" << r.crnn_ref_clustering.ms
             << ",\"optimized_peak_scratch_bytes\":"
             << r.crnn_opt_clustering.peak_scratch_bytes
             << "},\"speedup_end_to_end\":" << r.speedup
             << ",\"session\":{\"compile_ms\":" << r.session_compile_ms
             << ",\"clustering_ms\":" << t.clustering_ms
             << ",\"remote_stitch_ms\":" << t.remote_stitch_ms
             << ",\"backend_compile_ms\":" << t.backend_compile_ms
             << ",\"analysis_ms\":" << t.analysis_ms
             << ",\"parallel_section_ms\":" << t.parallel_section_ms
             << ",\"scheduling_ms\":" << t.scheduling_ms << "}}";
    }
    file << "]}\n";
    std::printf("wrote %zu tier records to %s\n", records.size(),
                path.c_str());
}

int
envInt(const char *name, int fallback)
{
    const char *value = std::getenv(name);
    return value ? std::atoi(value) : fallback;
}

} // namespace

int
main()
{
    const int max_nodes = envInt("ASTITCH_SCALE_MAX_NODES", 100000);
    const double budget_ms =
        static_cast<double>(envInt("ASTITCH_SCALE_BUDGET_MS", 0));

    printHeader(strCat("Compile-time scalability sweep (up to ",
                       max_nodes,
                       " nodes; optimized vs retained reference, "
                       "bit-identical outputs verified)"));
    std::printf("%-8s %9s %9s %10s %10s %10s %10s %8s %8s %9s %9s %9s\n",
                "nodes", "clusters", "stitched", "clust-opt", "clust-ref",
                "stitch-opt", "stitch-ref", "lc-opt", "lc-ref", "speedup",
                "scr-opt", "scr-ref");
    std::printf("%92s %9s %9s\n", "(ms columns; speedup = ref/opt)",
                "(MiB)", "(MiB)");

    std::vector<TierRecord> records;
    for (int nodes : {1000, 5000, 10000, 50000, 100000}) {
        if (nodes > max_nodes)
            continue;
        TierRecord r;
        if (!runTier(nodes, r))
            return 3;
        printTier(r);
        records.push_back(r);
    }
    writeJson(records, max_nodes, budget_ms);

    if (!records.empty() && budget_ms > 0.0 &&
        records.back().opt_end_to_end_ms > budget_ms) {
        std::fprintf(stderr,
                     "BUDGET EXCEEDED: optimized end-to-end %.1f ms > "
                     "%.1f ms at %d nodes\n",
                     records.back().opt_end_to_end_ms, budget_ms,
                     records.back().nodes);
        return 2;
    }
    return 0;
}
