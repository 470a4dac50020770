/**
 * @file
 * Stitching-scope identification (Sec 4.1).
 *
 * Memory-intensive subgraphs are the connected regions of element-wise +
 * reduce operators delimited by compute-intensive ops. Each becomes a
 * candidate *stitch op*. Remote stitching then merges mutually-independent
 * clusters into larger stitch ops, guarded against cyclic dependence.
 */
#ifndef ASTITCH_COMPILER_CLUSTERING_H
#define ASTITCH_COMPILER_CLUSTERING_H

#include <vector>

#include "graph/graph.h"

namespace astitch {

/** One memory-intensive cluster (a future stitch op / fusion scope). */
struct Cluster
{
    /** Member nodes, sorted ascending (hence topologically). */
    std::vector<NodeId> nodes;

    /**
     * Values produced outside and consumed inside: parameters, constants
     * and compute-intensive results feeding the cluster.
     */
    std::vector<NodeId> inputs;

    /**
     * Member nodes whose value escapes: consumed outside the cluster or
     * marked as graph outputs.
     */
    std::vector<NodeId> outputs;

    bool contains(NodeId node) const;
};

/**
 * Identify memory-intensive clusters: connected components of non-source
 * memory-intensive nodes, split until no cluster reaches itself through
 * external nodes. Input/output frontiers are populated. Sources
 * (Parameter/Constant) are treated as cluster inputs, not members. A
 * recurrent graph's split costs about linear time in its length (one
 * walk per run of levels, DESIGN §11).
 */
std::vector<Cluster> findMemoryIntensiveClusters(const Graph &graph);

/**
 * Degraded clustering for the fault-tolerant pipeline: one singleton
 * cluster per non-source memory-intensive node, with frontiers
 * recomputed. Covers exactly the nodes findMemoryIntensiveClusters()
 * would cover, performs no connectivity or cycle analysis, and is
 * therefore total — the session's last resort when cluster
 * identification itself fails.
 */
std::vector<Cluster> fallbackSingletonClusters(const Graph &graph);

/**
 * Remote stitching: repeatedly merge cluster pairs that have no
 * dependency path between them in either direction (merging such pairs
 * can never create a cycle). Returns the reduced cluster list. @p
 * max_cluster_nodes bounds the merged size (resource guard); <= 0 means
 * unbounded.
 *
 * Scaling: cluster-to-cluster reachability is computed over a condensed
 * DAG (one vertex per cluster plus only the external nodes lying on a
 * cluster-to-cluster path) and closure-equal grouping is resolved
 * through a hash of the closure bitset, so the expected cost is
 * O(V + E + c^2/64) instead of the reference implementation's
 * O(V*c) memory and O(c^2) group scans. The condensed closure treats a
 * cluster as one unit: a cluster that feeds one member of cluster B
 * reaches whatever any member of B reaches. remoteStitchReference()
 * closes over nodes instead, so the two group differently when a
 * cluster reaches another only through a third cluster's other members
 * (one cluster of ASR's 74); elsewhere the output is bit-identical. If
 * the precondition is violated (clusters cyclic through external nodes,
 * which findMemoryIntensiveClusters() never returns) the condensed graph
 * is cyclic and the implementation falls back to the reference
 * reachability computation.
 */
std::vector<Cluster> remoteStitch(const Graph &graph,
                                  std::vector<Cluster> clusters,
                                  int max_cluster_nodes = 0);

/** Recompute the input/output frontiers of a node set. Membership tests
 * switch from per-edge binary search to a stamped bitmap once the
 * cluster is large enough for the bitmap to amortize. */
Cluster makeCluster(const Graph &graph, std::vector<NodeId> nodes);

// ---------------------------------------------------------------------
// Reference implementations (pre-optimization), retained verbatim so the
// equivalence property tests and bench/ext_compile_scale can prove the
// optimized passes bit-identical and measure the speedup against the
// true pre-PR code paths.
// ---------------------------------------------------------------------

/** Reference findMemoryIntensiveClusters(): recursive splitCyclic with
 * per-call O(numNodes) scratch vectors and whole-graph bridge scans, one
 * recursion level per peeled level. */
std::vector<Cluster> findMemoryIntensiveClustersReference(const Graph &graph);

/** Reference remoteStitch(): one BitRow(num_clusters) per node and
 * linear first-fit scans over all closure groups. */
std::vector<Cluster> remoteStitchReference(const Graph &graph,
                                           std::vector<Cluster> clusters,
                                           int max_cluster_nodes = 0);

// ---------------------------------------------------------------------
// Scratch-memory accounting (bench/ext_compile_scale's "peak scratch
// bytes" column). Thread-local, so the PR-2 compile pool never races it.
// ---------------------------------------------------------------------

struct ClusteringScratchStats
{
    /** High-water mark of live clustering scratch since the last reset. */
    std::size_t peak_bytes = 0;

    /** Currently live scratch (0 outside the clustering passes). */
    std::size_t current_bytes = 0;
};

/** Counters for this thread (optimized and reference passes both). */
ClusteringScratchStats clusteringScratchStats();
void resetClusteringScratchStats();

} // namespace astitch

#endif // ASTITCH_COMPILER_CLUSTERING_H
