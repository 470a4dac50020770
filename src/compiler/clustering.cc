#include "compiler/clustering.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_map>

#include "graph/traversal.h"
#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

// Several passes below walk node ids in descending order with
// `for (i = numNodes() - 1; i >= 0; --i)`. That idiom silently becomes
// an infinite loop if NodeId ever switches to an unsigned type, so the
// loops use a signed 64-bit index and this guard documents the contract.
static_assert(std::is_signed_v<NodeId>,
              "NodeId must stay signed: reverse-topological descending "
              "loops rely on `i >= 0` terminating");

namespace {

// ---------------------------------------------------------------------
// Scratch accounting (thread-local; see clusteringScratchStats()).
// ---------------------------------------------------------------------

thread_local ClusteringScratchStats t_scratch;

void
scratchAcquire(std::size_t bytes)
{
    t_scratch.current_bytes += bytes;
    t_scratch.peak_bytes =
        std::max(t_scratch.peak_bytes, t_scratch.current_bytes);
}

void
scratchRelease(std::size_t bytes)
{
    t_scratch.current_bytes -=
        std::min(bytes, t_scratch.current_bytes);
}

/** RAII span of live scratch bytes. */
class ScratchBlock
{
  public:
    explicit ScratchBlock(std::size_t bytes) : bytes_(bytes)
    {
        scratchAcquire(bytes_);
    }
    ~ScratchBlock() { scratchRelease(bytes_); }
    ScratchBlock(const ScratchBlock &) = delete;
    ScratchBlock &operator=(const ScratchBlock &) = delete;

  private:
    std::size_t bytes_;
};

// ---------------------------------------------------------------------
// Fixed-width bitset helpers over vector<uint64_t>.
// ---------------------------------------------------------------------

class BitRow
{
  public:
    explicit BitRow(int bits) : words_((bits + 63) / 64, 0) {}

    void set(int i) { words_[i >> 6] |= (1ULL << (i & 63)); }
    bool test(int i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1ULL;
    }
    void orWith(const BitRow &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] |= other.words_[w];
    }
    bool operator==(const BitRow &other) const
    {
        return words_ == other.words_;
    }

    const std::vector<std::uint64_t> &words() const { return words_; }

  private:
    std::vector<std::uint64_t> words_;
};

std::uint64_t
mixWord(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
}

std::uint64_t
hashBitRow(const BitRow &row)
{
    std::uint64_t h = 0x13198a2e03707344ULL;
    for (std::uint64_t w : row.words())
        h = mixWord(h, w);
    return h;
}

} // namespace

ClusteringScratchStats
clusteringScratchStats()
{
    return t_scratch;
}

void
resetClusteringScratchStats()
{
    t_scratch = ClusteringScratchStats{};
}

bool
Cluster::contains(NodeId node) const
{
    return std::binary_search(nodes.begin(), nodes.end(), node);
}

namespace {

/** Above this size, per-edge membership switches from binary search to a
 * stamped bitmap: one O(cluster) stamping pass buys O(1) queries. */
constexpr std::size_t kMembershipBitmapThreshold = 64;

/** Reusable stamp array: stamp[n] == epoch marks n a member. Epochs make
 * re-initialization O(cluster), not O(graph). Thread-local because
 * makeCluster runs inside the PR-2 compile pool. */
thread_local std::vector<std::uint32_t> t_member_stamp;
thread_local std::uint32_t t_member_epoch = 0;

} // namespace

Cluster
makeCluster(const Graph &graph, std::vector<NodeId> nodes)
{
    Cluster cluster;
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    cluster.nodes = std::move(nodes);

    const bool use_bitmap =
        cluster.nodes.size() >= kMembershipBitmapThreshold;
    if (use_bitmap) {
        if (t_member_stamp.size() <
            static_cast<std::size_t>(graph.numNodes())) {
            // Persistent thread-local: registers in the peak but is not
            // held live across calls.
            const ScratchBlock grow_span(
                (graph.numNodes() - t_member_stamp.size()) *
                sizeof(std::uint32_t));
            t_member_stamp.resize(graph.numNodes(), 0);
        }
        if (++t_member_epoch == 0) {
            std::fill(t_member_stamp.begin(), t_member_stamp.end(), 0);
            t_member_epoch = 1;
        }
        for (NodeId n : cluster.nodes)
            t_member_stamp[n] = t_member_epoch;
    }
    const auto is_member = [&](NodeId n) {
        return use_bitmap ? t_member_stamp[n] == t_member_epoch
                          : cluster.contains(n);
    };

    std::vector<NodeId> inputs;
    for (NodeId n : cluster.nodes) {
        for (NodeId op : graph.node(n).operands()) {
            if (!is_member(op))
                inputs.push_back(op);
        }
        bool escapes = graph.isOutput(n);
        for (NodeId u : graph.users(n)) {
            if (!is_member(u)) {
                escapes = true;
                break;
            }
        }
        if (escapes)
            cluster.outputs.push_back(n);
    }
    std::sort(inputs.begin(), inputs.end());
    inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
    cluster.inputs = std::move(inputs);
    return cluster;
}

// =====================================================================
// splitCyclic — optimized worklist form and the retained reference.
// =====================================================================

namespace {

/**
 * Scratch hoisted out of the split iteration: epoch-stamped mark arrays
 * sized once per graph, so each worklist step pays for the nodes it
 * actually touches instead of re-allocating and re-zeroing O(numNodes)
 * vectors per recursion level.
 */
struct SplitScratch
{
    std::vector<std::uint32_t> member, from, to, taint, visited;
    std::uint32_t epoch = 0;
    std::vector<NodeId> stack;
    std::vector<NodeId> from_touched;
    std::vector<NodeId> bridges;

    explicit SplitScratch(int num_nodes)
        : member(num_nodes, 0), from(num_nodes, 0), to(num_nodes, 0),
          taint(num_nodes, 0), visited(num_nodes, 0)
    {
    }

    static std::size_t bytesFor(int num_nodes)
    {
        return 5 * sizeof(std::uint32_t) *
               static_cast<std::size_t>(num_nodes);
    }

    void nextEpoch()
    {
        if (++epoch == 0) {
            std::fill(member.begin(), member.end(), 0u);
            std::fill(from.begin(), from.end(), 0u);
            std::fill(to.begin(), to.end(), 0u);
            std::fill(taint.begin(), taint.end(), 0u);
            std::fill(visited.begin(), visited.end(), 0u);
            epoch = 1;
        }
    }
};

/**
 * Split a cluster that is cyclic through external nodes (a path leaves
 * the cluster and re-enters it). Nodes downstream of any such external
 * "bridge" are peeled off and re-clustered; the rest is cycle-free
 * (Sec 4.1: "no cyclic dependence is allowed").
 *
 * Worklist form of the reference recursion: the explicit LIFO stack
 * replays the recursion's depth-first order (safe components first,
 * then tainted), so the appended clusters land in `out` in exactly the
 * reference order.
 *
 * Node ids are topological (an operand's id is below its user's), so
 * every path between two members stays inside the members' id range:
 * a bridge lies strictly between the smallest and the largest member,
 * and so does every node on a path from a bridge to a member. The
 * forward and taint walks therefore stop above the largest member and
 * the backward walk below the smallest.
 */
void
splitCyclicInto(const Graph &graph, SplitScratch &scratch,
                Cluster initial, std::vector<Cluster> &out)
{
    std::vector<Cluster> pending;
    pending.push_back(std::move(initial));

    while (!pending.empty()) {
        Cluster cluster = std::move(pending.back());
        pending.pop_back();

        scratch.nextEpoch();
        const std::uint32_t e = scratch.epoch;
        for (NodeId n : cluster.nodes)
            scratch.member[n] = e;
        const NodeId lowest = cluster.nodes.front();
        const NodeId highest = cluster.nodes.back();

        // External nodes reachable from the cluster (forward over
        // users); every marked node is recorded so the bridge scan
        // below touches only this frontier, never the whole graph.
        std::vector<NodeId> &stack = scratch.stack;
        stack.clear();
        scratch.from_touched.clear();
        for (NodeId n : cluster.nodes)
            stack.push_back(n);
        while (!stack.empty()) {
            const NodeId n = stack.back();
            stack.pop_back();
            for (NodeId u : graph.users(n)) {
                if (u < highest && scratch.member[u] != e &&
                    scratch.from[u] != e) {
                    scratch.from[u] = e;
                    scratch.from_touched.push_back(u);
                    stack.push_back(u);
                }
            }
        }
        // External nodes that reach the cluster (backward over
        // operands).
        for (NodeId n : cluster.nodes)
            stack.push_back(n);
        while (!stack.empty()) {
            const NodeId n = stack.back();
            stack.pop_back();
            for (NodeId op : graph.node(n).operands()) {
                if (op > lowest && scratch.member[op] != e &&
                    scratch.to[op] != e) {
                    scratch.to[op] = e;
                    stack.push_back(op);
                }
            }
        }

        // Bridges close a cycle through the cluster.
        scratch.bridges.clear();
        for (NodeId n : scratch.from_touched) {
            if (scratch.to[n] == e)
                scratch.bridges.push_back(n);
        }
        if (scratch.bridges.empty()) {
            out.push_back(std::move(cluster));
            continue;
        }

        // Members downstream of a bridge are tainted; the rest is safe.
        for (NodeId b : scratch.bridges)
            stack.push_back(b);
        while (!stack.empty()) {
            const NodeId n = stack.back();
            stack.pop_back();
            for (NodeId u : graph.users(n)) {
                if (u <= highest && scratch.taint[u] != e) {
                    scratch.taint[u] = e;
                    stack.push_back(u);
                }
            }
        }

        // Undirected connected components restricted to the members of
        // one taint class. Seeds iterate cluster.nodes ascending (the
        // list is sorted), matching connectedComponents()'s
        // ascending-seed component order in the reference.
        const auto components = [&](bool tainted_part) {
            std::vector<std::vector<NodeId>> comps;
            for (NodeId seed : cluster.nodes) {
                if ((scratch.taint[seed] == e) != tainted_part ||
                    scratch.visited[seed] == e) {
                    continue;
                }
                comps.emplace_back();
                std::vector<NodeId> &component = comps.back();
                scratch.visited[seed] = e;
                stack.clear();
                stack.push_back(seed);
                while (!stack.empty()) {
                    const NodeId n = stack.back();
                    stack.pop_back();
                    component.push_back(n);
                    const auto visit = [&](NodeId m) {
                        if (scratch.member[m] == e &&
                            (scratch.taint[m] == e) == tainted_part &&
                            scratch.visited[m] != e) {
                            scratch.visited[m] = e;
                            stack.push_back(m);
                        }
                    };
                    for (NodeId op : graph.node(n).operands())
                        visit(op);
                    for (NodeId u : graph.users(n))
                        visit(u);
                }
                std::sort(component.begin(), component.end());
            }
            return comps;
        };

        std::vector<std::vector<NodeId>> safe = components(false);
        std::vector<std::vector<NodeId>> tainted = components(true);

        // LIFO: push tainted first and safe on top, each reversed, so
        // pops visit safe components (and, recursively, their children)
        // before tainted ones — the reference recursion order.
        for (auto it = tainted.rbegin(); it != tainted.rend(); ++it)
            pending.push_back(makeCluster(graph, std::move(*it)));
        for (auto it = safe.rbegin(); it != safe.rend(); ++it)
            pending.push_back(makeCluster(graph, std::move(*it)));
    }
}

/** Reference splitCyclic (recursive, per-call O(numNodes) scratch). */
void
splitCyclicReference(const Graph &graph, Cluster cluster,
                     std::vector<Cluster> &out)
{
    // 4 byte-vectors + 2 bool-vectors of graph size per recursion level.
    const ScratchBlock scratch_span(
        4 * static_cast<std::size_t>(graph.numNodes()) +
        static_cast<std::size_t>(graph.numNodes()) / 4);

    std::vector<char> member(graph.numNodes(), 0);
    for (NodeId n : cluster.nodes)
        member[n] = 1;

    // External nodes reachable from the cluster (forward over users).
    std::vector<char> from_cluster(graph.numNodes(), 0);
    std::vector<NodeId> stack;
    for (NodeId n : cluster.nodes)
        stack.push_back(n);
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        for (NodeId u : graph.users(n)) {
            if (!member[u] && !from_cluster[u]) {
                from_cluster[u] = 1;
                stack.push_back(u);
            }
        }
    }
    // External nodes that reach the cluster (backward over operands).
    std::vector<char> to_cluster(graph.numNodes(), 0);
    for (NodeId n : cluster.nodes)
        stack.push_back(n);
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        for (NodeId op : graph.node(n).operands()) {
            if (!member[op] && !to_cluster[op]) {
                to_cluster[op] = 1;
                stack.push_back(op);
            }
        }
    }

    // Bridges close a cycle through the cluster.
    std::vector<NodeId> bridges;
    for (NodeId n = 0; n < graph.numNodes(); ++n) {
        if (!member[n] && from_cluster[n] && to_cluster[n])
            bridges.push_back(n);
    }
    if (bridges.empty()) {
        out.push_back(std::move(cluster));
        return;
    }

    // Members downstream of a bridge are tainted; the rest is safe.
    std::vector<char> tainted(graph.numNodes(), 0);
    stack = bridges;
    while (!stack.empty()) {
        const NodeId n = stack.back();
        stack.pop_back();
        for (NodeId u : graph.users(n)) {
            if (!tainted[u]) {
                tainted[u] = 1;
                stack.push_back(u);
            }
        }
    }
    std::vector<bool> safe_scope(graph.numNodes(), false);
    std::vector<bool> tainted_scope(graph.numNodes(), false);
    for (NodeId n : cluster.nodes)
        (tainted[n] ? tainted_scope : safe_scope)[n] = true;

    for (auto &component : connectedComponents(graph, safe_scope))
        splitCyclicReference(graph, makeCluster(graph, std::move(component)),
                             out);
    for (auto &component : connectedComponents(graph, tainted_scope))
        splitCyclicReference(graph, makeCluster(graph, std::move(component)),
                             out);
}

std::vector<bool>
memoryIntensiveScope(const Graph &graph)
{
    std::vector<bool> in_scope(graph.numNodes(), false);
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const OpKind kind = graph.node(id).kind();
        in_scope[id] = isMemoryIntensive(kind) && !isSource(kind);
    }
    return in_scope;
}

} // namespace

std::vector<Cluster>
findMemoryIntensiveClusters(const Graph &graph)
{
    faultPoint("clustering");
    const std::vector<bool> in_scope = memoryIntensiveScope(graph);
    std::vector<Cluster> clusters;
    SplitScratch scratch(graph.numNodes());
    const ScratchBlock scratch_span(
        SplitScratch::bytesFor(graph.numNodes()));
    for (auto &component : connectedComponents(graph, in_scope)) {
        splitCyclicInto(graph, scratch,
                        makeCluster(graph, std::move(component)),
                        clusters);
    }
    return clusters;
}

std::vector<Cluster>
findMemoryIntensiveClustersReference(const Graph &graph)
{
    const std::vector<bool> in_scope = memoryIntensiveScope(graph);
    std::vector<Cluster> clusters;
    for (auto &component : connectedComponents(graph, in_scope)) {
        splitCyclicReference(graph,
                             makeCluster(graph, std::move(component)),
                             clusters);
    }
    return clusters;
}

std::vector<Cluster>
fallbackSingletonClusters(const Graph &graph)
{
    std::vector<Cluster> clusters;
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const OpKind kind = graph.node(id).kind();
        if (isMemoryIntensive(kind) && !isSource(kind))
            clusters.push_back(makeCluster(graph, {id}));
    }
    return clusters;
}

// =====================================================================
// remoteStitch — condensed-DAG reachability + hashed closure grouping,
// and the retained per-node reference.
// =====================================================================

namespace {

/**
 * Reference cluster reachability: one BitRow(num_clusters) per node,
 * accumulated in reverse topological order (creation order is
 * topological). O(numNodes * num_clusters) bits of scratch.
 */
std::vector<BitRow>
referenceClusterReach(const Graph &graph,
                      const std::vector<int> &cluster_of, int num_clusters)
{
    const std::size_t row_bytes =
        static_cast<std::size_t>((num_clusters + 63) / 64) * 8;
    const ScratchBlock scratch_span(
        (static_cast<std::size_t>(graph.numNodes()) + num_clusters) *
        row_bytes);

    // Downstream cluster reachability per node, in reverse topological
    // order. Signed 64-bit index: see the NodeId static_assert above.
    std::vector<BitRow> node_reach(graph.numNodes(),
                                   BitRow(num_clusters));
    for (std::int64_t i = graph.numNodes() - 1; i >= 0; --i) {
        const NodeId n = static_cast<NodeId>(i);
        for (NodeId u : graph.users(n)) {
            if (cluster_of[u] >= 0 && cluster_of[u] != cluster_of[n])
                node_reach[n].set(cluster_of[u]);
            node_reach[n].orWith(node_reach[u]);
        }
    }

    // reach[a] = set of clusters reachable from cluster a.
    std::vector<BitRow> reach(num_clusters, BitRow(num_clusters));
    for (NodeId n = 0; n < graph.numNodes(); ++n) {
        if (cluster_of[n] >= 0)
            reach[cluster_of[n]].orWith(node_reach[n]);
    }
    return reach;
}

/**
 * Cluster reachability over a condensed DAG: one vertex per cluster
 * plus only the external nodes that lie on some cluster-to-cluster path
 * (reachable from a cluster AND reaching a cluster — any external on a
 * contributing path satisfies both). Bitsets exist per condensed vertex
 * instead of per graph node, and external rows are freed as soon as
 * their last predecessor has consumed them, so live scratch tracks the
 * frontier width, not the graph.
 *
 * Returns false when the condensed graph is cyclic — only possible when
 * a cluster reaches itself through external nodes, which splitCyclic
 * rules out for any input produced by findMemoryIntensiveClusters. The
 * caller then falls back to referenceClusterReach(), which reproduces
 * the historical result for such inputs.
 */
bool
condensedClusterReach(const Graph &graph,
                      const std::vector<int> &cluster_of, int num_clusters,
                      std::vector<BitRow> &reach)
{
    const int num_nodes = graph.numNodes();

    // Which externals matter. Ids ascend topologically, so one forward
    // sweep computes "reachable from a cluster" and one backward sweep
    // computes "reaches a cluster".
    std::vector<char> from_cluster(num_nodes, 0);
    std::vector<char> to_cluster(num_nodes, 0);
    const ScratchBlock flag_span(2 * static_cast<std::size_t>(num_nodes));
    for (NodeId n = 0; n < num_nodes; ++n) {
        if (cluster_of[n] >= 0)
            continue;
        for (NodeId op : graph.node(n).operands()) {
            if (cluster_of[op] >= 0 || from_cluster[op]) {
                from_cluster[n] = 1;
                break;
            }
        }
    }
    for (std::int64_t i = num_nodes - 1; i >= 0; --i) {
        const NodeId n = static_cast<NodeId>(i);
        if (cluster_of[n] >= 0)
            continue;
        for (NodeId u : graph.users(n)) {
            if (cluster_of[u] >= 0 || to_cluster[u]) {
                to_cluster[n] = 1;
                break;
            }
        }
    }

    // Condensed vertex ids: [0, num_clusters) are clusters, then the
    // relevant externals in ascending node order.
    std::vector<int> vertex_of(num_nodes, -1);
    int num_vertices = num_clusters;
    for (NodeId n = 0; n < num_nodes; ++n) {
        if (cluster_of[n] >= 0)
            vertex_of[n] = cluster_of[n];
        else if (from_cluster[n] && to_cluster[n])
            vertex_of[n] = num_vertices++;
    }

    // Condensed edges in CSR form (two counting passes; multi-edges are
    // kept — the closure DP just or-s a row twice).
    std::vector<int> out_degree(num_vertices, 0);
    std::vector<int> in_degree(num_vertices, 0);
    for (NodeId n = 0; n < num_nodes; ++n) {
        const int v = vertex_of[n];
        if (v < 0)
            continue;
        for (NodeId u : graph.users(n)) {
            const int w = vertex_of[u];
            if (w >= 0 && w != v) {
                ++out_degree[v];
                ++in_degree[w];
            }
        }
    }
    std::vector<int> edge_begin(num_vertices + 1, 0);
    for (int v = 0; v < num_vertices; ++v)
        edge_begin[v + 1] = edge_begin[v] + out_degree[v];
    std::vector<int> edges(edge_begin[num_vertices]);
    {
        std::vector<int> fill = edge_begin;
        for (NodeId n = 0; n < num_nodes; ++n) {
            const int v = vertex_of[n];
            if (v < 0)
                continue;
            for (NodeId u : graph.users(n)) {
                const int w = vertex_of[u];
                if (w >= 0 && w != v)
                    edges[fill[v]++] = w;
            }
        }
    }
    const ScratchBlock csr_span(
        (edges.size() + 3 * static_cast<std::size_t>(num_vertices)) *
        sizeof(int));

    // Kahn topological order of the condensed graph.
    std::vector<int> order;
    order.reserve(num_vertices);
    {
        std::vector<int> pending = in_degree;
        std::vector<int> ready;
        for (int v = 0; v < num_vertices; ++v) {
            if (pending[v] == 0)
                ready.push_back(v);
        }
        while (!ready.empty()) {
            const int v = ready.back();
            ready.pop_back();
            order.push_back(v);
            for (int e = edge_begin[v]; e < edge_begin[v + 1]; ++e) {
                if (--pending[edges[e]] == 0)
                    ready.push_back(edges[e]);
            }
        }
    }
    if (static_cast<int>(order.size()) != num_vertices)
        return false; // cyclic-through-externals input: caller falls back

    // Reverse-topological closure DP. Cluster rows are the result;
    // external rows are freed once every predecessor has or-ed them in.
    const std::size_t row_bytes =
        static_cast<std::size_t>((num_clusters + 63) / 64) * 8;
    reach.assign(num_clusters, BitRow(num_clusters));
    scratchAcquire(static_cast<std::size_t>(num_clusters) * row_bytes);
    std::vector<std::unique_ptr<BitRow>> ext_reach(
        num_vertices - num_clusters);
    std::vector<int> pending_in = in_degree;
    std::size_t ext_live_bytes = 0;

    const auto row_for = [&](int v) -> BitRow & {
        if (v < num_clusters)
            return reach[v];
        std::unique_ptr<BitRow> &row = ext_reach[v - num_clusters];
        if (!row) {
            row = std::make_unique<BitRow>(num_clusters);
            ext_live_bytes += row_bytes;
            scratchAcquire(row_bytes);
        }
        return *row;
    };

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const int v = *it;
        BitRow &row = row_for(v);
        for (int e = edge_begin[v]; e < edge_begin[v + 1]; ++e) {
            const int w = edges[e];
            if (w < num_clusters)
                row.set(w);
            row.orWith(row_for(w));
            if (--pending_in[w] == 0 && w >= num_clusters) {
                ext_reach[w - num_clusters].reset();
                ext_live_bytes -= row_bytes;
                scratchRelease(row_bytes);
            }
        }
    }
    scratchRelease(static_cast<std::size_t>(num_clusters) * row_bytes +
                   ext_live_bytes);
    return true;
}

/** Shared group bookkeeping of both merge paths. */
struct ClosureGroup
{
    std::vector<int> members;
    int representative; ///< first member; its closure defines the group
    int total_nodes = 0;
};

/**
 * Merge clusters with *identical* downstream-reachability closures.
 *
 * Pairwise mutual unreachability is not enough: two merged groups
 * {A,B} and {C,D} deadlock at the unit level when A feeds C while D
 * feeds B, even though no pair inside either group is related. With
 * equal closures the standard induction shows any unit-level cycle
 * collapses to a cluster reaching itself through external nodes —
 * which splitCyclic() has already ruled out — so equal-closure
 * grouping can never create a cyclic stitch op.
 */
std::vector<Cluster>
mergeClosureGroups(const Graph &graph,
                   const std::vector<Cluster> &clusters,
                   const std::vector<ClosureGroup> &groups)
{
    std::vector<Cluster> merged;
    merged.reserve(groups.size());
    for (const ClosureGroup &g : groups) {
        std::vector<NodeId> nodes;
        for (int c : g.members) {
            nodes.insert(nodes.end(), clusters[c].nodes.begin(),
                         clusters[c].nodes.end());
        }
        merged.push_back(makeCluster(graph, std::move(nodes)));
    }
    return merged;
}

std::vector<int>
clusterOf(const Graph &graph, const std::vector<Cluster> &clusters)
{
    std::vector<int> cluster_of(graph.numNodes(), -1);
    for (int c = 0; c < static_cast<int>(clusters.size()); ++c) {
        for (NodeId n : clusters[c].nodes)
            cluster_of[n] = c;
    }
    return cluster_of;
}

} // namespace

std::vector<Cluster>
remoteStitch(const Graph &graph, std::vector<Cluster> clusters,
             int max_cluster_nodes)
{
    const int num_clusters = static_cast<int>(clusters.size());
    if (num_clusters <= 1)
        return clusters;

    const std::vector<int> cluster_of = clusterOf(graph, clusters);

    std::vector<BitRow> reach;
    if (!condensedClusterReach(graph, cluster_of, num_clusters, reach))
        reach = referenceClusterReach(graph, cluster_of, num_clusters);

    // Greedy first-fit over closure groups, resolved through a hash of
    // the closure bitset: only groups whose closure can match are
    // scanned, in creation order, so the placement (and therefore the
    // output) is identical to the reference's scan over all groups —
    // groups with unequal closures never matched anyway.
    std::vector<ClosureGroup> groups;
    std::unordered_map<std::uint64_t, std::vector<int>> groups_by_hash;
    for (int c = 0; c < num_clusters; ++c) {
        const int c_nodes = static_cast<int>(clusters[c].nodes.size());
        std::vector<int> &bucket = groups_by_hash[hashBitRow(reach[c])];
        bool placed = false;
        for (int gi : bucket) {
            ClosureGroup &g = groups[gi];
            if (max_cluster_nodes > 0 &&
                g.total_nodes + c_nodes > max_cluster_nodes) {
                continue;
            }
            if (!(reach[g.representative] == reach[c]))
                continue;
            g.members.push_back(c);
            g.total_nodes += c_nodes;
            placed = true;
            break;
        }
        if (!placed) {
            bucket.push_back(static_cast<int>(groups.size()));
            groups.push_back(ClosureGroup{{c}, c, c_nodes});
        }
    }
    return mergeClosureGroups(graph, clusters, groups);
}

std::vector<Cluster>
remoteStitchReference(const Graph &graph, std::vector<Cluster> clusters,
                      int max_cluster_nodes)
{
    const int num_clusters = static_cast<int>(clusters.size());
    if (num_clusters <= 1)
        return clusters;

    const std::vector<int> cluster_of = clusterOf(graph, clusters);
    const std::vector<BitRow> reach =
        referenceClusterReach(graph, cluster_of, num_clusters);

    // Linear first-fit over all groups (the pre-PR O(c^2) scan).
    std::vector<ClosureGroup> groups;
    for (int c = 0; c < num_clusters; ++c) {
        const int c_nodes = static_cast<int>(clusters[c].nodes.size());
        bool placed = false;
        for (ClosureGroup &g : groups) {
            if (max_cluster_nodes > 0 &&
                g.total_nodes + c_nodes > max_cluster_nodes) {
                continue;
            }
            if (!(reach[g.representative] == reach[c]))
                continue;
            g.members.push_back(c);
            g.total_nodes += c_nodes;
            placed = true;
            break;
        }
        if (!placed)
            groups.push_back(ClosureGroup{{c}, c, c_nodes});
    }
    return mergeClosureGroups(graph, clusters, groups);
}

} // namespace astitch
