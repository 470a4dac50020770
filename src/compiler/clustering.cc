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

/** makeCluster() of a node list already sorted and unique. */
Cluster
makeSortedCluster(const Graph &graph, std::vector<NodeId> nodes)
{
    Cluster cluster;
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

} // namespace

Cluster
makeCluster(const Graph &graph, std::vector<NodeId> nodes)
{
    std::sort(nodes.begin(), nodes.end());
    nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
    return makeSortedCluster(graph, std::move(nodes));
}

// =====================================================================
// splitCyclic — optimized worklist form and the retained reference.
// =====================================================================

namespace {

/**
 * Scratch of the cyclic split, sized once per graph. The per-node
 * stamps are epoch-marked, so a piece pays for the nodes it touches
 * instead of re-zeroing O(numNodes) arrays; node lists live in flat
 * buffers that every piece reuses.
 */
struct SplitScratch
{
    std::vector<std::uint32_t> member, reached, linked; ///< epoch stamps
    std::vector<int> depth;     ///< crossings, on linked nodes
    std::vector<NodeId> parent; ///< union-find forest over members
    std::vector<int> label;     ///< component of a member
    std::uint32_t epoch = 0;

    /** One node of the DFS stack: its next operand to try, and whether
     * a member is known to reach it. */
    struct Frame
    {
        NodeId node;
        std::uint32_t next;
        bool linked;
    };

    std::vector<NodeId> stack; ///< in-scope nodes, then the DFS order
    std::vector<Frame> frames;
    std::vector<NodeId> pending; ///< pieces still to split, back to back
    std::vector<std::size_t> pending_begin; ///< their starts, LIFO
    std::vector<NodeId> comp_nodes; ///< one piece's members by component
    std::vector<int> comp_begin;    ///< offsets into comp_nodes
    std::vector<int> by_depth;      ///< members, then components, by level
    std::vector<int> level_begin;   ///< offsets into by_depth

    explicit SplitScratch(int num_nodes)
        : member(num_nodes, 0), reached(num_nodes, 0), linked(num_nodes, 0),
          depth(num_nodes, 0), parent(num_nodes, 0), label(num_nodes, 0)
    {
    }

    static std::size_t bytesFor(int num_nodes)
    {
        return 6 * sizeof(std::uint32_t) *
               static_cast<std::size_t>(num_nodes);
    }

    /** The flat buffers at their high-water capacity. */
    std::size_t bufferBytes() const
    {
        return (stack.capacity() + pending.capacity() +
                comp_nodes.capacity()) *
                   sizeof(NodeId) +
               frames.capacity() * sizeof(frames[0]) +
               pending_begin.capacity() * sizeof(std::size_t) +
               (comp_begin.capacity() + by_depth.capacity() +
                level_begin.capacity()) *
                   sizeof(int);
    }

    void nextEpoch()
    {
        if (++epoch == 0) {
            std::fill(member.begin(), member.end(), 0u);
            std::fill(reached.begin(), reached.end(), 0u);
            std::fill(linked.begin(), linked.end(), 0u);
            epoch = 1;
        }
    }

    /** Union-find root of @p n, halving the path on the way. */
    NodeId root(NodeId n)
    {
        while (parent[n] != n) {
            parent[n] = parent[parent[n]];
            n = parent[n];
        }
        return n;
    }

    /** Join the sets of @p a and @p b under the smaller root, so a
     * set's root is its smallest member. Returns whether they were
     * apart. */
    bool join(NodeId a, NodeId b)
    {
        a = root(a);
        b = root(b);
        if (a == b)
            return false;
        parent[std::max(a, b)] = std::min(a, b);
        return true;
    }

    /**
     * Number the union-find sets of @p first..@p last (ascending) by
     * their smallest member and bucket the members into comp_nodes,
     * set c at [comp_begin[c], comp_begin[c + 1]). Members are visited
     * in ascending order, so every bucket comes out sorted. Returns the
     * number of sets.
     */
    int bucketComponents(const NodeId *first, const NodeId *last)
    {
        comp_begin.assign(1, 0);
        for (const NodeId *p = first; p != last; ++p) {
            const NodeId r = root(*p);
            if (r == *p) {
                label[r] = static_cast<int>(comp_begin.size()) - 1;
                comp_begin.push_back(0);
            }
            label[*p] = label[r];
            ++comp_begin[label[*p] + 1];
        }
        const int num = static_cast<int>(comp_begin.size()) - 1;
        for (int c = 0; c < num; ++c)
            comp_begin[c + 1] += comp_begin[c];
        comp_nodes.resize(last - first);
        // comp_begin[c] advances to set c's end while filling, which is
        // where set c + 1 begins: shift back by one afterwards.
        for (const NodeId *p = first; p != last; ++p)
            comp_nodes[comp_begin[label[*p]]++] = *p;
        for (int c = num; c > 0; --c)
            comp_begin[c] = comp_begin[c - 1];
        comp_begin[0] = 0;
        return num;
    }

    /** Node list of set @p c after bucketComponents(). */
    std::vector<NodeId> component(int c) const
    {
        return std::vector<NodeId>(comp_nodes.begin() + comp_begin[c],
                                   comp_nodes.begin() + comp_begin[c + 1]);
    }

    /** Queue set @p c after bucketComponents() as the next piece. */
    void pushComponent(int c)
    {
        pending_begin.push_back(pending.size());
        pending.insert(pending.end(), comp_nodes.begin() + comp_begin[c],
                       comp_nodes.begin() + comp_begin[c + 1]);
    }

    /**
     * Stable counting sort of @p n items with keys 0..@p max_key into
     * by_depth, key k at [level_begin[k], level_begin[k + 1]).
     */
    template <class Key>
    void sortByKey(int n, int max_key, Key &&key)
    {
        level_begin.assign(max_key + 2, 0);
        for (int i = 0; i < n; ++i)
            ++level_begin[key(i) + 1];
        for (int k = 0; k <= max_key; ++k)
            level_begin[k + 1] += level_begin[k];
        by_depth.resize(n);
        for (int i = 0; i < n; ++i)
            by_depth[level_begin[key(i)]++] = i;
        for (int k = max_key + 1; k > 0; --k)
            level_begin[k] = level_begin[k - 1];
        level_begin[0] = 0;
    }
};

/**
 * Split the queued pieces that are cyclic through external nodes (a
 * path leaves the piece and re-enters it); the final clusters are
 * cycle-free (Sec 4.1: "no cyclic dependence is allowed"). Appends them
 * to @p out in splitCyclicReference()'s order.
 *
 * The reference splits a piece by level: members downstream of an
 * external "bridge" (a node the piece reaches that reaches the piece)
 * are tainted; the connected components of the safe members are
 * final, and each component of the tainted members is split again. A
 * recurrent graph peels one step per level, so the reference re-walks
 * the remainder once per step. This pass collapses such runs of
 * levels into one walk of the piece.
 *
 * - Depth. Node ids are topological, so every path between two members
 *   stays at or above the smallest member; one DFS over operands,
 *   stopped there, finds the bridges (the nodes that reach a member and
 *   that a member reaches) and puts them and the members in topological
 *   order. Along that order, the depth of a node is the largest number
 *   of stretches through external nodes on a path from the piece to it;
 *   every node on such a path that ends at a member is a member or a
 *   bridge. A member is tainted exactly when its depth is at least 1.
 *   The walk visits the nodes that reach the piece, never those it
 *   only feeds: on the Table-2 training graphs those are 2.5 times
 *   fewer.
 * - Runs of levels. If the tainted members T of a piece P form one
 *   component, T's own taint is {depth >= 2} and T's depths are P's
 *   minus one. T cannot reach P's safe members (they would be
 *   tainted), so T's external nodes on its paths are P's; a path into a
 *   member of T with k stretches from T extends to one with k + 1 from
 *   P, and any path from P reaches its first member of T through at
 *   most one stretch (the next member after one is tainted). So while
 *   {depth >= k} stays one component, level k's safe members are
 *   {depth == k}. One union-find, adding members from the deepest level
 *   up, counts the components of every {depth >= k} at once.
 * - Safe components are final. A path that left a safe component S and
 *   re-entered it would pass through a tainted member (then the
 *   re-entry point is downstream of a bridge, so tainted), an external
 *   of the piece (the first one is a bridge, and the re-entry point is
 *   tainted again) or another safe component (no edge joins two safe
 *   components, and a safe member downstream of a tainted one would be
 *   tainted). So the safe levels are emitted as they are.
 *
 * Components are numbered by their smallest member, as the reference's
 * ascending-seed search numbers them. Pieces carry only their node
 * lists; makeCluster runs once per final cluster.
 */
void
splitCyclicInto(const Graph &graph, SplitScratch &s,
                std::vector<Cluster> &out)
{
    while (!s.pending_begin.empty()) {
        const std::size_t begin = s.pending_begin.back();
        s.pending_begin.pop_back();
        const NodeId *first = s.pending.data() + begin;
        const NodeId *last = s.pending.data() + s.pending.size();
        const int size = static_cast<int>(last - first);

        s.nextEpoch();
        const std::uint32_t e = s.epoch;
        for (const NodeId *p = first; p != last; ++p)
            s.member[*p] = e;

        // Post-order DFS over operands from every member, stopped below
        // the smallest one: a topological order of the members and of
        // the external nodes that reach them. A node is linked when it
        // is a member or a bridge (the piece reaches it too); only
        // linked nodes carry a depth that reaches a member.
        const NodeId lowest = first[0];
        std::vector<NodeId> &order = s.stack;
        order.clear();
        for (const NodeId *p = first; p != last; ++p) {
            if (s.reached[*p] == e)
                continue;
            s.reached[*p] = e;
            s.frames.push_back({*p, 0u, true});
            while (!s.frames.empty()) {
                SplitScratch::Frame &f = s.frames.back();
                const std::vector<NodeId> &ops = graph.node(f.node).operands();
                while (f.next < ops.size() &&
                       (ops[f.next] < lowest || s.reached[ops[f.next]] == e)) {
                    // A reached operand is finished: the graph is acyclic.
                    if (ops[f.next] >= lowest)
                        f.linked |= s.linked[ops[f.next]] == e;
                    ++f.next;
                }
                if (f.next < ops.size()) {
                    const NodeId op = ops[f.next++];
                    s.reached[op] = e;
                    s.frames.push_back({op, 0u, s.member[op] == e});
                    continue;
                }
                const SplitScratch::Frame done = f;
                s.frames.pop_back();
                if (!done.linked)
                    continue;
                s.linked[done.node] = e;
                order.push_back(done.node);
                if (!s.frames.empty())
                    s.frames.back().linked = true;
            }
        }

        int max_depth = 0;
        for (const NodeId n : order) {
            const bool is_member = s.member[n] == e;
            int d = 0;
            for (NodeId op : graph.node(n).operands()) {
                if (s.linked[op] != e)
                    continue;
                // Leaving the piece opens a stretch; entering closes it.
                const bool opens = !is_member && s.member[op] == e;
                d = std::max(d, s.depth[op] + (opens ? 1 : 0));
            }
            s.depth[n] = d;
            if (is_member)
                max_depth = std::max(max_depth, d);
        }
        if (max_depth == 0) {
            out.push_back(
                makeSortedCluster(graph, std::vector<NodeId>(first, last)));
            s.pending.resize(begin);
            continue;
        }

        // The first level whose tainted members {depth >= k} are not
        // one component (or are none).
        s.sortByKey(size, max_depth, [&](int i) { return s.depth[first[i]]; });
        int run_end = max_depth + 1;
        int sets = 0;
        for (int k = max_depth; k >= 1; --k) {
            for (int i = s.level_begin[k]; i < s.level_begin[k + 1]; ++i) {
                s.parent[first[s.by_depth[i]]] = first[s.by_depth[i]];
                ++sets;
            }
            for (int i = s.level_begin[k]; i < s.level_begin[k + 1]; ++i) {
                const NodeId m = first[s.by_depth[i]];
                for (NodeId u : graph.users(m)) {
                    if (s.member[u] == e && s.join(m, u))
                        --sets;
                }
            }
            if (sets != 1)
                run_end = k;
        }

        // Levels 0 .. run_end - 1 are safe levels of a run; everything
        // deeper is one group whose components are split next.
        const auto group = [&](NodeId m) {
            return std::min(s.depth[m], run_end);
        };
        for (const NodeId *p = first; p != last; ++p) {
            const NodeId m = *p;
            s.parent[m] = m;
            for (NodeId op : graph.node(m).operands()) {
                if (s.member[op] == e && group(op) == group(m))
                    s.join(m, op);
            }
        }
        const int num = s.bucketComponents(first, last);
        s.pending.resize(begin);
        s.sortByKey(num, run_end, [&](int c) {
            return group(s.comp_nodes[s.comp_begin[c]]);
        });
        for (int i = 0; i < s.level_begin[run_end]; ++i)
            out.push_back(makeSortedCluster(graph, s.component(s.by_depth[i])));
        // LIFO: the first remaining component is split next.
        for (int i = s.level_begin[run_end + 1] - 1;
             i >= s.level_begin[run_end]; --i)
            s.pushComponent(s.by_depth[i]);
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
    SplitScratch s(graph.numNodes());
    const ScratchBlock scratch_span(SplitScratch::bytesFor(graph.numNodes()));

    // Connected components of the in-scope nodes, numbered by their
    // smallest member as connectedComponents() numbers them, queued so
    // the first is split first.
    for (NodeId n = 0; n < graph.numNodes(); ++n) {
        if (!in_scope[n])
            continue;
        s.stack.push_back(n);
        s.parent[n] = n;
        for (NodeId op : graph.node(n).operands()) {
            if (in_scope[op])
                s.join(n, op);
        }
    }
    const int num = s.bucketComponents(s.stack.data(),
                                       s.stack.data() + s.stack.size());
    for (int c = num - 1; c >= 0; --c)
        s.pushComponent(c);

    std::vector<Cluster> clusters;
    splitCyclicInto(graph, s, clusters);
    // The flat buffers only grow, so they are at their peak now.
    const ScratchBlock buffer_span(s.bufferBytes());
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
 * grouping can never create a cyclic stitch op. A group of one keeps
 * its cluster as it is.
 */
std::vector<Cluster>
mergeClosureGroups(const Graph &graph, std::vector<Cluster> &clusters,
                   const std::vector<ClosureGroup> &groups)
{
    std::vector<Cluster> merged;
    merged.reserve(groups.size());
    for (const ClosureGroup &g : groups) {
        if (g.members.size() == 1) {
            merged.push_back(std::move(clusters[g.members.front()]));
            continue;
        }
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
