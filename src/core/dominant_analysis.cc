#include "core/dominant_analysis.h"

#include <algorithm>
#include <deque>
#include <set>

#include "compiler/kernel_plan.h"
#include "compiler/patterns.h"
#include "support/fault_injection.h"
#include "support/logging.h"

namespace astitch {

bool
DominantAnalysis::isSchemeBoundary(NodeId node) const
{
    return producingGroup(node) >= 0;
}

int
DominantAnalysis::producingGroup(NodeId node) const
{
    const auto it =
        std::lower_bound(producers.begin(), producers.end(),
                         std::pair<NodeId, int>{node, -1});
    return it != producers.end() && it->first == node ? it->second : -1;
}

namespace {

/**
 * Group assignment with dominant merging.
 *
 * Observation A: a local op's thread mapping propagates *from its
 * consumer*. So groups form by reverse-topological consumer claiming:
 * reductions always anchor their own group (they generate the reduce
 * schedule), every other op joins the group of its first claimed
 * consumer — which keeps one-to-one chains intact inside a single group
 * (no artificial mid-chain boundaries) and realizes input fusion: a
 * reduce's producers join the reduce's group through the reduce itself.
 * Ops without an in-cluster consumer (cluster outputs, dead ends) seed
 * element-wise groups, which are then folded into the group of their
 * operand when one exists (Fig. 9's multiply.1 joining reduce.2's
 * group). Non-reduce candidates become sub-dominants of whatever group
 * claimed them.
 */
DominantAnalysis
analyzeMerged(const Graph &graph, const Cluster &cluster,
              const std::set<NodeId> &candidate_set,
              std::vector<NodeId> candidates)
{
    DominantAnalysis analysis;
    analysis.candidates = std::move(candidates);

    std::unordered_map<NodeId, int> claim; // node -> group id
    auto seed_group = [&](NodeId dominant) {
        DominantGroup group;
        group.dominant = dominant;
        const int gid = static_cast<int>(analysis.groups.size());
        analysis.groups.push_back(std::move(group));
        claim[dominant] = gid;
        return gid;
    };

    // Reverse-topological consumer claiming.
    for (auto it = cluster.nodes.rbegin(); it != cluster.nodes.rend();
         ++it) {
        const NodeId n = *it;
        if (isReduce(graph.node(n).kind())) {
            seed_group(n);
            continue;
        }
        bool claimed = false;
        for (NodeId u : graph.users(n)) {
            // Users have larger ids and are already claimed.
            if (cluster.contains(u) && claim.count(u)) {
                claim[n] = claim[u];
                claimed = true;
                break;
            }
        }
        if (!claimed)
            seed_group(n);
    }

    // Fold element-wise seed groups into the group of their dominant's
    // first in-cluster operand: the output inherits the producer's
    // schedule exactly (the strongest form of proactive adaptation).
    std::vector<int> fold_into(analysis.groups.size(), -1);
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        const NodeId dom = analysis.groups[g].dominant;
        if (isReduce(graph.node(dom).kind()))
            continue;
        for (NodeId op : graph.node(dom).operands()) {
            if (cluster.contains(op) && claim.count(op) &&
                claim[op] != static_cast<int>(g)) {
                int target = claim[op];
                // Follow folds already decided (operand groups have
                // smaller dominants only by construction order, but be
                // safe against chains).
                int hops = 0;
                while (fold_into[target] >= 0 &&
                       ++hops <= static_cast<int>(
                                     analysis.groups.size())) {
                    target = fold_into[target];
                }
                if (target != static_cast<int>(g))
                    fold_into[g] = target;
                break;
            }
        }
    }
    if (std::any_of(fold_into.begin(), fold_into.end(),
                    [](int t) { return t >= 0; })) {
        // Remap group ids compactly.
        std::vector<int> remap(analysis.groups.size(), -1);
        std::vector<DominantGroup> folded;
        for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
            if (fold_into[g] >= 0)
                continue;
            remap[g] = static_cast<int>(folded.size());
            folded.push_back(DominantGroup{
                analysis.groups[g].dominant, {}, {}});
        }
        auto resolve = [&](int g) {
            int hops = 0;
            while (fold_into[g] >= 0 &&
                   ++hops <= static_cast<int>(analysis.groups.size())) {
                g = fold_into[g];
            }
            return remap[g];
        };
        for (auto &[node, gid] : claim)
            gid = resolve(gid);
        analysis.groups = std::move(folded);
    }

    // Every cluster node must be claimed: each connected region contains
    // at least one candidate (its escaping nodes are outputs).
    //
    // Groups may only communicate through dominants and sub-dominants
    // (Sec 4.3 step 1): a node whose consumer was claimed by a different
    // group becomes an *implicit sub-dominant* — its value crosses
    // thread-mapping schedules and must be buffered regionally or
    // globally, never in registers.
    for (NodeId n : cluster.nodes) {
        panicIf(!claim.count(n), "node %", n,
                " not claimed by any dominant group");
        const int gid = claim[n];
        analysis.groups[gid].members.push_back(n);
        bool boundary = candidate_set.count(n) > 0;
        if (!boundary) {
            for (NodeId u : graph.users(n)) {
                if (cluster.contains(u) && claim.count(u) &&
                    claim[u] != gid) {
                    boundary = true;
                    break;
                }
            }
        }
        if (boundary && analysis.groups[gid].dominant != n)
            analysis.groups[gid].sub_dominants.push_back(n);
        analysis.groups_of_node[n].push_back(gid);
    }
    for (DominantGroup &g : analysis.groups) {
        std::sort(g.members.begin(), g.members.end());
        std::sort(g.sub_dominants.begin(), g.sub_dominants.end());
    }
    return analysis;
}

/**
 * Group assignment without dominant merging (the HDM ablation): every
 * candidate anchors its own group, and each local region joins *every*
 * adjacent candidate's group. The duplicated membership models the lost
 * operator-level reuse: incompatible schedules per group mean shared
 * operands are reloaded and shared ops recomputed (Sec 4.3 Step 2's
 * broadcast.2 example).
 */
DominantAnalysis
analyzeUnmerged(const Graph &graph, const Cluster &cluster,
                const std::set<NodeId> &candidate_set,
                std::vector<NodeId> candidates)
{
    DominantAnalysis analysis;
    analysis.candidates = std::move(candidates);

    std::unordered_map<NodeId, int> group_of_candidate;
    for (NodeId id : analysis.candidates) {
        DominantGroup group;
        group.dominant = id;
        group.members.push_back(id);
        group_of_candidate[id] = static_cast<int>(analysis.groups.size());
        analysis.groups.push_back(std::move(group));
    }

    // Local components (cluster minus candidates).
    std::unordered_map<NodeId, int> component_of;
    std::vector<std::vector<NodeId>> components;
    for (NodeId seedling : cluster.nodes) {
        if (candidate_set.count(seedling) || component_of.count(seedling))
            continue;
        const int cid = static_cast<int>(components.size());
        components.emplace_back();
        std::vector<NodeId> stack{seedling};
        component_of[seedling] = cid;
        while (!stack.empty()) {
            const NodeId n = stack.back();
            stack.pop_back();
            components[cid].push_back(n);
            auto visit = [&](NodeId m) {
                if (cluster.contains(m) && !candidate_set.count(m) &&
                    !component_of.count(m)) {
                    component_of[m] = cid;
                    stack.push_back(m);
                }
            };
            for (NodeId op : graph.node(n).operands())
                visit(op);
            for (NodeId u : graph.users(n))
                visit(u);
        }
        std::sort(components[cid].begin(), components[cid].end());
    }

    // Attach each component to every adjacent candidate group.
    for (auto &component : components) {
        std::set<int> adjacent;
        for (NodeId n : component) {
            auto visit = [&](NodeId m) {
                if (cluster.contains(m) && candidate_set.count(m))
                    adjacent.insert(group_of_candidate[m]);
            };
            for (NodeId op : graph.node(n).operands())
                visit(op);
            for (NodeId u : graph.users(n))
                visit(u);
        }
        panicIf(adjacent.empty(), "local region without any candidate");
        for (int g : adjacent) {
            for (NodeId n : component)
                analysis.groups[g].members.push_back(n);
        }
    }

    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        auto &members = analysis.groups[g].members;
        std::sort(members.begin(), members.end());
        members.erase(std::unique(members.begin(), members.end()),
                      members.end());
        for (NodeId n : members)
            analysis.groups_of_node[n].push_back(static_cast<int>(g));
    }
    return analysis;
}

} // namespace

DominantAnalysis
analyzeDominants(const Graph &graph, const Cluster &cluster,
                 bool enable_dominant_merging)
{
    faultPoint("dominant-analysis");

    // ---- Candidate identification (observation B). ----
    // Reduces, heavy element-wise ops feeding broadcast, and cluster
    // outputs need regional/global schemes; everything else is Local.
    std::set<NodeId> candidate_set;
    for (NodeId id : cluster.nodes) {
        const Node &node = graph.node(id);
        const bool is_output = std::binary_search(
            cluster.outputs.begin(), cluster.outputs.end(), id);
        if (isReduce(node.kind()) ||
            (isHeavyElementwise(node.kind()) &&
             feedsBroadcast(graph, id, &cluster)) ||
            is_output) {
            candidate_set.insert(id);
        }
    }
    std::vector<NodeId> candidates(candidate_set.begin(),
                                   candidate_set.end());
    panicIf(candidates.empty(), "cluster without dominant candidates");

    DominantAnalysis analysis =
        enable_dominant_merging
            ? analyzeMerged(graph, cluster, candidate_set,
                            std::move(candidates))
            : analyzeUnmerged(graph, cluster, candidate_set,
                              std::move(candidates));

    // Producing group per boundary: sorted (node, group) pairs, the
    // lowest group kept for a node several groups list.
    for (std::size_t g = 0; g < analysis.groups.size(); ++g) {
        const DominantGroup &group = analysis.groups[g];
        analysis.producers.emplace_back(group.dominant, static_cast<int>(g));
        for (NodeId sub : group.sub_dominants)
            analysis.producers.emplace_back(sub, static_cast<int>(g));
    }
    std::sort(analysis.producers.begin(), analysis.producers.end());
    analysis.producers.erase(
        std::unique(analysis.producers.begin(), analysis.producers.end(),
                    [](const auto &x, const auto &y) {
                        return x.first == y.first;
                    }),
        analysis.producers.end());
    return analysis;
}

} // namespace astitch
