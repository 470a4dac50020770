/**
 * @file
 * Dominant-op identification, dominant merging and op grouping
 * (Sec 4.2/4.3 Step 1).
 *
 * Key observations from the paper:
 *   A. Local-scheme ops inherit thread mappings by element-wise index
 *      propagation, so only a few *dominant* ops need schedules.
 *   B. Reduces and heavy element-wise ops followed by broadcast must use
 *      regional/global schemes (one-to-many dependencies) — they, plus
 *      cluster outputs, are the dominant candidates.
 *
 * Candidates connected through only-local-scheme ops merge into one
 * group; the reduce (or the most expensive candidate) becomes the final
 * dominant, the rest become sub-dominants whose schedules arrive by
 * propagation. Merging is what enables operator-level data reuse: one
 * schedule per group means shared operands stay in registers.
 */
#ifndef ASTITCH_CORE_DOMINANT_ANALYSIS_H
#define ASTITCH_CORE_DOMINANT_ANALYSIS_H

#include <unordered_map>
#include <utility>
#include <vector>

#include "compiler/clustering.h"

namespace astitch {

/** One schedule-propagation group. */
struct DominantGroup
{
    /** The final dominant whose thread mapping rules the group. */
    NodeId dominant = kInvalidNodeId;

    /** Demoted candidates inside this group. */
    std::vector<NodeId> sub_dominants;

    /** All member ops (sorted; includes dominant and sub-dominants). */
    std::vector<NodeId> members;
};

/** Result of the grouping analysis over one cluster. */
struct DominantAnalysis
{
    std::vector<DominantGroup> groups;

    /** Candidate dominants before merging (diagnostics / tests). */
    std::vector<NodeId> candidates;

    /**
     * Group ids per node. With dominant merging each node maps to one
     * group; with merging disabled (the HDM ablation) a local region
     * adjacent to several candidates is duplicated into each of their
     * groups, losing operator-level reuse.
     */
    std::unordered_map<NodeId, std::vector<int>> groups_of_node;

    /**
     * (boundary node, producing group) for every dominant and
     * sub-dominant, sorted by node, one entry per node; filled by
     * analyzeDominants() and queried through producingGroup().
     */
    std::vector<std::pair<NodeId, int>> producers;

    /** True if @p node is a dominant or sub-dominant of any group. */
    bool isSchemeBoundary(NodeId node) const;

    /**
     * The group producing boundary value @p node: the first group
     * listing it as dominant or sub-dominant, or -1 if none. O(log G).
     */
    int producingGroup(NodeId node) const;
};

/**
 * Run candidate identification, (optional) dominant merging and op
 * grouping on @p cluster.
 */
DominantAnalysis analyzeDominants(const Graph &graph,
                                  const Cluster &cluster,
                                  bool enable_dominant_merging);

} // namespace astitch

#endif // ASTITCH_CORE_DOMINANT_ANALYSIS_H
