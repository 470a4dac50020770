/**
 * @file
 * Graph traversal utilities: connected regions.
 *
 * Connected components back the compiler's stitch-scope identification
 * (Sec 4.1): BFS clustering of memory-intensive subgraphs. Clustering
 * computes the reachability that guards remote stitching against cyclic
 * dependences itself (compiler/clustering.cc).
 */
#ifndef ASTITCH_GRAPH_TRAVERSAL_H
#define ASTITCH_GRAPH_TRAVERSAL_H

#include <vector>

#include "graph/graph.h"

namespace astitch {

/**
 * Undirected connected components restricted to nodes where
 * @p in_scope[id] is true. Edges are operand/user links whose both
 * endpoints are in scope. Returns one sorted vector per component.
 */
std::vector<std::vector<NodeId>>
connectedComponents(const Graph &graph, const std::vector<bool> &in_scope);

} // namespace astitch

#endif // ASTITCH_GRAPH_TRAVERSAL_H
