#include "graph/traversal.h"

#include <algorithm>
#include <deque>

#include "support/logging.h"

namespace astitch {

std::vector<std::vector<NodeId>>
connectedComponents(const Graph &graph, const std::vector<bool> &in_scope)
{
    panicIf(static_cast<int>(in_scope.size()) != graph.numNodes(),
            "in_scope size mismatch");
    std::vector<int> component(graph.numNodes(), -1);
    std::vector<std::vector<NodeId>> components;
    for (NodeId seed = 0; seed < graph.numNodes(); ++seed) {
        if (!in_scope[seed] || component[seed] >= 0)
            continue;
        const int cid = static_cast<int>(components.size());
        components.emplace_back();
        std::deque<NodeId> queue{seed};
        component[seed] = cid;
        while (!queue.empty()) {
            const NodeId n = queue.front();
            queue.pop_front();
            components[cid].push_back(n);
            auto visit = [&](NodeId m) {
                if (m >= 0 && in_scope[m] && component[m] < 0) {
                    component[m] = cid;
                    queue.push_back(m);
                }
            };
            for (NodeId op : graph.node(n).operands())
                visit(op);
            for (NodeId u : graph.users(n))
                visit(u);
        }
        std::sort(components[cid].begin(), components[cid].end());
    }
    return components;
}

} // namespace astitch
