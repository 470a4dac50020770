#include "compiler/fingerprint.h"

#include <cstring>
#include <unordered_map>

#include "support/atomic_file.h"

namespace astitch {

namespace {

void
mix(std::uint64_t &h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
}

void
mixShape(std::uint64_t &h, const Shape &shape)
{
    mix(h, shape.rank());
    for (auto d : shape.dims())
        mix(h, static_cast<std::uint64_t>(d));
}

void
mixAttrs(std::uint64_t &h, const NodeAttrs &a)
{
    for (int d : a.reduce_dims)
        mix(h, static_cast<std::uint64_t>(d) + 101);
    for (int p : a.perm)
        mix(h, static_cast<std::uint64_t>(p) + 211);
    std::uint64_t exp_bits;
    std::memcpy(&exp_bits, &a.exponent, sizeof(exp_bits));
    mix(h, exp_bits);
    mix(h, static_cast<std::uint64_t>(a.concat_dim) + 307);
    mix(h, static_cast<std::uint64_t>(a.slice_start) + 401);
    mix(h, static_cast<std::uint64_t>(a.slice_size) + 503);
    mixShape(h, a.target_shape);
}

} // namespace

std::uint64_t
graphFingerprint(const Graph &graph)
{
    std::uint64_t h = 1469598103934665603ULL;
    mix(h, graph.numNodes());
    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &node = graph.node(id);
        mix(h, static_cast<std::uint64_t>(node.kind()));
        mix(h, static_cast<std::uint64_t>(node.dtype()));
        for (NodeId op : node.operands())
            mix(h, static_cast<std::uint64_t>(op));
        mixShape(h, node.shape());
        mixAttrs(h, node.attrs());
        if (node.kind() == OpKind::Constant) {
            const std::vector<float> &literal = node.attrs().literal.data();
            mix(h, hash64(literal.data(), literal.size() * sizeof(float)));
        }
        mix(h, graph.isOutput(id) ? 2 : 1);
    }
    return h;
}

std::uint64_t
clusterFingerprint(const Graph &graph, const Cluster &cluster)
{
    // Cluster-local renumbering: members by position in cluster.nodes
    // (sorted, hence topological), inputs by frontier position — the
    // hash sees only the subgraph's internal structure, not NodeIds.
    std::unordered_map<NodeId, std::uint64_t> local;
    for (std::size_t i = 0; i < cluster.nodes.size(); ++i)
        local.emplace(cluster.nodes[i], 1000 + i);
    for (std::size_t i = 0; i < cluster.inputs.size(); ++i)
        local.emplace(cluster.inputs[i], 2000000 + i);

    std::uint64_t h = 1469598103934665603ULL;
    mix(h, cluster.nodes.size());
    mix(h, cluster.inputs.size());
    for (NodeId in : cluster.inputs) {
        const Node &node = graph.node(in);
        mix(h, static_cast<std::uint64_t>(node.dtype()));
        mixShape(h, node.shape());
    }
    for (NodeId id : cluster.nodes) {
        const Node &node = graph.node(id);
        mix(h, static_cast<std::uint64_t>(node.kind()));
        mix(h, static_cast<std::uint64_t>(node.dtype()));
        for (NodeId op : node.operands()) {
            const auto it = local.find(op);
            mix(h, it == local.end() ? 7 : it->second);
        }
        mixShape(h, node.shape());
        mixAttrs(h, node.attrs());
    }
    mix(h, cluster.outputs.size());
    for (NodeId out : cluster.outputs) {
        const auto it = local.find(out);
        mix(h, it == local.end() ? 7 : it->second);
    }
    return h;
}

} // namespace astitch
