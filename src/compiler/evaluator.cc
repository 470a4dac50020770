#include "compiler/evaluator.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"
#include "tensor/reference_ops.h"

namespace astitch {

Evaluator::Evaluator(const Graph &graph) : graph_(graph) {}

Tensor
Evaluator::evalNode(const Node &node, const std::vector<Tensor> &ops)
{
    switch (node.kind()) {
      case OpKind::Parameter:
        panic("parameter must be bound by feeds");
      case OpKind::Constant:
        return node.attrs().literal;

      case OpKind::Add:
        return ref::elementwiseBinary(ops[0], ops[1],
                                      [](float a, float b) { return a + b; });
      case OpKind::Sub:
        return ref::elementwiseBinary(ops[0], ops[1],
                                      [](float a, float b) { return a - b; });
      case OpKind::Mul:
        return ref::elementwiseBinary(ops[0], ops[1],
                                      [](float a, float b) { return a * b; });
      case OpKind::Div:
        return ref::elementwiseBinary(ops[0], ops[1],
                                      [](float a, float b) { return a / b; });
      case OpKind::Maximum:
        return ref::elementwiseBinary(
            ops[0], ops[1],
            [](float a, float b) { return std::max(a, b); });
      case OpKind::Minimum:
        return ref::elementwiseBinary(
            ops[0], ops[1],
            [](float a, float b) { return std::min(a, b); });
      case OpKind::Neg:
        return ref::elementwiseUnary(ops[0], [](float a) { return -a; });
      case OpKind::Abs:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::abs(a); });
      case OpKind::CompareGT:
        return ref::elementwiseBinary(
            ops[0], ops[1],
            [](float a, float b) { return a > b ? 1.0f : 0.0f; });
      case OpKind::Select:
        return ref::select(ops[0], ops[1], ops[2]);

      case OpKind::Tanh:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::tanh(a); });
      case OpKind::Exp:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::exp(a); });
      case OpKind::Log:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::log(a); });
      case OpKind::Power: {
          const float p = static_cast<float>(node.attrs().exponent);
          return ref::elementwiseUnary(
              ops[0], [p](float a) { return std::pow(a, p); });
      }
      case OpKind::Sqrt:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::sqrt(a); });
      case OpKind::Rsqrt:
        return ref::elementwiseUnary(
            ops[0], [](float a) { return 1.0f / std::sqrt(a); });
      case OpKind::Sigmoid:
        return ref::elementwiseUnary(
            ops[0], [](float a) { return 1.0f / (1.0f + std::exp(-a)); });
      case OpKind::Erf:
        return ref::elementwiseUnary(ops[0],
                                     [](float a) { return std::erf(a); });

      case OpKind::Broadcast:
        return ref::broadcastTo(ops[0], node.attrs().target_shape);
      case OpKind::Reshape:
        return ref::reshape(ops[0], node.attrs().target_shape);
      case OpKind::Transpose:
        return ref::transpose(ops[0], node.attrs().perm);
      case OpKind::Concat:
        return ref::concat(ops, node.attrs().concat_dim);
      case OpKind::Slice:
        return ref::slice(ops[0], node.attrs().slice_start,
                          node.attrs().slice_size);
      case OpKind::Pad:
        return ref::pad(ops[0], node.attrs().target_shape);
      case OpKind::Gather:
        return ref::gather(ops[0], ops[1]);

      case OpKind::ReduceSum:
        return ref::reduce(ops[0], node.attrs().reduce_dims,
                           ref::ReduceKind::Sum);
      case OpKind::ReduceMax:
        return ref::reduce(ops[0], node.attrs().reduce_dims,
                           ref::ReduceKind::Max);
      case OpKind::ReduceMin:
        return ref::reduce(ops[0], node.attrs().reduce_dims,
                           ref::ReduceKind::Min);
      case OpKind::ReduceMean:
        return ref::reduce(ops[0], node.attrs().reduce_dims,
                           ref::ReduceKind::Mean);

      case OpKind::MatMul:
        return ref::matmul(ops[0], ops[1]);
      case OpKind::BatchMatMul:
        return ref::batchMatmul(ops[0], ops[1]);
      case OpKind::Conv3x3: {
          // Implicit GEMM: gather the 3x3 patch (modelled as a 9x
          // replication of the row) and multiply by the weights.
          const Tensor &x = ops[0];
          const std::int64_t rows = x.shape().dim(0);
          const std::int64_t in = x.shape().dim(1);
          Tensor patches = ref::reshape(
              ref::broadcastTo(ref::reshape(x, Shape{rows, 1, in}),
                               Shape{rows, 9, in}),
              Shape{rows, 9 * in});
          return ref::matmul(patches, ops[1]);
      }
    }
    panic("unknown op kind in evalNode");
}

namespace {

/** Core evaluation loop with optional liveness-based freeing. */
TensorMap
evaluate(const Graph &graph, const TensorMap &feeds, bool free_dead)
{
    TensorMap values;
    std::vector<int> remaining_uses(graph.numNodes(), 0);
    for (NodeId id = 0; id < graph.numNodes(); ++id)
        remaining_uses[id] = static_cast<int>(graph.users(id).size());

    for (NodeId id = 0; id < graph.numNodes(); ++id) {
        const Node &node = graph.node(id);
        if (node.kind() == OpKind::Parameter) {
            auto it = feeds.find(id);
            fatalIf(it == feeds.end(), "no feed for parameter ",
                    node.name());
            fatalIf(it->second.shape() != node.shape(),
                    "feed shape ", it->second.shape(),
                    " does not match parameter ", node.name(), " ",
                    node.shape());
            values.emplace(id, it->second);
            continue;
        }
        std::vector<Tensor> operands;
        operands.reserve(node.operands().size());
        for (NodeId op : node.operands()) {
            auto it = values.find(op);
            panicIf(it == values.end(), "operand ", op,
                    " evaluated after use");
            operands.push_back(it->second);
        }
        values.emplace(id, Evaluator::evalNode(node, operands));
        if (free_dead) {
            // users() counts each consumer once even when it reads the
            // operand through several slots — dedupe before decrementing.
            std::vector<NodeId> distinct(node.operands());
            std::sort(distinct.begin(), distinct.end());
            distinct.erase(std::unique(distinct.begin(), distinct.end()),
                           distinct.end());
            for (NodeId op : distinct) {
                if (--remaining_uses[op] == 0 && !graph.isOutput(op))
                    values.erase(op);
            }
        }
    }
    return values;
}

} // namespace

std::vector<Tensor>
Evaluator::run(const TensorMap &feeds) const
{
    TensorMap values = evaluate(graph_, feeds, /*free_dead=*/true);
    std::vector<Tensor> outputs;
    outputs.reserve(graph_.outputs().size());
    for (NodeId out : graph_.outputs()) {
        auto it = values.find(out);
        panicIf(it == values.end(), "output ", out, " not evaluated");
        outputs.push_back(it->second);
    }
    return outputs;
}

TensorMap
Evaluator::runAll(const TensorMap &feeds) const
{
    return evaluate(graph_, feeds, /*free_dead=*/false);
}

} // namespace astitch
