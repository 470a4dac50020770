#include "opt/autodiff.h"

#include <algorithm>
#include <deque>
#include <set>

#include "support/logging.h"

namespace astitch {

namespace {

/**
 * Sum @p grad back down to @p target shape, undoing numpy broadcasting:
 * reduce the dimensions the operand stretched (size-1 or missing), then
 * reshape to the exact target.
 */
NodeId
reduceToShape(GraphBuilder &b, NodeId grad, const Shape &target)
{
    const Shape &from = b.shapeOf(grad);
    if (from == target)
        return grad;
    std::vector<int> reduce_dims;
    const int shift = from.rank() - target.rank();
    for (int d = 0; d < from.rank(); ++d) {
        const int td = d - shift;
        const std::int64_t target_dim =
            td < 0 ? 1 : target.dims()[td];
        if (target_dim == 1 && from.dims()[d] != 1)
            reduce_dims.push_back(d);
        else if (td < 0)
            reduce_dims.push_back(d);
    }
    NodeId reduced =
        reduce_dims.empty() ? grad : b.reduceSum(grad, reduce_dims);
    if (b.shapeOf(reduced) != target)
        reduced = b.reshape(reduced, target);
    return reduced;
}

/** Broadcast a (possibly keep-dims-reduced) grad back over @p shape. */
NodeId
broadcastBack(GraphBuilder &b, NodeId grad, const Shape &input_shape,
              const std::vector<int> &reduce_dims)
{
    // Re-insert the reduced dims as size-1, then broadcast.
    std::vector<bool> reduced(input_shape.rank(), false);
    for (int d : reduce_dims)
        reduced[d] = true;
    std::vector<std::int64_t> keep_dims;
    for (int d = 0; d < input_shape.rank(); ++d)
        keep_dims.push_back(reduced[d] ? 1 : input_shape.dims()[d]);
    NodeId shaped = b.reshape(grad, Shape(keep_dims));
    return b.broadcastTo(shaped, input_shape);
}

/** One if a > b else zero, as a float mask. */
NodeId
gtMask(GraphBuilder &b, NodeId a, NodeId c)
{
    return b.compareGT(a, c);
}

/** Accumulation map: node -> gradient node (or invalid). */
class GradMap
{
  public:
    explicit GradMap(GraphBuilder &b) : b_(b) {}

    void
    add(NodeId node, NodeId grad)
    {
        const auto it = grads_.find(node);
        if (it == grads_.end())
            grads_.emplace(node, grad);
        else
            it->second = b_.add(it->second, grad);
    }

    bool has(NodeId node) const { return grads_.count(node) > 0; }
    NodeId at(NodeId node) const { return grads_.at(node); }

  private:
    GraphBuilder &b_;
    std::unordered_map<NodeId, NodeId> grads_;
};

/** Emit per-operand gradient contributions of @p node given @p g. */
void
backpropNode(GraphBuilder &b, const Graph &graph, const Node &node,
             NodeId g, GradMap &grads,
             const std::vector<bool> &needs_grad)
{
    const auto &ops = node.operands();
    auto wants = [&](int i) { return needs_grad[ops[i]]; };
    auto shape_of = [&](int i) { return graph.node(ops[i]).shape(); };
    auto accum = [&](int i, NodeId contribution) {
        grads.add(ops[i], reduceToShape(b, contribution, shape_of(i)));
    };
    const NodeId self = node.id();

    switch (node.kind()) {
      case OpKind::Add:
        if (wants(0))
            accum(0, g);
        if (wants(1))
            accum(1, g);
        return;
      case OpKind::Sub:
        if (wants(0))
            accum(0, g);
        if (wants(1))
            accum(1, b.neg(g));
        return;
      case OpKind::Mul:
        if (wants(0))
            accum(0, b.mul(g, ops[1]));
        if (wants(1))
            accum(1, b.mul(g, ops[0]));
        return;
      case OpKind::Div:
        if (wants(0))
            accum(0, b.div(g, ops[1]));
        if (wants(1)) {
            accum(1, b.neg(b.div(b.mul(g, ops[0]),
                                 b.mul(ops[1], ops[1]))));
        }
        return;
      case OpKind::Maximum: {
          NodeId mask = gtMask(b, ops[0], ops[1]);
          if (wants(0))
              accum(0, b.mul(g, mask));
          if (wants(1)) {
              accum(1, b.mul(g, b.sub(b.constantScalar(1.0f), mask)));
          }
          return;
      }
      case OpKind::Minimum: {
          NodeId mask = gtMask(b, ops[1], ops[0]); // a < b
          if (wants(0))
              accum(0, b.mul(g, mask));
          if (wants(1)) {
              accum(1, b.mul(g, b.sub(b.constantScalar(1.0f), mask)));
          }
          return;
      }
      case OpKind::Neg:
        if (wants(0))
            accum(0, b.neg(g));
        return;
      case OpKind::Abs:
        if (wants(0)) {
            NodeId sign = b.sub(
                b.mul(b.constantScalar(2.0f),
                      gtMask(b, ops[0],
                             b.constantScalar(0.0f))),
                b.constantScalar(1.0f));
            accum(0, b.mul(g, sign));
        }
        return;
      case OpKind::CompareGT:
        return; // zero gradient
      case OpKind::Select:
        // d/dpred is zero; branches get masked gradients.
        if (wants(1))
            accum(1, b.mul(g, ops[0]));
        if (wants(2)) {
            accum(2, b.mul(g, b.sub(b.constantScalar(1.0f), ops[0])));
        }
        return;

      case OpKind::Tanh:
        if (wants(0)) {
            accum(0, b.mul(g, b.sub(b.constantScalar(1.0f),
                                    b.mul(self, self))));
        }
        return;
      case OpKind::Exp:
        if (wants(0))
            accum(0, b.mul(g, self));
        return;
      case OpKind::Log:
        if (wants(0))
            accum(0, b.div(g, ops[0]));
        return;
      case OpKind::Power: {
          if (!wants(0))
              return;
          const double p = node.attrs().exponent;
          accum(0, b.mul(b.mul(g, b.constantScalar(
                                      static_cast<float>(p))),
                         b.power(ops[0], p - 1.0)));
          return;
      }
      case OpKind::Sqrt:
        if (wants(0)) {
            accum(0, b.div(g, b.mul(b.constantScalar(2.0f), self)));
        }
        return;
      case OpKind::Rsqrt:
        if (wants(0)) {
            // d/dx x^{-1/2} = -1/2 x^{-3/2} = -1/2 y^3
            accum(0, b.mul(b.constantScalar(-0.5f),
                           b.mul(g, b.mul(self, b.mul(self, self)))));
        }
        return;
      case OpKind::Sigmoid:
        if (wants(0)) {
            accum(0, b.mul(g, b.mul(self,
                                    b.sub(b.constantScalar(1.0f),
                                          self))));
        }
        return;
      case OpKind::Erf:
        if (wants(0)) {
            // 2/sqrt(pi) * exp(-x^2)
            accum(0, b.mul(g, b.mul(b.constantScalar(1.1283791671f),
                                    b.exp(b.neg(b.mul(ops[0],
                                                      ops[0]))))));
        }
        return;

      case OpKind::Broadcast:
        if (wants(0))
            accum(0, g); // reduceToShape in accum undoes the stretch
        return;
      case OpKind::Reshape:
        if (wants(0))
            accum(0, b.reshape(g, shape_of(0)));
        return;
      case OpKind::Transpose: {
          if (!wants(0))
              return;
          const auto &perm = node.attrs().perm;
          std::vector<int> inverse(perm.size());
          for (std::size_t i = 0; i < perm.size(); ++i)
              inverse[perm[i]] = static_cast<int>(i);
          accum(0, b.transpose(g, inverse));
          return;
      }
      case OpKind::Concat: {
          const int dim = node.attrs().concat_dim;
          fatalIf(dim != 0,
                  "autodiff: concat gradient only supports dim 0");
          std::int64_t offset = 0;
          for (std::size_t i = 0; i < ops.size(); ++i) {
              const std::int64_t size = shape_of(static_cast<int>(i))
                                            .dim(0);
              if (needs_grad[ops[i]]) {
                  accum(static_cast<int>(i), b.slice(g, offset, size));
              }
              offset += size;
          }
          return;
      }
      case OpKind::Slice: {
          if (!wants(0))
              return;
          // Zero-pad the gradient back into place along dim 0.
          const Shape &in = shape_of(0);
          const std::int64_t start = node.attrs().slice_start;
          const std::int64_t size = node.attrs().slice_size;
          std::vector<NodeId> pieces;
          auto zeros_rows = [&](std::int64_t rows) {
              auto dims = in.dims();
              dims[0] = rows;
              return b.constant(Tensor::full(Shape(dims), 0.0f));
          };
          if (start > 0)
              pieces.push_back(zeros_rows(start));
          pieces.push_back(g);
          if (start + size < in.dim(0))
              pieces.push_back(zeros_rows(in.dim(0) - start - size));
          accum(0, pieces.size() == 1 ? pieces[0]
                                      : b.concat(pieces, 0));
          return;
      }
      case OpKind::Pad:
        fatalIf(wants(0), "autodiff: pad gradient not supported");
        return;
      case OpKind::Gather:
        fatalIf(wants(0),
                "autodiff: gather table gradient (scatter-add) is not "
                "in the op set — mark the table non-trainable");
        return;

      case OpKind::ReduceSum:
        if (wants(0)) {
            accum(0, broadcastBack(b, g, shape_of(0),
                                   node.attrs().reduce_dims));
        }
        return;
      case OpKind::ReduceMean: {
          if (!wants(0))
              return;
          std::int64_t count = 1;
          for (int d : node.attrs().reduce_dims)
              count *= shape_of(0).dims()[d];
          NodeId scaled = b.div(
              g, b.constantScalar(static_cast<float>(count)));
          accum(0, broadcastBack(b, scaled, shape_of(0),
                                 node.attrs().reduce_dims));
          return;
      }
      case OpKind::ReduceMax:
      case OpKind::ReduceMin: {
          if (!wants(0))
              return;
          // Tie-splitting subgradient: route gradient to the elements
          // equal to the extremum (mask = !(extremum > x) for max).
          NodeId wide_extremum = broadcastBack(
              b, self, shape_of(0), node.attrs().reduce_dims);
          NodeId not_selected =
              node.kind() == OpKind::ReduceMax
                  ? gtMask(b, wide_extremum, ops[0])
                  : gtMask(b, ops[0], wide_extremum);
          NodeId mask =
              b.sub(b.constantScalar(1.0f), not_selected);
          NodeId wide_grad = broadcastBack(b, g, shape_of(0),
                                           node.attrs().reduce_dims);
          accum(0, b.mul(wide_grad, mask));
          return;
      }

      case OpKind::MatMul: {
          // y = a[m,k] b[k,n]; da = g b^T; db = a^T g.
          if (wants(0))
              accum(0, b.matmul(g, b.transpose(ops[1], {1, 0})));
          if (wants(1))
              accum(1, b.matmul(b.transpose(ops[0], {1, 0}), g));
          return;
      }
      case OpKind::BatchMatMul: {
          if (wants(0)) {
              accum(0, b.batchMatmul(g, b.transpose(ops[1],
                                                    {0, 2, 1})));
          }
          if (wants(1)) {
              accum(1, b.batchMatmul(b.transpose(ops[0], {0, 2, 1}),
                                     g));
          }
          return;
      }
      case OpKind::Conv3x3: {
          // y = P(x) w with P the 9x patch expansion.
          const Shape &x_shape = shape_of(0);
          const std::int64_t rows = x_shape.dim(0);
          const std::int64_t in = x_shape.dim(1);
          if (wants(0)) {
              // dx = sum_p (g w^T)[:, p*in:(p+1)*in]
              NodeId gwt = b.matmul(g, b.transpose(ops[1], {1, 0}));
              NodeId folded = b.reduceSum(
                  b.reshape(gwt, {rows, 9, in}), {1});
              accum(0, folded);
          }
          if (wants(1)) {
              // dw = P(x)^T g (patches materialized for the backward).
              NodeId patches = b.reshape(
                  b.broadcastTo(b.reshape(ops[0], {rows, 1, in}),
                                {rows, 9, in}),
                  {rows, 9 * in});
              accum(1, b.matmul(b.transpose(patches, {1, 0}), g));
          }
          return;
      }

      case OpKind::Parameter:
      case OpKind::Constant:
        return; // leaves
    }
    panic("autodiff: unhandled op kind ", opKindName(node.kind()));
}

} // namespace

std::vector<NodeId>
buildGradients(GraphBuilder &b, NodeId loss,
               const std::vector<NodeId> &wrt)
{
    Graph &graph = b.graph();
    fatalIf(!graph.node(loss).shape().isScalar(),
            "autodiff requires a scalar loss, got ",
            graph.node(loss).shape());

    // needs_grad[n]: n is an ancestor of loss AND a descendant of (or
    // equal to) some requested input — only those ops backpropagate.
    const NodeId num_forward = loss + 1;
    std::vector<bool> reaches_loss(graph.numNodes(), false);
    reaches_loss[loss] = true;
    for (NodeId n = loss; n >= 0; --n) {
        if (!reaches_loss[n])
            continue;
        for (NodeId op : graph.node(n).operands())
            reaches_loss[op] = true;
    }
    std::vector<bool> from_wrt(graph.numNodes(), false);
    for (NodeId w : wrt) {
        fatalIf(w < 0 || w >= graph.numNodes(), "bad wrt node ", w);
        from_wrt[w] = true;
    }
    for (NodeId n = 0; n < num_forward; ++n) {
        if (from_wrt[n])
            continue;
        for (NodeId op : graph.node(n).operands()) {
            if (from_wrt[op]) {
                from_wrt[n] = true;
                break;
            }
        }
    }
    std::vector<bool> needs_grad(graph.numNodes(), false);
    for (NodeId n = 0; n < num_forward; ++n)
        needs_grad[n] = reaches_loss[n] && from_wrt[n];

    GradMap grads(b);
    grads.add(loss, b.constantScalar(1.0f, "dloss"));

    // Reverse sweep over the forward region.
    for (NodeId n = loss; n >= 0; --n) {
        if (!needs_grad[n] || !grads.has(n))
            continue;
        const Node &node = graph.node(n);
        if (isSource(node.kind()))
            continue;
        backpropNode(b, graph, node, grads.at(n), grads, needs_grad);
    }

    std::vector<NodeId> result;
    result.reserve(wrt.size());
    for (NodeId w : wrt) {
        if (grads.has(w)) {
            result.push_back(grads.at(w));
        } else {
            // The loss does not depend on this input: zero gradient.
            result.push_back(b.constant(
                Tensor::full(graph.node(w).shape(), 0.0f)));
        }
    }
    return result;
}

std::unordered_map<NodeId, NodeId>
buildParameterGradients(GraphBuilder &b, NodeId loss)
{
    std::vector<NodeId> params;
    for (NodeId p : b.graph().parameters()) {
        // Skip parameters that only feed non-differentiable ops
        // (gather tables): probe cheaply by checking direct users.
        bool only_gather_table = true;
        for (NodeId u : b.graph().users(p)) {
            const Node &user = b.graph().node(u);
            if (!(user.kind() == OpKind::Gather &&
                  user.operands()[0] == p)) {
                only_gather_table = false;
                break;
            }
        }
        if (!only_gather_table)
            params.push_back(p);
    }
    const auto grads = buildGradients(b, loss, params);
    std::unordered_map<NodeId, NodeId> result;
    for (std::size_t i = 0; i < params.size(); ++i)
        result.emplace(params[i], grads[i]);
    return result;
}

} // namespace astitch
