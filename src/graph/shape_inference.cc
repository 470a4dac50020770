#include "graph/shape_inference.h"

#include "support/logging.h"

namespace astitch {

Shape
inferShape(OpKind kind, const std::vector<Shape> &shapes,
           const NodeAttrs &attrs)
{
    switch (kind) {
      case OpKind::Parameter:
      case OpKind::Constant:
        // Shape is given externally (attrs.target_shape / literal).
        return kind == OpKind::Constant ? attrs.literal.shape()
                                        : attrs.target_shape;

      case OpKind::Neg:
      case OpKind::Abs:
      case OpKind::Tanh:
      case OpKind::Exp:
      case OpKind::Log:
      case OpKind::Power:
      case OpKind::Sqrt:
      case OpKind::Rsqrt:
      case OpKind::Sigmoid:
      case OpKind::Erf:
        return shapes.at(0);

      case OpKind::Add:
      case OpKind::Sub:
      case OpKind::Mul:
      case OpKind::Div:
      case OpKind::Maximum:
      case OpKind::Minimum:
      case OpKind::CompareGT:
        return Shape::broadcast(shapes.at(0), shapes.at(1));

      case OpKind::Select: {
          Shape s = Shape::broadcast(shapes.at(0), shapes.at(1));
          return Shape::broadcast(s, shapes.at(2));
      }

      case OpKind::Broadcast:
        fatalIf(!Shape::broadcastableTo(shapes.at(0), attrs.target_shape),
                "broadcast: ", shapes.at(0), " not broadcastable to ",
                attrs.target_shape);
        return attrs.target_shape;

      case OpKind::Reshape:
        fatalIf(shapes.at(0).numElements() !=
                    attrs.target_shape.numElements(),
                "reshape element count mismatch");
        return attrs.target_shape;

      case OpKind::Transpose: {
          const Shape &in = shapes.at(0);
          fatalIf(static_cast<int>(attrs.perm.size()) != in.rank(),
                  "transpose perm rank mismatch");
          std::vector<std::int64_t> dims(attrs.perm.size());
          std::vector<bool> seen(attrs.perm.size(), false);
          for (std::size_t i = 0; i < attrs.perm.size(); ++i) {
              const int p = attrs.perm[i];
              fatalIf(p < 0 || p >= in.rank() || seen[p],
                      "transpose perm is not a permutation");
              seen[p] = true;
              dims[i] = in.dims()[p];
          }
          return Shape(dims);
      }

      case OpKind::Concat: {
          fatalIf(shapes.empty(), "concat needs at least one operand");
          const Shape &first = shapes[0];
          fatalIf(attrs.concat_dim < 0 || attrs.concat_dim >= first.rank(),
                  "concat dim out of range");
          std::int64_t total = 0;
          for (const Shape &s : shapes) {
              fatalIf(s.rank() != first.rank(), "concat rank mismatch");
              for (int d = 0; d < first.rank(); ++d) {
                  fatalIf(d != attrs.concat_dim &&
                              s.dims()[d] != first.dims()[d],
                          "concat non-axis dim mismatch");
              }
              total += s.dims()[attrs.concat_dim];
          }
          auto dims = first.dims();
          dims[attrs.concat_dim] = total;
          return Shape(dims);
      }

      case OpKind::Slice: {
          const Shape &in = shapes.at(0);
          fatalIf(in.rank() < 1, "slice requires rank >= 1");
          fatalIf(attrs.slice_start < 0 || attrs.slice_size <= 0 ||
                      attrs.slice_start + attrs.slice_size > in.dim(0),
                  "slice [", attrs.slice_start, ", +", attrs.slice_size,
                  ") out of range for ", in);
          auto dims = in.dims();
          dims[0] = attrs.slice_size;
          return Shape(dims);
      }

      case OpKind::Pad: {
          const Shape &in = shapes.at(0);
          const Shape &target = attrs.target_shape;
          fatalIf(in.rank() != target.rank(),
                  "pad rank mismatch: ", in, " -> ", target);
          for (int d = 0; d < in.rank(); ++d) {
              fatalIf(target.dims()[d] < in.dims()[d],
                      "pad target smaller than input in dim ", d);
          }
          return target;
      }

      case OpKind::Gather: {
          const Shape &table = shapes.at(0);
          const Shape &indices = shapes.at(1);
          fatalIf(table.rank() != 2 || indices.rank() != 1,
                  "gather expects table[n,d] and indices[k], got ",
                  table, " / ", indices);
          return Shape{indices.dim(0), table.dim(1)};
      }

      case OpKind::ReduceSum:
      case OpKind::ReduceMax:
      case OpKind::ReduceMin:
      case OpKind::ReduceMean:
        return shapes.at(0).reduceDims(attrs.reduce_dims);

      case OpKind::MatMul: {
          const Shape &a = shapes.at(0);
          const Shape &b = shapes.at(1);
          fatalIf(a.rank() != 2 || b.rank() != 2 || a.dim(1) != b.dim(0),
                  "matmul shape mismatch: ", a, " x ", b);
          return Shape{a.dim(0), b.dim(1)};
      }

      case OpKind::Conv3x3: {
          const Shape &x = shapes.at(0);
          const Shape &w = shapes.at(1);
          fatalIf(x.rank() != 2 || w.rank() != 2 ||
                      w.dim(0) != 9 * x.dim(1),
                  "conv3x3 shape mismatch: ", x, " x ", w,
                  " (expects w rows == 9 * channels)");
          return Shape{x.dim(0), w.dim(1)};
      }

      case OpKind::BatchMatMul: {
          const Shape &a = shapes.at(0);
          const Shape &b = shapes.at(1);
          fatalIf(a.rank() != 3 || b.rank() != 3 || a.dim(0) != b.dim(0) ||
                      a.dim(2) != b.dim(1),
                  "batch_matmul shape mismatch: ", a, " x ", b);
          return Shape{a.dim(0), a.dim(1), b.dim(2)};
      }
    }
    panic("unknown op kind in inferShape");
}

} // namespace astitch
