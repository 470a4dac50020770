/**
 * @file
 * Differential oracle for tensor/reference_ops: the same kernels, one
 * bounds-checked Tensor::at/set per element and index vectors built per
 * element. Slow on purpose; only tests link it.
 */
#ifndef ASTITCH_TESTS_NAIVE_REFERENCE_OPS_H
#define ASTITCH_TESTS_NAIVE_REFERENCE_OPS_H

#include <functional>
#include <vector>

#include "tensor/reference_ops.h"
#include "tensor/tensor.h"

namespace astitch {
namespace naive {

Tensor elementwiseUnary(const Tensor &input,
                        const std::function<float(float)> &fn);
Tensor elementwiseBinary(const Tensor &lhs, const Tensor &rhs,
                         const std::function<float(float, float)> &fn);
Tensor select(const Tensor &pred, const Tensor &on_true,
              const Tensor &on_false);
Tensor broadcastTo(const Tensor &input, const Shape &target);
Tensor reduce(const Tensor &input, const std::vector<int> &dims,
              ref::ReduceKind kind);
Tensor transpose(const Tensor &input, const std::vector<int> &perm);
Tensor reshape(const Tensor &input, const Shape &target);
Tensor concat(const std::vector<Tensor> &inputs, int dim);
Tensor slice(const Tensor &input, std::int64_t start, std::int64_t size);
Tensor pad(const Tensor &input, const Shape &target);
Tensor gather(const Tensor &table, const Tensor &indices);
Tensor matmul(const Tensor &lhs, const Tensor &rhs);
Tensor batchMatmul(const Tensor &lhs, const Tensor &rhs);

} // namespace naive
} // namespace astitch

#endif // ASTITCH_TESTS_NAIVE_REFERENCE_OPS_H
