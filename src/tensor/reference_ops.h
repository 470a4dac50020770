/**
 * @file
 * Reference (CPU, scalar) implementations of every operator.
 *
 * These are the semantic ground truth: the evaluator in compiler/ lowers
 * each graph node onto one of these, and every backend's compiled output
 * is validated against them.
 *
 * Contract:
 * - Bit-identical to the per-element oracle in tests/naive_reference_ops
 *   (reference_kernels_test): every output element comes from the same
 *   operands through the same float operations in the same order.
 * - Checks run once per operation and cover every element: the shape
 *   validation below, plus a check that each operand's largest strided
 *   offset lies inside it, which fails as Tensor::at does.
 * - No per-element allocation: broadcasts, reductions and layout ops walk
 *   their operands by strides with O(rank) state (tensor/strided_walk.h);
 *   the rest loop over raw storage, and the GEMMs run in i-k-j order.
 * - No per-element call: the elementwise kernels are templates over the
 *   scalar function, so it inlines into their loops.
 */
#ifndef ASTITCH_TENSOR_REFERENCE_OPS_H
#define ASTITCH_TENSOR_REFERENCE_OPS_H

#include <vector>

#include "tensor/strided_walk.h"
#include "tensor/tensor.h"

namespace astitch {
namespace ref {

/** Apply a scalar function float(float) elementwise. */
template <typename Fn>
Tensor
elementwiseUnary(const Tensor &input, const Fn &fn)
{
    Tensor out(input.shape(), input.dtype());
    const float *src = input.data().data();
    float *dst = out.data().data();
    const std::int64_t n = out.numElements();
    for (std::int64_t i = 0; i < n; ++i)
        dst[i] = fn(src[i]);
    return out;
}

/**
 * Apply a scalar function float(float, float) elementwise with numpy
 * broadcasting between the two operands. Operands of one shape loop over
 * raw storage; the others walk strides.
 */
template <typename Fn>
Tensor
elementwiseBinary(const Tensor &lhs, const Tensor &rhs, const Fn &fn)
{
    const Shape out_shape = Shape::broadcast(lhs.shape(), rhs.shape());
    Tensor out(out_shape, lhs.dtype());
    const float *a = lhs.data().data();
    const float *b = rhs.data().data();
    float *dst = out.data().data();
    if (lhs.shape() == rhs.shape()) {
        const std::int64_t n = out.numElements();
        for (std::int64_t i = 0; i < n; ++i)
            dst[i] = fn(a[i], b[i]);
        return out;
    }
    detail::walk<3>(out_shape,
                    {detail::broadcastOperand(lhs.shape(), out_shape),
                     detail::broadcastOperand(rhs.shape(), out_shape),
                     detail::rowMajor(out_shape)},
                    [&](const auto &o) { dst[o[2]] = fn(a[o[0]], b[o[1]]); });
    return out;
}

/** select(pred, on_true, on_false), all broadcast together. */
Tensor select(const Tensor &pred, const Tensor &on_true,
              const Tensor &on_false);

/** Materialize a broadcast of @p input to @p target shape. */
Tensor broadcastTo(const Tensor &input, const Shape &target);

/** Kind of reduction. */
enum class ReduceKind { Sum, Max, Min, Mean };

/** Reduce @p dims of @p input (no keepdims). */
Tensor reduce(const Tensor &input, const std::vector<int> &dims,
              ReduceKind kind);

/** Permute dimensions. @p perm must be a permutation of [0, rank). */
Tensor transpose(const Tensor &input, const std::vector<int> &perm);

/**
 * Reshape without moving data: the result shares the input's buffer.
 * Element counts must match.
 */
Tensor reshape(const Tensor &input, const Shape &target);

/** Concatenate along @p dim. All other dims must match. */
Tensor concat(const std::vector<Tensor> &inputs, int dim);

/** Rows [start, start+size) along dim 0. */
Tensor slice(const Tensor &input, std::int64_t start, std::int64_t size);

/** Zero-pad to @p target (per-dim >= input; data anchored at 0). */
Tensor pad(const Tensor &input, const Shape &target);

/** Embedding lookup: out[i,:] = table[indices[i],:]. */
Tensor gather(const Tensor &table, const Tensor &indices);

/** 2-D matrix multiply [m,k] x [k,n] -> [m,n]. */
Tensor matmul(const Tensor &lhs, const Tensor &rhs);

/** Batched matmul [b,m,k] x [b,k,n] -> [b,m,n]. */
Tensor batchMatmul(const Tensor &lhs, const Tensor &rhs);

} // namespace ref
} // namespace astitch

#endif // ASTITCH_TENSOR_REFERENCE_OPS_H
