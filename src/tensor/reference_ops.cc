#include "tensor/reference_ops.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "support/logging.h"

namespace astitch {
namespace ref {

namespace {

using detail::broadcastOperand;
using detail::Operand;
using detail::rowMajor;
using detail::walk;

/** Copy each visited element of operand 0 to operand 1. */
auto
copier(const Tensor &from, Tensor &to)
{
    return [src = from.data().data(),
            dst = to.data().data()](const std::array<std::int64_t, 2> &o) {
        dst[o[1]] = src[o[0]];
    };
}

/**
 * c[m,n] = a[m,k] x b[k,n] over row-major storage; c is zero on entry.
 * The i-k-j order streams rows of b and c, and each c element still
 * starts at 0.0f and adds its products in k order, the float operations
 * of a dot-product loop.
 */
void
gemm(const float *a, const float *b, float *c, std::int64_t m,
     std::int64_t k, std::int64_t n)
{
    for (std::int64_t i = 0; i < m; ++i) {
        float *c_row = c + i * n;
        for (std::int64_t p = 0; p < k; ++p) {
            const float a_ip = a[i * k + p];
            const float *b_row = b + p * n;
            for (std::int64_t j = 0; j < n; ++j)
                c_row[j] += a_ip * b_row[j];
        }
    }
}

} // namespace

Tensor
select(const Tensor &pred, const Tensor &on_true, const Tensor &on_false)
{
    Shape out_shape = Shape::broadcast(pred.shape(), on_true.shape());
    out_shape = Shape::broadcast(out_shape, on_false.shape());
    Tensor out(out_shape, on_true.dtype());
    const float *p = pred.data().data();
    const float *t = on_true.data().data();
    const float *f = on_false.data().data();
    float *dst = out.data().data();
    walk<4>(out_shape,
            {broadcastOperand(pred.shape(), out_shape),
             broadcastOperand(on_true.shape(), out_shape),
             broadcastOperand(on_false.shape(), out_shape),
             rowMajor(out_shape)},
            [&](const auto &o) {
                dst[o[3]] = p[o[0]] != 0.0f ? t[o[1]] : f[o[2]];
            });
    return out;
}

Tensor
broadcastTo(const Tensor &input, const Shape &target)
{
    fatalIf(!Shape::broadcastableTo(input.shape(), target),
            "cannot broadcast ", input.shape(), " to ", target);
    Tensor out(target, input.dtype());
    walk<2>(target,
            {broadcastOperand(input.shape(), target), rowMajor(target)},
            copier(input, out));
    return out;
}

Tensor
reduce(const Tensor &input, const std::vector<int> &dims, ReduceKind kind)
{
    const Shape out_shape = input.shape().reduceDims(dims);
    std::vector<bool> reduced(input.shape().rank(), false);
    for (int d : dims)
        reduced[d] = true;

    float init = 0.0f;
    switch (kind) {
      case ReduceKind::Sum:
      case ReduceKind::Mean:
        init = 0.0f;
        break;
      case ReduceKind::Max:
        init = -std::numeric_limits<float>::infinity();
        break;
      case ReduceKind::Min:
        init = std::numeric_limits<float>::infinity();
        break;
    }
    Tensor out = Tensor::full(out_shape, init, input.dtype());

    std::int64_t reduced_count = 1;
    for (int d : dims)
        reduced_count *= input.shape().dims()[d];

    // Walk the input in row-major order; the output does not move along
    // a reduced dim, so each input element accumulates into its output.
    const auto out_strides = out_shape.strides();
    std::vector<std::int64_t> strides(input.shape().rank(), 0);
    for (int d = 0, o = 0; d < input.shape().rank(); ++d) {
        if (!reduced[d])
            strides[d] = out_strides[o++];
    }
    const std::array<Operand, 2> operands{
        rowMajor(input.shape()),
        Operand{out.numElements(), std::move(strides)}};
    const float *src = input.data().data();
    float *dst = out.data().data();
    switch (kind) {
      case ReduceKind::Sum:
      case ReduceKind::Mean:
        walk(input.shape(), operands,
             [&](const auto &o) { dst[o[1]] = dst[o[1]] + src[o[0]]; });
        break;
      case ReduceKind::Max:
        walk(input.shape(), operands, [&](const auto &o) {
            dst[o[1]] = std::max(dst[o[1]], src[o[0]]);
        });
        break;
      case ReduceKind::Min:
        walk(input.shape(), operands, [&](const auto &o) {
            dst[o[1]] = std::min(dst[o[1]], src[o[0]]);
        });
        break;
    }
    if (kind == ReduceKind::Mean) {
        for (std::int64_t o = 0; o < out.numElements(); ++o)
            dst[o] = dst[o] / static_cast<float>(reduced_count);
    }
    return out;
}

Tensor
transpose(const Tensor &input, const std::vector<int> &perm)
{
    fatalIf(static_cast<int>(perm.size()) != input.shape().rank(),
            "transpose perm rank mismatch");
    std::vector<bool> seen(perm.size(), false);
    std::vector<std::int64_t> out_dims(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
        fatalIf(perm[i] < 0 || perm[i] >= input.shape().rank() ||
                    seen[perm[i]],
                "transpose perm is not a permutation");
        seen[perm[i]] = true;
        out_dims[i] = input.shape().dims()[perm[i]];
    }
    Shape out_shape(out_dims);
    Tensor out(out_shape, input.dtype());
    // Output dim i steps through input dim perm[i].
    const auto in_strides = input.shape().strides();
    std::vector<std::int64_t> strides(perm.size());
    for (std::size_t i = 0; i < perm.size(); ++i)
        strides[i] = in_strides[perm[i]];
    walk<2>(out_shape,
            {Operand{input.numElements(), std::move(strides)},
             rowMajor(out_shape)},
            copier(input, out));
    return out;
}

Tensor
reshape(const Tensor &input, const Shape &target)
{
    fatalIf(input.numElements() != target.numElements(),
            "reshape element count mismatch: ", input.shape(), " -> ",
            target);
    Tensor out = input;
    out.shape_ = target;
    return out;
}

Tensor
concat(const std::vector<Tensor> &inputs, int dim)
{
    fatalIf(inputs.empty(), "concat of zero tensors");
    const Shape &first = inputs[0].shape();
    fatalIf(dim < 0 || dim >= first.rank(), "concat dim out of range");
    std::int64_t concat_size = 0;
    for (const auto &t : inputs) {
        fatalIf(t.shape().rank() != first.rank(), "concat rank mismatch");
        for (int d = 0; d < first.rank(); ++d) {
            fatalIf(d != dim && t.shape().dims()[d] != first.dims()[d],
                    "concat non-axis dim mismatch");
        }
        concat_size += t.shape().dims()[dim];
    }
    auto out_dims = first.dims();
    out_dims[dim] = concat_size;
    Shape out_shape(out_dims);
    Tensor out(out_shape, inputs[0].dtype());
    std::int64_t axis_offset = 0;
    for (const auto &t : inputs) {
        walk<2>(t.shape(),
                {rowMajor(t.shape()),
                 rowMajor(out_shape, axis_offset * out_shape.strides()[dim])},
                copier(t, out));
        axis_offset += t.shape().dims()[dim];
    }
    return out;
}

Tensor
slice(const Tensor &input, std::int64_t start, std::int64_t size)
{
    const Shape &in = input.shape();
    fatalIf(in.rank() < 1 || start < 0 || size <= 0 ||
                start + size > in.dim(0),
            "slice out of range");
    auto dims = in.dims();
    dims[0] = size;
    Shape out_shape(dims);
    const std::int64_t row_elems = in.numElements() / in.dim(0);
    Tensor out(out_shape, input.dtype());
    // The range check keeps rows [start, start + size) inside the input.
    std::copy_n(input.data().data() + start * row_elems, out.numElements(),
                out.data().data());
    return out;
}

Tensor
pad(const Tensor &input, const Shape &target)
{
    fatalIf(input.shape().rank() != target.rank(),
            "pad rank mismatch");
    for (int d = 0; d < target.rank(); ++d) {
        fatalIf(target.dims()[d] < input.shape().dims()[d],
                "pad target smaller than input in dim ", d);
    }
    Tensor out = Tensor::full(target, 0.0f, input.dtype());
    walk<2>(input.shape(),
            {rowMajor(input.shape()), rowMajor(target)},
            copier(input, out));
    return out;
}

Tensor
gather(const Tensor &table, const Tensor &indices)
{
    fatalIf(table.shape().rank() != 2 || indices.shape().rank() != 1,
            "gather expects table[n,d] and indices[k]");
    const std::int64_t rows = table.shape().dim(0);
    const std::int64_t width = table.shape().dim(1);
    const std::int64_t k = indices.shape().dim(0);
    Tensor out(Shape{k, width}, table.dtype());
    const float *index = indices.data().data();
    for (std::int64_t i = 0; i < k; ++i) {
        // Truncate toward zero as the cast does, but range-check first:
        // casting NaN, an infinity or a value past int64 is undefined.
        const float row = std::trunc(index[i]);
        fatalIf(!(row >= 0.0f &&
                  static_cast<double>(row) < static_cast<double>(rows)),
                "gather index ", index[i], " out of range [0, ", rows, ")");
        std::copy_n(table.data().data() +
                        static_cast<std::int64_t>(row) * width,
                    width, out.data().data() + i * width);
    }
    return out;
}

Tensor
matmul(const Tensor &lhs, const Tensor &rhs)
{
    fatalIf(lhs.shape().rank() != 2 || rhs.shape().rank() != 2,
            "matmul requires rank-2 operands");
    const std::int64_t m = lhs.shape().dim(0);
    const std::int64_t k = lhs.shape().dim(1);
    const std::int64_t n = rhs.shape().dim(1);
    fatalIf(rhs.shape().dim(0) != k, "matmul inner dim mismatch: ",
            lhs.shape(), " x ", rhs.shape());
    Tensor out(Shape{m, n}, lhs.dtype());
    gemm(lhs.data().data(), rhs.data().data(), out.data().data(), m, k, n);
    return out;
}

Tensor
batchMatmul(const Tensor &lhs, const Tensor &rhs)
{
    fatalIf(lhs.shape().rank() != 3 || rhs.shape().rank() != 3,
            "batchMatmul requires rank-3 operands");
    const std::int64_t b = lhs.shape().dim(0);
    const std::int64_t m = lhs.shape().dim(1);
    const std::int64_t k = lhs.shape().dim(2);
    const std::int64_t n = rhs.shape().dim(2);
    fatalIf(rhs.shape().dim(0) != b || rhs.shape().dim(1) != k,
            "batchMatmul shape mismatch: ", lhs.shape(), " x ", rhs.shape());
    Tensor out(Shape{b, m, n}, lhs.dtype());
    for (std::int64_t bi = 0; bi < b; ++bi) {
        gemm(lhs.data().data() + bi * m * k, rhs.data().data() + bi * k * n,
             out.data().data() + bi * m * n, m, k, n);
    }
    return out;
}

} // namespace ref
} // namespace astitch
