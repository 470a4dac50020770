/**
 * @file
 * The reference kernels as they were before they walked strides: every
 * element goes through Tensor::at/set, Shape::delinearize and
 * Shape::linearize. Compiled only into tests, where
 * reference_kernels_test compares the production kernels in
 * tensor/reference_ops against these bit for bit.
 */
#include "naive_reference_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/logging.h"

namespace astitch {
namespace naive {

using ref::ReduceKind;

namespace {

/**
 * Map a linear index in the broadcast output shape back to a linear index
 * in an operand that broadcasts to it.
 */
std::int64_t
broadcastSourceIndex(const Shape &out, const Shape &in, std::int64_t offset)
{
    if (in.isScalar())
        return 0;
    auto out_index = out.delinearize(offset);
    std::vector<std::int64_t> in_index(in.rank());
    const int shift = out.rank() - in.rank();
    for (int i = 0; i < in.rank(); ++i) {
        const std::int64_t d = in.dims()[i];
        in_index[i] = d == 1 ? 0 : out_index[i + shift];
    }
    return in.linearize(in_index);
}

} // namespace

Tensor
elementwiseUnary(const Tensor &input, const std::function<float(float)> &fn)
{
    Tensor out(input.shape(), input.dtype());
    for (std::int64_t i = 0; i < input.numElements(); ++i)
        out.set(i, fn(input.at(i)));
    return out;
}

Tensor
elementwiseBinary(const Tensor &lhs, const Tensor &rhs,
                  const std::function<float(float, float)> &fn)
{
    const Shape out_shape = Shape::broadcast(lhs.shape(), rhs.shape());
    Tensor out(out_shape, lhs.dtype());
    for (std::int64_t i = 0; i < out.numElements(); ++i) {
        const float a =
            lhs.at(broadcastSourceIndex(out_shape, lhs.shape(), i));
        const float b =
            rhs.at(broadcastSourceIndex(out_shape, rhs.shape(), i));
        out.set(i, fn(a, b));
    }
    return out;
}

Tensor
select(const Tensor &pred, const Tensor &on_true, const Tensor &on_false)
{
    Shape out_shape = Shape::broadcast(pred.shape(), on_true.shape());
    out_shape = Shape::broadcast(out_shape, on_false.shape());
    Tensor out(out_shape, on_true.dtype());
    for (std::int64_t i = 0; i < out.numElements(); ++i) {
        const float p =
            pred.at(broadcastSourceIndex(out_shape, pred.shape(), i));
        const float t =
            on_true.at(broadcastSourceIndex(out_shape, on_true.shape(), i));
        const float f =
            on_false.at(broadcastSourceIndex(out_shape, on_false.shape(), i));
        out.set(i, p != 0.0f ? t : f);
    }
    return out;
}

Tensor
broadcastTo(const Tensor &input, const Shape &target)
{
    fatalIf(!Shape::broadcastableTo(input.shape(), target),
            "cannot broadcast ", input.shape(), " to ", target);
    Tensor out(target, input.dtype());
    for (std::int64_t i = 0; i < out.numElements(); ++i)
        out.set(i, input.at(broadcastSourceIndex(target, input.shape(), i)));
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

    for (std::int64_t i = 0; i < input.numElements(); ++i) {
        auto in_index = input.shape().delinearize(i);
        std::vector<std::int64_t> out_index;
        for (int d = 0; d < input.shape().rank(); ++d) {
            if (!reduced[d])
                out_index.push_back(in_index[d]);
        }
        const std::int64_t o = out_shape.linearize(out_index);
        const float v = input.at(i);
        switch (kind) {
          case ReduceKind::Sum:
          case ReduceKind::Mean:
            out.set(o, out.at(o) + v);
            break;
          case ReduceKind::Max:
            out.set(o, std::max(out.at(o), v));
            break;
          case ReduceKind::Min:
            out.set(o, std::min(out.at(o), v));
            break;
        }
    }
    if (kind == ReduceKind::Mean) {
        for (std::int64_t o = 0; o < out.numElements(); ++o)
            out.set(o, out.at(o) / static_cast<float>(reduced_count));
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
    for (std::int64_t o = 0; o < out.numElements(); ++o) {
        auto out_index = out_shape.delinearize(o);
        std::vector<std::int64_t> in_index(perm.size());
        for (std::size_t i = 0; i < perm.size(); ++i)
            in_index[perm[i]] = out_index[i];
        out.set(o, input.at(input.shape().linearize(in_index)));
    }
    return out;
}

Tensor
reshape(const Tensor &input, const Shape &target)
{
    fatalIf(input.numElements() != target.numElements(),
            "reshape element count mismatch: ", input.shape(), " -> ",
            target);
    return Tensor(target, input.data(), input.dtype());
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
        for (std::int64_t i = 0; i < t.numElements(); ++i) {
            auto index = t.shape().delinearize(i);
            index[dim] += axis_offset;
            out.set(out_shape.linearize(index), t.at(i));
        }
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
    for (std::int64_t i = 0; i < out.numElements(); ++i)
        out.set(i, input.at(start * row_elems + i));
    return out;
}

Tensor
pad(const Tensor &input, const Shape &target)
{
    fatalIf(input.shape().rank() != target.rank(),
            "pad rank mismatch");
    Tensor out = Tensor::full(target, 0.0f, input.dtype());
    for (std::int64_t i = 0; i < input.numElements(); ++i) {
        auto index = input.shape().delinearize(i);
        out.set(target.linearize(index), input.at(i));
    }
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
    for (std::int64_t i = 0; i < k; ++i) {
        const auto row = static_cast<std::int64_t>(indices.at(i));
        fatalIf(row < 0 || row >= rows, "gather index ", row,
                " out of range [0, ", rows, ")");
        for (std::int64_t j = 0; j < width; ++j)
            out.set(i * width + j, table.at(row * width + j));
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
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t p = 0; p < k; ++p)
                acc += lhs.at(i * k + p) * rhs.at(p * n + j);
            out.set(i * n + j, acc);
        }
    }
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
        for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
                float acc = 0.0f;
                for (std::int64_t p = 0; p < k; ++p) {
                    acc += lhs.at((bi * m + i) * k + p) *
                           rhs.at((bi * k + p) * n + j);
                }
                out.set((bi * m + i) * n + j, acc);
            }
        }
    }
    return out;
}

} // namespace naive
} // namespace astitch
