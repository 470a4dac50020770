/**
 * @file
 * The stride walker behind the reference kernels (tensor/reference_ops).
 * Internal: only the kernels, their inline templates included, use it.
 */
#ifndef ASTITCH_TENSOR_STRIDED_WALK_H
#define ASTITCH_TENSOR_STRIDED_WALK_H

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/logging.h"
#include "tensor/shape.h"

namespace astitch {
namespace ref {
namespace detail {

/**
 * One operand of a strided walk: the elements it holds, its offset at
 * the walk's first element, and how far one step along each walked dim
 * moves it. The stride is 0 along a dim the operand lacks or stretches
 * from size 1, and never negative.
 */
struct Operand
{
    std::int64_t size;
    std::vector<std::int64_t> strides;
    std::int64_t base = 0;
};

/** An operand stored row-major in @p shape, walked from offset @p base. */
inline Operand
rowMajor(const Shape &shape, std::int64_t base = 0)
{
    return {shape.numElements(), shape.strides(), base};
}

/** @p from read at every element of @p to, which it broadcasts to. */
inline Operand
broadcastOperand(const Shape &from, const Shape &to)
{
    const auto from_strides = from.strides();
    std::vector<std::int64_t> strides(to.rank(), 0);
    const int shift = to.rank() - from.rank();
    for (int i = 0; i < from.rank(); ++i) {
        if (from.dims()[i] != 1)
            strides[i + shift] = from_strides[i];
    }
    return {from.numElements(), std::move(strides)};
}

/**
 * Visit every element of @p shape in row-major order with the current
 * linear offset of each operand. Offsets move by the operands' strides,
 * so the walk keeps O(rank) state and allocates nothing per element.
 *
 * Before the first visit, each operand's largest offset (its base plus
 * (dim - 1) * stride over every dim) must lie inside the operand. With
 * non-negative strides that bounds every offset the walk produces, so
 * this one check stands in for Tensor::at's check on every element, and
 * fails the same way. Rank 0 visits one element; a zero-element shape
 * visits none.
 */
template <std::size_t N, typename Visit>
void
walk(const Shape &shape, const std::array<Operand, N> &operands,
     const Visit &visit)
{
    if (shape.numElements() == 0)
        return;
    const auto &dims = shape.dims();
    const int rank = shape.rank();
    std::array<std::int64_t, N> offset{};
    for (std::size_t k = 0; k < N; ++k) {
        const Operand &op = operands[k];
        panicIf(static_cast<int>(op.strides.size()) != rank,
                "walk operand rank mismatch");
        std::int64_t last = op.base;
        for (int d = 0; d < rank; ++d)
            last += (dims[d] - 1) * op.strides[d];
        panicIf(op.base < 0 || last >= op.size,
                "tensor index out of bounds");
        offset[k] = op.base;
    }
    if (rank == 0) {
        visit(offset);
        return;
    }
    // The innermost dim runs as a plain loop; the outer dims count like
    // an odometer, rewinding an operand by (dim - 1) * stride on carry.
    const int inner = rank - 1;
    std::array<std::int64_t, N> step{};
    for (std::size_t k = 0; k < N; ++k)
        step[k] = operands[k].strides[inner];
    std::vector<std::int64_t> index(rank, 0);
    for (;;) {
        for (std::int64_t i = 0; i < dims[inner]; ++i) {
            visit(offset);
            for (std::size_t k = 0; k < N; ++k)
                offset[k] += step[k];
        }
        for (std::size_t k = 0; k < N; ++k)
            offset[k] -= dims[inner] * step[k];
        int d = inner - 1;
        for (; d >= 0; --d) {
            if (++index[d] < dims[d]) {
                for (std::size_t k = 0; k < N; ++k)
                    offset[k] += operands[k].strides[d];
                break;
            }
            index[d] = 0;
            for (std::size_t k = 0; k < N; ++k)
                offset[k] -= (dims[d] - 1) * operands[k].strides[d];
        }
        if (d < 0)
            return;
    }
}

} // namespace detail
} // namespace ref
} // namespace astitch

#endif // ASTITCH_TENSOR_STRIDED_WALK_H
