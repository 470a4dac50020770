/**
 * @file
 * Host tensors used by the functional oracle.
 *
 * Storage is always float regardless of DType: the evaluator only needs
 * value semantics, while byte widths are consumed by the cost model. This
 * keeps the interpreter simple and exact across backends.
 *
 * Copies share one buffer until one of them writes (copy-on-write), so
 * passing a tensor around by value costs a reference count, not its
 * elements. A tensor with no elements holds no buffer.
 */
#ifndef ASTITCH_TENSOR_TENSOR_H
#define ASTITCH_TENSOR_TENSOR_H

#include <memory>
#include <vector>

#include "tensor/dtype.h"
#include "tensor/shape.h"

namespace astitch {

class Tensor;

namespace ref {
Tensor reshape(const Tensor &input, const Shape &target);
} // namespace ref

/** A dense host tensor (row-major float storage). */
class Tensor
{
  public:
    Tensor() = default;
    Tensor(Shape shape, DType dtype = DType::F32);
    Tensor(Shape shape, std::vector<float> data, DType dtype = DType::F32);

    const Shape &shape() const { return shape_; }
    DType dtype() const { return dtype_; }
    std::int64_t numElements() const { return shape_.numElements(); }
    std::int64_t sizeBytes() const
    {
        return numElements() * dtypeSizeBytes(dtype_);
    }

    /** The elements, read-only: never copies a shared buffer. */
    const std::vector<float> &data() const
    {
        return data_ ? *data_ : noData();
    }

    /**
     * The elements, writable: first detaches from any other holder.
     * Write through the result only while this tensor has no copies.
     */
    std::vector<float> &data();

    float at(std::int64_t i) const;

    /** Write one element; detaches from any other holder first. */
    void set(std::int64_t i, float v);

    /** Element at a multi-index. */
    float at(const std::vector<std::int64_t> &index) const;

    /** A tensor filled with a constant. */
    static Tensor full(Shape shape, float value, DType dtype = DType::F32);

    /** A scalar tensor. */
    static Tensor scalar(float value, DType dtype = DType::F32);

    /** [0, 1, 2, ...] ramp — handy for deterministic tests. */
    static Tensor iota(Shape shape, DType dtype = DType::F32);

    /** True if all elements are within @p atol + rtol*|b| of @p other. */
    bool allClose(const Tensor &other, double rtol = 1e-5,
                  double atol = 1e-6) const;

  private:
    /** The elements every tensor without a buffer reads. */
    static const std::vector<float> &noData();

    /** Shares @p input's buffer under the @p target shape. */
    friend Tensor ref::reshape(const Tensor &input, const Shape &target);

    Shape shape_;
    DType dtype_ = DType::F32;
    /** Shared by every copy until one writes; null when empty. */
    std::shared_ptr<std::vector<float>> data_;
};

} // namespace astitch

#endif // ASTITCH_TENSOR_TENSOR_H
