/**
 * @file
 * Dense row-major tensor shapes.
 *
 * Shapes are the unit the compiler reasons about: reduce dimensions,
 * broadcast fan-out, row-major contiguity (row- vs column-reduce), and the
 * irregular production shapes of Sec 2.3.2 (e.g. <750000,32>).
 */
#ifndef ASTITCH_TENSOR_SHAPE_H
#define ASTITCH_TENSOR_SHAPE_H

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace astitch {

/** A dense, row-major shape: dims()[rank()-1] is the fastest-varying. */
class Shape
{
  public:
    Shape() = default;
    Shape(std::initializer_list<std::int64_t> dims);
    explicit Shape(std::vector<std::int64_t> dims);

    int rank() const { return static_cast<int>(dims_.size()); }
    const std::vector<std::int64_t> &dims() const { return dims_; }
    std::int64_t dim(int i) const;

    /** Total number of elements (1 for a scalar). */
    std::int64_t numElements() const;

    /** True for rank 0. */
    bool isScalar() const { return dims_.empty(); }

    /** Row-major strides in elements. */
    std::vector<std::int64_t> strides() const;

    /** Linear offset of a multi-index. */
    std::int64_t linearize(const std::vector<std::int64_t> &index) const;

    /** Multi-index of a linear offset. */
    std::vector<std::int64_t> delinearize(std::int64_t offset) const;

    bool operator==(const Shape &other) const { return dims_ == other.dims_; }
    bool operator!=(const Shape &other) const { return !(*this == other); }

    /** "[2,128]" style rendering. */
    std::string toString() const;

    /**
     * Shape left after reducing @p reduce_dims (no keepdims).
     * Dims must be valid, sorted not required, duplicates rejected.
     */
    Shape reduceDims(const std::vector<int> &reduce_dims) const;

    /**
     * Numpy-style broadcast of two shapes; fatal() if incompatible.
     * Size-1 dims stretch to the other side's size, zero included;
     * ranks are right-aligned.
     */
    static Shape broadcast(const Shape &a, const Shape &b);

    /** True if @p from can broadcast to @p to (right-aligned, 1-stretch). */
    static bool broadcastableTo(const Shape &from, const Shape &to);

  private:
    std::vector<std::int64_t> dims_;
};

std::ostream &operator<<(std::ostream &os, const Shape &shape);

} // namespace astitch

#endif // ASTITCH_TENSOR_SHAPE_H
