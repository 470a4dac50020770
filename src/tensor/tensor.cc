#include "tensor/tensor.h"

#include <cmath>
#include <numeric>

#include "support/logging.h"

namespace astitch {

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype),
      data_(static_cast<std::size_t>(shape_.numElements()), 0.0f)
{
}

Tensor::Tensor(Shape shape, std::vector<float> data, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype), data_(std::move(data))
{
    fatalIf(static_cast<std::int64_t>(data_.size()) != shape_.numElements(),
            "tensor data size ", data_.size(), " does not match shape ",
            shape_);
}

float
Tensor::at(std::int64_t i) const
{
    panicIf(i < 0 || i >= numElements(), "tensor index out of bounds");
    return data_[static_cast<std::size_t>(i)];
}

void
Tensor::set(std::int64_t i, float v)
{
    panicIf(i < 0 || i >= numElements(), "tensor index out of bounds");
    data_[static_cast<std::size_t>(i)] = v;
}

float
Tensor::at(const std::vector<std::int64_t> &index) const
{
    return at(shape_.linearize(index));
}

Tensor
Tensor::full(Shape shape, float value, DType dtype)
{
    Tensor t(std::move(shape), dtype);
    std::fill(t.data_.begin(), t.data_.end(), value);
    return t;
}

Tensor
Tensor::scalar(float value, DType dtype)
{
    return full(Shape{}, value, dtype);
}

Tensor
Tensor::iota(Shape shape, DType dtype)
{
    Tensor t(std::move(shape), dtype);
    std::iota(t.data_.begin(), t.data_.end(), 0.0f);
    return t;
}

bool
Tensor::allClose(const Tensor &other, double rtol, double atol) const
{
    if (shape_ != other.shape_)
        return false;
    for (std::size_t i = 0; i < data_.size(); ++i) {
        const double a = data_[i];
        const double b = other.data_[i];
        if (std::isnan(a) != std::isnan(b))
            return false;
        if (std::isnan(a))
            continue;
        if (std::abs(a - b) > atol + rtol * std::abs(b))
            return false;
    }
    return true;
}

} // namespace astitch
