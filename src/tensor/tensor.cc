#include "tensor/tensor.h"

#include <atomic>
#include <cmath>
#include <numeric>

#include "support/logging.h"

namespace astitch {

Tensor::Tensor(Shape shape, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype)
{
    const std::int64_t n = shape_.numElements();
    if (n > 0) {
        data_ = std::make_shared<std::vector<float>>(
            static_cast<std::size_t>(n), 0.0f);
    }
}

Tensor::Tensor(Shape shape, std::vector<float> data, DType dtype)
    : shape_(std::move(shape)), dtype_(dtype)
{
    fatalIf(static_cast<std::int64_t>(data.size()) != shape_.numElements(),
            "tensor data size ", data.size(), " does not match shape ",
            shape_);
    if (!data.empty())
        data_ = std::make_shared<std::vector<float>>(std::move(data));
}

const std::vector<float> &
Tensor::noData()
{
    static const std::vector<float> empty;
    return empty;
}

std::vector<float> &
Tensor::data()
{
    if (!data_) {
        data_ = std::make_shared<std::vector<float>>();
    } else if (data_.use_count() > 1) {
        data_ = std::make_shared<std::vector<float>>(*data_);
    } else {
        // use_count() reads the count unordered. The fence pairs with the
        // release in the last other holder's drop, so that holder's reads
        // of the buffer happen before this holder's writes.
        std::atomic_thread_fence(std::memory_order_acquire);
    }
    return *data_;
}

float
Tensor::at(std::int64_t i) const
{
    // A default tensor's shape [] counts one element, but it holds none.
    panicIf(i < 0 || i >= numElements() ||
                i >= static_cast<std::int64_t>(data().size()),
            "tensor index out of bounds");
    return data()[static_cast<std::size_t>(i)];
}

void
Tensor::set(std::int64_t i, float v)
{
    at(i); // the bounds check, before data() detaches or allocates
    data()[static_cast<std::size_t>(i)] = v;
}

float
Tensor::at(const std::vector<std::int64_t> &index) const
{
    return at(shape_.linearize(index));
}

Tensor
Tensor::full(Shape shape, float value, DType dtype)
{
    std::vector<float> data(static_cast<std::size_t>(shape.numElements()),
                            value);
    return Tensor(std::move(shape), std::move(data), dtype);
}

Tensor
Tensor::scalar(float value, DType dtype)
{
    return full(Shape{}, value, dtype);
}

Tensor
Tensor::iota(Shape shape, DType dtype)
{
    std::vector<float> data(static_cast<std::size_t>(shape.numElements()));
    std::iota(data.begin(), data.end(), 0.0f);
    return Tensor(std::move(shape), std::move(data), dtype);
}

bool
Tensor::allClose(const Tensor &other, double rtol, double atol) const
{
    if (shape_ != other.shape_)
        return false;
    const std::vector<float> &mine = data();
    const std::vector<float> &theirs = other.data();
    for (std::size_t i = 0; i < mine.size(); ++i) {
        const double a = mine[i];
        const double b = theirs[i];
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
