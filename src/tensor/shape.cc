#include "tensor/shape.h"

#include <algorithm>
#include <ostream>
#include <set>

#include "support/logging.h"
#include "support/strings.h"

namespace astitch {

Shape::Shape(std::initializer_list<std::int64_t> dims) : dims_(dims)
{
    for (auto d : dims_)
        fatalIf(d < 0, "negative dimension in shape ", *this);
}

Shape::Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims))
{
    for (auto d : dims_)
        fatalIf(d < 0, "negative dimension in shape ", *this);
}

std::int64_t
Shape::dim(int i) const
{
    panicIf(i < 0 || i >= rank(), "dim index ", i, " out of range for ",
            *this);
    return dims_[i];
}

std::int64_t
Shape::numElements() const
{
    std::int64_t n = 1;
    for (auto d : dims_)
        n *= d;
    return n;
}

std::vector<std::int64_t>
Shape::strides() const
{
    std::vector<std::int64_t> s(dims_.size(), 1);
    for (int i = rank() - 2; i >= 0; --i)
        s[i] = s[i + 1] * dims_[i + 1];
    return s;
}

std::int64_t
Shape::linearize(const std::vector<std::int64_t> &index) const
{
    panicIf(static_cast<int>(index.size()) != rank(),
            "index rank mismatch in linearize");
    auto s = strides();
    std::int64_t offset = 0;
    for (int i = 0; i < rank(); ++i) {
        panicIf(index[i] < 0 || index[i] >= dims_[i],
                "index out of bounds in linearize");
        offset += index[i] * s[i];
    }
    return offset;
}

std::vector<std::int64_t>
Shape::delinearize(std::int64_t offset) const
{
    panicIf(offset < 0 || offset >= numElements(),
            "offset out of bounds in delinearize");
    std::vector<std::int64_t> index(dims_.size());
    auto s = strides();
    for (int i = 0; i < rank(); ++i) {
        index[i] = offset / s[i];
        offset %= s[i];
    }
    return index;
}

std::string
Shape::toString() const
{
    return strCat("[", strJoin(dims_, ","), "]");
}

Shape
Shape::reduceDims(const std::vector<int> &reduce_dims) const
{
    std::set<int> to_reduce;
    for (int d : reduce_dims) {
        fatalIf(d < 0 || d >= rank(),
                "reduce dim ", d, " out of range for ", *this);
        fatalIf(!to_reduce.insert(d).second, "duplicate reduce dim ", d);
    }
    std::vector<std::int64_t> out;
    for (int i = 0; i < rank(); ++i) {
        if (!to_reduce.count(i))
            out.push_back(dims_[i]);
    }
    return Shape(std::move(out));
}

Shape
Shape::broadcast(const Shape &a, const Shape &b)
{
    const int rank = std::max(a.rank(), b.rank());
    std::vector<std::int64_t> out(rank);
    for (int i = 0; i < rank; ++i) {
        const int ai = a.rank() - 1 - i;
        const int bi = b.rank() - 1 - i;
        const std::int64_t da = ai >= 0 ? a.dims()[ai] : 1;
        const std::int64_t db = bi >= 0 ? b.dims()[bi] : 1;
        fatalIf(da != db && da != 1 && db != 1,
                "shapes ", a, " and ", b,
                " are not broadcast-compatible");
        // NumPy's rule: a size-1 dim takes the other side's size, zero
        // included.
        out[rank - 1 - i] = da == 1 ? db : da;
    }
    return Shape(std::move(out));
}

bool
Shape::broadcastableTo(const Shape &from, const Shape &to)
{
    if (from.rank() > to.rank())
        return false;
    for (int i = 0; i < from.rank(); ++i) {
        const std::int64_t df = from.dims()[from.rank() - 1 - i];
        const std::int64_t dt = to.dims()[to.rank() - 1 - i];
        if (df != dt && df != 1)
            return false;
    }
    return true;
}

std::ostream &
operator<<(std::ostream &os, const Shape &shape)
{
    return os << shape.toString();
}

} // namespace astitch
