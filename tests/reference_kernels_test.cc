/**
 * @file
 * Differential test of the reference kernels (tensor/reference_ops)
 * against the per-element oracle in naive_reference_ops. Over a seeded
 * corpus of shapes, broadcasts, reduce-dim subsets, permutations,
 * concatenations, pads and GEMMs, both sides must return the same shape,
 * dtype and bits (compared with memcmp, so NaN payloads and signed zeros
 * count), or reject the input with the same exception type. The
 * elementwise op kinds are also compared through Evaluator::evalNode,
 * whose scalar functions the kernels inline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "compiler/evaluator.h"
#include "naive_reference_ops.h"
#include "support/logging.h"
#include "support/strings.h"

namespace astitch {
namespace {

/** What one kernel call produced: a tensor, or the type it threw. */
struct Outcome
{
    std::optional<Tensor> value;
    std::string thrown;
};

template <typename Fn>
Outcome
outcomeOf(const Fn &fn)
{
    try {
        return {fn(), ""};
    } catch (const FatalError &) {
        return {std::nullopt, "FatalError"};
    } catch (const PanicError &) {
        return {std::nullopt, "PanicError"};
    }
}

::testing::AssertionResult
sameOutcome(const Outcome &got, const Outcome &want)
{
    if (got.thrown != want.thrown) {
        return ::testing::AssertionFailure()
               << "kernel threw '" << got.thrown << "', oracle threw '"
               << want.thrown << "'";
    }
    if (!want.value)
        return ::testing::AssertionSuccess();
    const Tensor &a = *got.value;
    const Tensor &b = *want.value;
    if (a.shape() != b.shape() || a.dtype() != b.dtype()) {
        return ::testing::AssertionFailure()
               << "kernel returned " << a.shape() << " "
               << dtypeName(a.dtype()) << ", oracle " << b.shape() << " "
               << dtypeName(b.dtype());
    }
    for (std::size_t i = 0; i < a.data().size(); ++i) {
        if (std::memcmp(&a.data()[i], &b.data()[i], sizeof(float)) != 0) {
            return ::testing::AssertionFailure()
                   << "element " << i << ": kernel " << a.data()[i]
                   << ", oracle " << b.data()[i];
        }
    }
    return ::testing::AssertionSuccess();
}

/** Runs every case of one test through both sides and tallies them. */
class Differential
{
  public:
    template <typename Fast, typename Naive>
    void check(const std::string &what, const Fast &fast, const Naive &naive)
    {
        if (failures_ >= kMaxReported)
            return;
        ++cases_;
        const Outcome want = outcomeOf(naive);
        if (!want.value)
            ++rejected_;
        const auto same = sameOutcome(outcomeOf(fast), want);
        if (!same)
            ++failures_;
        EXPECT_TRUE(same) << what;
    }

    int cases() const { return cases_; }
    int rejected() const { return rejected_; }

  private:
    static constexpr int kMaxReported = 10;
    int cases_ = 0;
    int rejected_ = 0;
    int failures_ = 0;
};

std::mt19937 &
corpusRng()
{
    static std::mt19937 rng(0x5eed);
    return rng;
}

std::int64_t
uniform(std::int64_t lo, std::int64_t hi)
{
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(corpusRng());
}

/**
 * The NaN the hardware makes for inf - inf. When both operands of an
 * addition are NaNs with different bits, the operand order decides which
 * one comes out, and the compiler may commute an addition (an ASan build
 * orders some differently). With this the only NaN in the corpus, every
 * NaN a kernel returns has the same bits, so the comparison can stay
 * bitwise in every build.
 */
float
hardwareNaN()
{
    // Computed at run time: a folded constant might carry other bits.
    volatile float inf = std::numeric_limits<float>::infinity();
    return inf - inf;
}

/** Mostly ordinary values, with zeros of both signs, infinities and NaN. */
float
randomValue()
{
    switch (uniform(0, 19)) {
      case 0:
        return 0.0f;
      case 1:
        return -0.0f;
      case 2:
        return std::numeric_limits<float>::infinity();
      case 3:
        return -std::numeric_limits<float>::infinity();
      case 4:
        return hardwareNaN();
      case 5:
        return std::numeric_limits<float>::denorm_min();
      default:
        return std::uniform_real_distribution<float>(-4.0f,
                                                     4.0f)(corpusRng());
    }
}

Tensor
randomTensor(const Shape &shape, DType dtype = DType::F32)
{
    std::vector<float> data(static_cast<std::size_t>(shape.numElements()));
    for (auto &v : data)
        v = randomValue();
    return Tensor(shape, std::move(data), dtype);
}

/**
 * Ranks 0-4 with dims 1-5, and per nonzero rank one shape with a
 * zero-size dim.
 */
std::vector<Shape>
corpusShapes(int per_rank)
{
    std::vector<Shape> shapes{Shape{}};
    for (int rank = 1; rank <= 4; ++rank) {
        for (int i = 0; i < per_rank; ++i) {
            std::vector<std::int64_t> dims(rank);
            for (auto &d : dims)
                d = uniform(1, 5);
            shapes.emplace_back(dims);
        }
        std::vector<std::int64_t> dims(rank);
        for (auto &d : dims)
            d = uniform(1, 5);
        dims[uniform(0, rank - 1)] = 0;
        shapes.emplace_back(dims);
    }
    return shapes;
}

/**
 * An operand that broadcasts to @p out: some leading dims dropped and
 * some of the rest stretched from size 1.
 *
 * Where @p out has a zero-size dim, a dropped or size-1 dim of the
 * operand broadcasts back to zero (NumPy's rule), so both sides return
 * the same empty tensor.
 */
Shape
stretchedOperand(const Shape &out)
{
    const auto drop = uniform(0, out.rank());
    std::vector<std::int64_t> dims(out.dims().begin() + drop,
                                   out.dims().end());
    for (auto &d : dims) {
        if (uniform(0, 2) == 0)
            d = 1;
    }
    return Shape(dims);
}

std::string
describe(const std::vector<Shape> &shapes)
{
    std::string out;
    for (const auto &s : shapes)
        strAppend(out, s, " ");
    return out;
}

struct NamedBinary
{
    const char *name;
    std::function<float(float, float)> fn;
};

const std::vector<NamedBinary> &
binaryFns()
{
    static const std::vector<NamedBinary> fns{
        {"sub", [](float a, float b) { return a - b; }},
        {"div", [](float a, float b) { return a / b; }},
        {"max", [](float a, float b) { return std::max(a, b); }},
        {"a*0.5+b", [](float a, float b) { return a * 0.5f + b; }},
    };
    return fns;
}

TEST(ReferenceKernels, ElementwiseBinaryMatchesOracle)
{
    Differential diff;
    for (const Shape &out : corpusShapes(10)) {
        for (int variant = 0; variant < 8; ++variant) {
            const Shape other =
                variant == 0 ? Shape{} : stretchedOperand(out);
            const Shape mutual = stretchedOperand(out);
            const std::vector<std::pair<Shape, Shape>> pairs{
                {out, other}, {other, out}, {other, mutual}};
            for (const auto &[ls, rs] : pairs) {
                const Tensor lhs = randomTensor(ls, DType::F16);
                const Tensor rhs = randomTensor(rs);
                for (const auto &f : binaryFns()) {
                    diff.check(
                        strCat(f.name, " ", describe({ls, rs})),
                        [&] { return ref::elementwiseBinary(lhs, rhs, f.fn); },
                        [&] {
                            return naive::elementwiseBinary(lhs, rhs, f.fn);
                        });
                }
            }
        }
    }
    EXPECT_GT(diff.cases(), 3000);
    EXPECT_LT(diff.rejected(), diff.cases() / 10);
}

TEST(ReferenceKernels, SelectMatchesOracle)
{
    Differential diff;
    for (const Shape &out : corpusShapes(8)) {
        for (int variant = 0; variant < 8; ++variant) {
            std::vector<Shape> shapes{stretchedOperand(out),
                                      stretchedOperand(out),
                                      stretchedOperand(out)};
            shapes[uniform(0, 2)] = out;
            const Tensor pred = randomTensor(shapes[0]);
            const Tensor on_true = randomTensor(shapes[1], DType::F16);
            const Tensor on_false = randomTensor(shapes[2]);
            diff.check(
                describe(shapes),
                [&] { return ref::select(pred, on_true, on_false); },
                [&] { return naive::select(pred, on_true, on_false); });
        }
    }
    EXPECT_GT(diff.cases(), 250);
    EXPECT_LT(diff.rejected(), diff.cases() / 10);
}

TEST(ReferenceKernels, BroadcastToMatchesOracle)
{
    Differential diff;
    for (const Shape &target : corpusShapes(8)) {
        for (int variant = 0; variant < 8; ++variant) {
            const Shape from = variant == 0 ? Shape{}
                                            : stretchedOperand(target);
            const Tensor input = randomTensor(from);
            diff.check(
                describe({from, target}),
                [&] { return ref::broadcastTo(input, target); },
                [&] { return naive::broadcastTo(input, target); });
        }
    }
    EXPECT_GT(diff.cases(), 250);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, ReduceEveryDimSubsetAndKind)
{
    const ref::ReduceKind kinds[] = {ref::ReduceKind::Sum,
                                     ref::ReduceKind::Max,
                                     ref::ReduceKind::Min,
                                     ref::ReduceKind::Mean};
    Differential diff;
    for (const Shape &shape : corpusShapes(12)) {
        const Tensor input = randomTensor(shape, DType::F16);
        for (unsigned mask = 0; mask < (1u << shape.rank()); ++mask) {
            std::vector<int> dims;
            for (int d = 0; d < shape.rank(); ++d) {
                if (mask & (1u << d))
                    dims.push_back(d);
            }
            // Dims need not be sorted.
            if (uniform(0, 1) == 0)
                std::reverse(dims.begin(), dims.end());
            for (const auto kind : kinds) {
                diff.check(
                    strCat(shape, " dims [", strJoin(dims, ","), "] kind ",
                           static_cast<int>(kind)),
                    [&] { return ref::reduce(input, dims, kind); },
                    [&] { return naive::reduce(input, dims, kind); });
            }
        }
    }
    EXPECT_GT(diff.cases(), 1500);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, TransposeEveryPermutation)
{
    Differential diff;
    for (const Shape &shape : corpusShapes(4)) {
        const Tensor input = randomTensor(shape, DType::F16);
        std::vector<int> perm(shape.rank());
        std::iota(perm.begin(), perm.end(), 0);
        do {
            diff.check(
                strCat(shape, " perm [", strJoin(perm, ","), "]"),
                [&] { return ref::transpose(input, perm); },
                [&] { return naive::transpose(input, perm); });
        } while (std::next_permutation(perm.begin(), perm.end()));
    }
    EXPECT_GT(diff.cases(), 120);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, ConcatOneToThreeInputsAlongEveryDim)
{
    Differential diff;
    for (const Shape &shape : corpusShapes(6)) {
        for (int dim = 0; dim < shape.rank(); ++dim) {
            for (int count = 1; count <= 3; ++count) {
                std::vector<Tensor> inputs;
                std::vector<Shape> shapes;
                for (int i = 0; i < count; ++i) {
                    auto dims = shape.dims();
                    dims[dim] = uniform(0, 4);
                    shapes.emplace_back(dims);
                    inputs.push_back(randomTensor(shapes.back()));
                }
                diff.check(
                    strCat(describe(shapes), "dim ", dim),
                    [&] { return ref::concat(inputs, dim); },
                    [&] { return naive::concat(inputs, dim); });
            }
        }
    }
    EXPECT_GT(diff.cases(), 150);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, PadToLargerTargets)
{
    Differential diff;
    for (const Shape &shape : corpusShapes(8)) {
        for (int variant = 0; variant < 4; ++variant) {
            auto dims = shape.dims();
            for (auto &d : dims)
                d += variant == 0 ? 0 : uniform(0, 2);
            const Shape target(dims);
            const Tensor input = randomTensor(shape);
            diff.check(
                describe({shape, target}),
                [&] { return ref::pad(input, target); },
                [&] { return naive::pad(input, target); });
        }
    }
    EXPECT_GT(diff.cases(), 120);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, MatmulAndBatchMatmulAtOddSizes)
{
    const std::int64_t sizes[] = {0, 1, 2, 3, 5, 7, 13, 17, 33};
    const auto pick = [&] { return sizes[uniform(1, 8)]; };
    Differential diff;
    for (int i = 0; i < 150; ++i) {
        // One in ten cases has a zero-size dim.
        const auto m = i % 10 == 1 ? 0 : pick();
        const auto k = i % 10 == 2 ? 0 : pick();
        const auto n = i % 10 == 3 ? 0 : pick();
        const auto b = uniform(1, 3);
        const Tensor a2 = randomTensor(Shape{m, k});
        const Tensor b2 = randomTensor(Shape{k, n});
        diff.check(
            describe({a2.shape(), b2.shape()}),
            [&] { return ref::matmul(a2, b2); },
            [&] { return naive::matmul(a2, b2); });
        const Tensor a3 = randomTensor(Shape{b, m, k}, DType::F16);
        const Tensor b3 = randomTensor(Shape{b, k, n});
        diff.check(
            describe({a3.shape(), b3.shape()}),
            [&] { return ref::batchMatmul(a3, b3); },
            [&] { return naive::batchMatmul(a3, b3); });
    }
    EXPECT_EQ(diff.cases(), 300);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, UnarySliceGatherAndReshape)
{
    const std::function<float(float)> square_less_one = [](float v) {
        return v * v - 1.0f;
    };
    Differential diff;
    for (const Shape &shape : corpusShapes(8)) {
        const Tensor input = randomTensor(shape, DType::F16);
        diff.check(
            strCat("unary ", shape),
            [&] { return ref::elementwiseUnary(input, square_less_one); },
            [&] {
                return naive::elementwiseUnary(input, square_less_one);
            });
        const Shape flat{shape.numElements()};
        diff.check(
            strCat("reshape ", shape),
            [&] { return ref::reshape(input, flat); },
            [&] { return naive::reshape(input, flat); });
        if (shape.rank() == 0)
            continue;
        for (std::int64_t start = 0; start < shape.dim(0); ++start) {
            for (std::int64_t size = 1; start + size <= shape.dim(0);
                 ++size) {
                diff.check(
                    strCat("slice ", shape, " start ", start, " size ",
                           size),
                    [&] { return ref::slice(input, start, size); },
                    [&] { return naive::slice(input, start, size); });
            }
        }
    }
    for (int i = 0; i < 60; ++i) {
        const auto rows = uniform(1, 6);
        const auto width = uniform(0, 5);
        const Tensor table = randomTensor(Shape{rows, width});
        // Indices are truncated toward zero, so (-1, rows) is in range.
        std::vector<float> indices(static_cast<std::size_t>(uniform(0, 5)));
        for (auto &v : indices) {
            v = std::uniform_real_distribution<float>(
                -0.99f, static_cast<float>(rows) - 0.01f)(corpusRng());
        }
        const Tensor idx(Shape{static_cast<std::int64_t>(indices.size())},
                         indices);
        diff.check(
            describe({table.shape(), idx.shape()}),
            [&] { return ref::gather(table, idx); },
            [&] { return naive::gather(table, idx); });
    }
    EXPECT_GT(diff.cases(), 150);
    EXPECT_EQ(diff.rejected(), 0);
}

TEST(ReferenceKernels, RejectedInputsThrowTheSameType)
{
    const auto add = [](float a, float b) { return a + b; };
    const Tensor m23 = Tensor::iota({2, 3});
    const Tensor m32 = Tensor::iota({3, 2});
    const Tensor v4 = Tensor::iota({4});
    const Tensor b234 = Tensor::iota({2, 3, 4});
    const Tensor b334 = Tensor::iota({3, 3, 4});
    Differential diff;
    const auto both = [&](const std::string &what, const auto &fast,
                          const auto &slow) { diff.check(what, fast, slow); };

    // Broadcast mismatches.
    both("binary [2,3] [4]",
         [&] { return ref::elementwiseBinary(m23, v4, add); },
         [&] { return naive::elementwiseBinary(m23, v4, add); });
    both("binary [4] [3,2]",
         [&] { return ref::elementwiseBinary(v4, m32, add); },
         [&] { return naive::elementwiseBinary(v4, m32, add); });
    both("select [2,3] [4] [2,3]",
         [&] { return ref::select(m23, v4, m23); },
         [&] { return naive::select(m23, v4, m23); });
    both("broadcastTo [3] -> [3,2]",
         [&] { return ref::broadcastTo(Tensor::iota({3}), Shape{3, 2}); },
         [&] {
             return naive::broadcastTo(Tensor::iota({3}), Shape{3, 2});
         });
    both("broadcastTo [2,3] -> [3]",
         [&] { return ref::broadcastTo(m23, Shape{3}); },
         [&] { return naive::broadcastTo(m23, Shape{3}); });

    // Bad permutations.
    for (const std::vector<int> &perm :
         {std::vector<int>{0, 0}, std::vector<int>{0},
          std::vector<int>{0, 2}, std::vector<int>{-1, 0},
          std::vector<int>{1, 0, 2}}) {
        both(strCat("transpose perm [", strJoin(perm, ","), "]"),
             [&] { return ref::transpose(m23, perm); },
             [&] { return naive::transpose(m23, perm); });
    }

    // Concat mismatches.
    const std::vector<std::pair<std::vector<Tensor>, int>> concats{
        {{m23, m32}, 0}, {{m23, v4}, 0}, {{m23, m23}, 2},
        {{m23, m23}, -1}, {{}, 0},       {{Tensor::scalar(1.0f)}, 0}};
    for (const auto &[inputs, dim] : concats) {
        both(strCat("concat of ", inputs.size(), " dim ", dim),
             [&] { return ref::concat(inputs, dim); },
             [&] { return naive::concat(inputs, dim); });
    }

    // Matmul mismatches.
    both("matmul [2,3] [2,3]", [&] { return ref::matmul(m23, m23); },
         [&] { return naive::matmul(m23, m23); });
    both("matmul [4] [4]", [&] { return ref::matmul(v4, v4); },
         [&] { return naive::matmul(v4, v4); });
    both("batchMatmul [2,3,4] [3,3,4]",
         [&] { return ref::batchMatmul(b234, b334); },
         [&] { return naive::batchMatmul(b234, b334); });
    both("batchMatmul [2,3,4] [2,3,4]",
         [&] { return ref::batchMatmul(b234, b234); },
         [&] { return naive::batchMatmul(b234, b234); });
    both("batchMatmul [2,3] [3,2]",
         [&] { return ref::batchMatmul(m23, m32); },
         [&] { return naive::batchMatmul(m23, m32); });

    // Out-of-range and duplicate reduce dims.
    for (const std::vector<int> &dims :
         {std::vector<int>{2}, std::vector<int>{-1},
          std::vector<int>{0, 0}}) {
        both(strCat("reduce dims [", strJoin(dims, ","), "]"),
             [&] { return ref::reduce(m23, dims, ref::ReduceKind::Sum); },
             [&] {
                 return naive::reduce(m23, dims, ref::ReduceKind::Sum);
             });
    }

    // Slices, gathers and reshapes the kernels reject.
    for (const auto &[start, size] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {1, 2}, {-1, 1}, {0, 0}, {3, 1}}) {
        both(strCat("slice start ", start, " size ", size),
             [&] { return ref::slice(m23, start, size); },
             [&] { return naive::slice(m23, start, size); });
    }
    both("slice scalar",
         [&] { return ref::slice(Tensor::scalar(1.0f), 0, 1); },
         [&] { return naive::slice(Tensor::scalar(1.0f), 0, 1); });
    for (const float index : {-1.0f, 2.0f, 2.5f, 1e9f}) {
        const Tensor idx(Shape{2}, {0.0f, index});
        both(strCat("gather index ", index),
             [&] { return ref::gather(m23, idx); },
             [&] { return naive::gather(m23, idx); });
    }
    both("gather [2,3,4] table", [&] { return ref::gather(b234, v4); },
         [&] { return naive::gather(b234, v4); });
    both("gather [2,3] indices", [&] { return ref::gather(m23, m23); },
         [&] { return naive::gather(m23, m23); });
    both("reshape [2,3] -> [4]",
         [&] { return ref::reshape(m23, Shape{4}); },
         [&] { return naive::reshape(m23, Shape{4}); });

    EXPECT_EQ(diff.rejected(), diff.cases());
    EXPECT_EQ(diff.cases(), 36);
}

TEST(ReferenceKernels, SizeOneBroadcastsAgainstZeroSize)
{
    // NumPy's rule: a size-1 dim takes the other side's size, zero
    // included, so both sides return the same empty tensor.
    const auto add = [](float a, float b) { return a + b; };
    const Tensor empty(Shape{0});
    const Tensor one(Shape{1});
    Differential diff;
    diff.check("binary [0] [1]",
               [&] { return ref::elementwiseBinary(empty, one, add); },
               [&] { return naive::elementwiseBinary(empty, one, add); });
    diff.check("select [1] [1] [0]",
               [&] { return ref::select(one, one, empty); },
               [&] { return naive::select(one, one, empty); });
    EXPECT_EQ(diff.cases(), 2);
    EXPECT_EQ(diff.rejected(), 0);
}

// ---- Elementwise op kinds through the Evaluator ----

float
fromBits(std::uint32_t bits)
{
    float value;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
}

/**
 * Zeros of both signs, infinities, subnormals, the float range's ends,
 * values that overflow exp, ordinary values and, when @p with_nan, NaNs
 * with payloads: quiet and signalling, of both signs.
 *
 * Only one operand of a binary case holds NaNs. When both operands of a
 * commutative op are NaNs with different bits, the operand order decides
 * which one comes out, and the compiler may commute the op.
 */
float
edgeValue(bool with_nan)
{
    static const float edges[] = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -fromBits(0x00123456u),
        std::numeric_limits<float>::min(),
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max(),
        100.0f,
        -100.0f,
    };
    static const std::uint32_t nans[] = {0x7fc00001u, 0xffc00000u,
                                         0x7fa00000u, 0x7fedcba9u,
                                         0xff800001u};
    const auto pick = uniform(0, 9);
    if (pick < 4)
        return std::uniform_real_distribution<float>(-4.0f,
                                                     4.0f)(corpusRng());
    if (pick < 8 || !with_nan)
        return edges[uniform(0, std::size(edges) - 1)];
    return fromBits(nans[uniform(0, std::size(nans) - 1)]);
}

Tensor
edgeTensor(const Shape &shape, bool with_nan, DType dtype = DType::F32)
{
    std::vector<float> data(static_cast<std::size_t>(shape.numElements()));
    for (auto &v : data)
        v = edgeValue(with_nan);
    return Tensor(shape, std::move(data), dtype);
}

/** A node of @p kind; evalNode reads only its kind and attributes. */
Node
opNode(OpKind kind, double exponent = 2.0)
{
    NodeAttrs attrs;
    attrs.exponent = exponent;
    return Node(0, kind, {}, std::move(attrs), Shape{}, DType::F32,
                opKindName(kind));
}

/** The corpus shapes plus vectors long enough to fill SIMD registers. */
std::vector<Shape>
elementwiseShapes()
{
    std::vector<Shape> shapes = corpusShapes(4);
    for (const std::int64_t n : {3, 4, 7, 8, 15, 16, 17, 33, 64, 257})
        shapes.push_back(Shape{n});
    shapes.push_back(Shape{3, 37});
    return shapes;
}

TEST(ReferenceKernels, EvaluatorElementwiseKindsMatchOracle)
{
    // Each op kind's scalar function, as evalNode applies it.
    const std::vector<std::pair<OpKind, std::function<float(float, float)>>>
        binary{
            {OpKind::Add, [](float a, float b) { return a + b; }},
            {OpKind::Sub, [](float a, float b) { return a - b; }},
            {OpKind::Mul, [](float a, float b) { return a * b; }},
            {OpKind::Div, [](float a, float b) { return a / b; }},
            {OpKind::Maximum,
             [](float a, float b) { return std::max(a, b); }},
            {OpKind::Minimum,
             [](float a, float b) { return std::min(a, b); }},
            {OpKind::CompareGT,
             [](float a, float b) { return a > b ? 1.0f : 0.0f; }},
        };
    struct Unary
    {
        Node node;
        std::function<float(float)> fn;
    };
    std::vector<Unary> unary{
        {opNode(OpKind::Neg), [](float a) { return -a; }},
        {opNode(OpKind::Abs), [](float a) { return std::abs(a); }},
        {opNode(OpKind::Tanh), [](float a) { return std::tanh(a); }},
        {opNode(OpKind::Exp), [](float a) { return std::exp(a); }},
        {opNode(OpKind::Log), [](float a) { return std::log(a); }},
        {opNode(OpKind::Sqrt), [](float a) { return std::sqrt(a); }},
        {opNode(OpKind::Rsqrt),
         [](float a) { return 1.0f / std::sqrt(a); }},
        {opNode(OpKind::Sigmoid),
         [](float a) { return 1.0f / (1.0f + std::exp(-a)); }},
        {opNode(OpKind::Erf), [](float a) { return std::erf(a); }},
    };
    for (const double exponent : {2.0, 3.0, 0.5, -1.5}) {
        const float p = static_cast<float>(exponent);
        unary.push_back({opNode(OpKind::Power, exponent),
                         [p](float a) { return std::pow(a, p); }});
    }

    // Every elementwise kind is covered; Select has its own oracle.
    for (int k = static_cast<int>(OpKind::Add);
         k <= static_cast<int>(OpKind::Erf); ++k) {
        const auto kind = static_cast<OpKind>(k);
        const bool covered =
            kind == OpKind::Select ||
            std::any_of(binary.begin(), binary.end(),
                        [&](const auto &b) { return b.first == kind; }) ||
            std::any_of(unary.begin(), unary.end(), [&](const auto &u) {
                return u.node.kind() == kind;
            });
        EXPECT_TRUE(covered) << opKindName(kind);
    }

    Differential diff;
    for (const Shape &out : elementwiseShapes()) {
        for (const auto &u : unary) {
            const Tensor input = edgeTensor(out, true, DType::F16);
            diff.check(
                strCat(u.node.name(), " ", out),
                [&] { return Evaluator::evalNode(u.node, {input}); },
                [&] { return naive::elementwiseUnary(input, u.fn); });
        }
        // Same-shape, broadcast and scalar operand pairs.
        const std::vector<std::pair<Shape, Shape>> pairs{
            {out, out},
            {out, stretchedOperand(out)},
            {stretchedOperand(out), out},
            {Shape{}, out},
            {out, Shape{}}};
        for (const auto &[kind, fn] : binary) {
            const Node node = opNode(kind);
            for (const auto &[ls, rs] : pairs) {
                for (const bool nan_left : {true, false}) {
                    const Tensor lhs = edgeTensor(ls, nan_left, DType::F16);
                    const Tensor rhs = edgeTensor(rs, !nan_left);
                    diff.check(
                        strCat(node.name(), " ", describe({ls, rs})),
                        [&] {
                            return Evaluator::evalNode(node, {lhs, rhs});
                        },
                        [&] {
                            return naive::elementwiseBinary(lhs, rhs, fn);
                        });
                }
            }
        }
        const Node select = opNode(OpKind::Select);
        const std::vector<Shape> shapes{out, stretchedOperand(out),
                                        Shape{}};
        const Tensor pred = edgeTensor(shapes[uniform(0, 2)], true);
        const Tensor on_true = edgeTensor(out, true, DType::F16);
        const Tensor on_false = edgeTensor(shapes[uniform(0, 2)], true);
        diff.check(
            strCat("select ", describe({pred.shape(), on_true.shape(),
                                        on_false.shape()})),
            [&] {
                return Evaluator::evalNode(select,
                                           {pred, on_true, on_false});
            },
            [&] { return naive::select(pred, on_true, on_false); });
    }
    EXPECT_GT(diff.cases(), 2500);
    EXPECT_EQ(diff.rejected(), 0);
}

} // namespace
} // namespace astitch
