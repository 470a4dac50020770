/**
 * @file
 * Unit tests for shapes, tensors and the reference operator kernels.
 */
#include <gtest/gtest.h>

#include "support/logging.h"

#include <cmath>
#include <functional>
#include <thread>
#include <utility>

#include "compiler/evaluator.h"
#include "graph/shape_inference.h"
#include "tensor/reference_ops.h"

namespace astitch {
namespace {

TEST(DType, Sizes)
{
    EXPECT_EQ(dtypeSizeBytes(DType::F32), 4);
    EXPECT_EQ(dtypeSizeBytes(DType::F16), 2);
    EXPECT_EQ(dtypeSizeBytes(DType::I32), 4);
    EXPECT_EQ(dtypeSizeBytes(DType::Pred), 1);
    EXPECT_EQ(dtypeName(DType::F16), "f16");
}

TEST(Shape, NumElementsAndRank)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.rank(), 3);
    EXPECT_EQ(s.numElements(), 24);
    EXPECT_FALSE(s.isScalar());
    EXPECT_TRUE(Shape{}.isScalar());
    EXPECT_EQ(Shape{}.numElements(), 1);
}

TEST(Shape, StridesAreRowMajor)
{
    Shape s{2, 3, 4};
    const auto strides = s.strides();
    ASSERT_EQ(strides.size(), 3u);
    EXPECT_EQ(strides[0], 12);
    EXPECT_EQ(strides[1], 4);
    EXPECT_EQ(strides[2], 1);
}

TEST(Shape, LinearizeDelinearizeRoundTrip)
{
    Shape s{3, 5, 7};
    for (std::int64_t i = 0; i < s.numElements(); ++i) {
        const auto index = s.delinearize(i);
        EXPECT_EQ(s.linearize(index), i);
    }
}

TEST(Shape, ReduceDims)
{
    Shape s{2, 3, 4};
    EXPECT_EQ(s.reduceDims({1}), (Shape{2, 4}));
    EXPECT_EQ(s.reduceDims({0, 2}), (Shape{3}));
    EXPECT_EQ(s.reduceDims({0, 1, 2}), Shape{});
}

TEST(Shape, ReduceDimsRejectsDuplicates)
{
    Shape s{2, 3};
    EXPECT_THROW(s.reduceDims({1, 1}), FatalError);
    EXPECT_THROW(s.reduceDims({2}), FatalError);
}

TEST(Shape, BroadcastCompatible)
{
    EXPECT_EQ(Shape::broadcast({2, 1}, {2, 128}), (Shape{2, 128}));
    EXPECT_EQ(Shape::broadcast({}, {3, 4}), (Shape{3, 4}));
    EXPECT_EQ(Shape::broadcast({4}, {3, 4}), (Shape{3, 4}));
}

TEST(Shape, BroadcastIncompatibleThrows)
{
    EXPECT_THROW(Shape::broadcast({2, 3}, {2, 4}), FatalError);
}

TEST(Shape, BroadcastKeepsZeroSizeDims)
{
    // NumPy's rule: a size-1 (or missing) dim takes the other side's
    // size, zero included.
    EXPECT_EQ(Shape::broadcast({0, 3}, {}), (Shape{0, 3}));
    EXPECT_EQ(Shape::broadcast({0, 3}, {1, 3}), (Shape{0, 3}));
    EXPECT_EQ(Shape::broadcast({1}, {0}), (Shape{0}));
    EXPECT_EQ(Shape::broadcast({3}, {0, 1}), (Shape{0, 3}));
    EXPECT_THROW(Shape::broadcast({0}, {2}), FatalError);
}

TEST(Shape, BroadcastableTo)
{
    EXPECT_TRUE(Shape::broadcastableTo({2, 1}, {2, 128}));
    EXPECT_TRUE(Shape::broadcastableTo({}, {5}));
    EXPECT_FALSE(Shape::broadcastableTo({3}, {3, 4})); // not right-aligned
    EXPECT_TRUE(Shape::broadcastableTo({4}, {3, 4}));
}

TEST(Shape, ToString)
{
    EXPECT_EQ((Shape{2, 128}).toString(), "[2,128]");
    EXPECT_EQ(Shape{}.toString(), "[]");
}

TEST(Tensor, ConstructionAndFill)
{
    Tensor t = Tensor::full({2, 2}, 3.5f);
    EXPECT_EQ(t.numElements(), 4);
    EXPECT_EQ(t.sizeBytes(), 16);
    for (std::int64_t i = 0; i < 4; ++i)
        EXPECT_FLOAT_EQ(t.at(i), 3.5f);
}

TEST(Tensor, F16HalvesBytes)
{
    Tensor t(Shape{8}, DType::F16);
    EXPECT_EQ(t.sizeBytes(), 16);
}

TEST(Tensor, IotaAndMultiIndex)
{
    Tensor t = Tensor::iota({2, 3});
    EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0f);
    EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0f);
}

TEST(Tensor, DataSizeMismatchThrows)
{
    EXPECT_THROW(Tensor(Shape{3}, std::vector<float>{1, 2}), FatalError);
}

TEST(Tensor, DefaultTensorHoldsNoElementToReadOrWrite)
{
    // Shape [] counts one element, but a default tensor holds none.
    const Tensor empty;
    EXPECT_EQ(empty.numElements(), 1);
    EXPECT_THROW(empty.at(0), PanicError);
    Tensor written;
    EXPECT_THROW(written.set(0, 1.0f), PanicError);
    EXPECT_TRUE(written.data().empty());
    EXPECT_FLOAT_EQ(Tensor::scalar(2.0f).at(0), 2.0f);
}

TEST(Tensor, AllCloseToleratesSmallError)
{
    Tensor a = Tensor::full({4}, 1.0f);
    Tensor b = Tensor::full({4}, 1.0f + 1e-7f);
    EXPECT_TRUE(a.allClose(b));
    Tensor c = Tensor::full({4}, 1.01f);
    EXPECT_FALSE(a.allClose(c));
}

TEST(Tensor, AllCloseShapeMismatch)
{
    EXPECT_FALSE(Tensor::full({4}, 1.0f)
                     .allClose(Tensor::full({2, 2}, 1.0f)));
}

TEST(RefOps, ElementwiseUnary)
{
    Tensor x(Shape{3}, {1.0f, 4.0f, 9.0f});
    Tensor y = ref::elementwiseUnary(x,
                                     [](float v) { return std::sqrt(v); });
    EXPECT_FLOAT_EQ(y.at(0), 1.0f);
    EXPECT_FLOAT_EQ(y.at(1), 2.0f);
    EXPECT_FLOAT_EQ(y.at(2), 3.0f);
}

TEST(RefOps, ElementwiseBinaryWithBroadcast)
{
    Tensor a(Shape{2, 1}, {10.0f, 20.0f});
    Tensor b(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor c = ref::elementwiseBinary(
        a, b, [](float x, float y) { return x + y; });
    EXPECT_EQ(c.shape(), (Shape{2, 3}));
    EXPECT_FLOAT_EQ(c.at({0, 2}), 13.0f);
    EXPECT_FLOAT_EQ(c.at({1, 0}), 24.0f);
}

TEST(RefOps, ScalarBroadcast)
{
    Tensor a = Tensor::scalar(2.0f);
    Tensor b = Tensor::iota({4});
    Tensor c = ref::elementwiseBinary(
        a, b, [](float x, float y) { return x * y; });
    EXPECT_FLOAT_EQ(c.at(3), 6.0f);
}

TEST(RefOps, ZeroSizeOperandWithScalarIsEmpty)
{
    const Tensor empty(Shape{0, 3});
    const Tensor sum = ref::elementwiseBinary(
        empty, Tensor::scalar(1.0f), [](float x, float y) { return x + y; });
    EXPECT_EQ(sum.shape(), (Shape{0, 3}));
    EXPECT_EQ(sum.numElements(), 0);
    EXPECT_EQ(inferShape(OpKind::Add, {Shape{0, 3}, Shape{}}, NodeAttrs{}),
              (Shape{0, 3}));
}

TEST(RefOps, Select)
{
    Tensor pred(Shape{3}, {1.0f, 0.0f, 1.0f});
    Tensor t = Tensor::full({3}, 5.0f);
    Tensor f = Tensor::full({3}, -5.0f);
    Tensor out = ref::select(pred, t, f);
    EXPECT_FLOAT_EQ(out.at(0), 5.0f);
    EXPECT_FLOAT_EQ(out.at(1), -5.0f);
    EXPECT_FLOAT_EQ(out.at(2), 5.0f);
}

TEST(RefOps, BroadcastToMaterializes)
{
    Tensor v(Shape{3}, {1, 2, 3});
    Tensor wide = ref::broadcastTo(v, Shape{2, 3});
    EXPECT_FLOAT_EQ(wide.at({0, 1}), 2.0f);
    EXPECT_FLOAT_EQ(wide.at({1, 2}), 3.0f);
}

TEST(RefOps, BroadcastToRejectsBadShape)
{
    Tensor v(Shape{3}, {1, 2, 3});
    EXPECT_THROW(ref::broadcastTo(v, Shape{3, 2}), FatalError);
}

TEST(RefOps, ReduceSumRows)
{
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = ref::reduce(x, {1}, ref::ReduceKind::Sum);
    EXPECT_EQ(r.shape(), (Shape{2}));
    EXPECT_FLOAT_EQ(r.at(0), 6.0f);
    EXPECT_FLOAT_EQ(r.at(1), 15.0f);
}

TEST(RefOps, ReduceSumColumns)
{
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor r = ref::reduce(x, {0}, ref::ReduceKind::Sum);
    EXPECT_EQ(r.shape(), (Shape{3}));
    EXPECT_FLOAT_EQ(r.at(0), 5.0f);
    EXPECT_FLOAT_EQ(r.at(2), 9.0f);
}

TEST(RefOps, ReduceMaxMinMean)
{
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    EXPECT_FLOAT_EQ(ref::reduce(x, {1}, ref::ReduceKind::Max).at(1), 6.0f);
    EXPECT_FLOAT_EQ(ref::reduce(x, {1}, ref::ReduceKind::Min).at(0), 1.0f);
    EXPECT_FLOAT_EQ(ref::reduce(x, {1}, ref::ReduceKind::Mean).at(0),
                    2.0f);
}

TEST(RefOps, ReduceAllDims)
{
    Tensor x(Shape{2, 2}, {1, 2, 3, 4});
    Tensor r = ref::reduce(x, {0, 1}, ref::ReduceKind::Sum);
    EXPECT_TRUE(r.shape().isScalar());
    EXPECT_FLOAT_EQ(r.at(0), 10.0f);
}

TEST(RefOps, Transpose2D)
{
    Tensor x(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor t = ref::transpose(x, {1, 0});
    EXPECT_EQ(t.shape(), (Shape{3, 2}));
    EXPECT_FLOAT_EQ(t.at({0, 1}), 4.0f);
    EXPECT_FLOAT_EQ(t.at({2, 0}), 3.0f);
}

TEST(RefOps, Transpose3DBatchSwap)
{
    Tensor x = Tensor::iota({2, 3, 4});
    Tensor t = ref::transpose(x, {0, 2, 1});
    EXPECT_EQ(t.shape(), (Shape{2, 4, 3}));
    EXPECT_FLOAT_EQ(t.at({1, 3, 2}), x.at({1, 2, 3}));
}

TEST(RefOps, TransposeRejectsBadPerm)
{
    Tensor x = Tensor::iota({2, 3});
    EXPECT_THROW(ref::transpose(x, {0, 0}), FatalError);
    EXPECT_THROW(ref::transpose(x, {0}), FatalError);
}

TEST(RefOps, ReshapePreservesData)
{
    Tensor x = Tensor::iota({2, 6});
    Tensor r = ref::reshape(x, Shape{3, 4});
    EXPECT_FLOAT_EQ(r.at({2, 3}), 11.0f);
    EXPECT_THROW(ref::reshape(x, Shape{5}), FatalError);
}

TEST(RefOps, ConcatAlongAxis)
{
    Tensor a = Tensor::full({2, 2}, 1.0f);
    Tensor b = Tensor::full({3, 2}, 2.0f);
    Tensor c = ref::concat({a, b}, 0);
    EXPECT_EQ(c.shape(), (Shape{5, 2}));
    EXPECT_FLOAT_EQ(c.at({0, 0}), 1.0f);
    EXPECT_FLOAT_EQ(c.at({4, 1}), 2.0f);
}

TEST(RefOps, ConcatRejectsMismatchedDims)
{
    Tensor a = Tensor::full({2, 2}, 1.0f);
    Tensor b = Tensor::full({2, 3}, 2.0f);
    EXPECT_THROW(ref::concat({a, b}, 0), FatalError);
}

TEST(RefOps, Matmul)
{
    Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
    Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
    Tensor c = ref::matmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2}));
    EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0f);
    EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0f);
}

TEST(RefOps, MatmulInnerDimMismatch)
{
    Tensor a = Tensor::iota({2, 3});
    Tensor b = Tensor::iota({2, 3});
    EXPECT_THROW(ref::matmul(a, b), FatalError);
}

TEST(RefOps, BatchMatmul)
{
    Tensor a = Tensor::full({2, 2, 3}, 1.0f);
    Tensor b = Tensor::full({2, 3, 4}, 2.0f);
    Tensor c = ref::batchMatmul(a, b);
    EXPECT_EQ(c.shape(), (Shape{2, 2, 4}));
    for (std::int64_t i = 0; i < c.numElements(); ++i)
        EXPECT_FLOAT_EQ(c.at(i), 6.0f);
}

// ---- Value semantics over shared storage ----

/** Where @p t's elements live, read through const access (no detach). */
const float *
storageOf(const Tensor &t)
{
    return t.data().data();
}

TEST(TensorStorage, CopiesAndReshapesShareTheInputBuffer)
{
    const Tensor t = Tensor::iota({2, 3});
    const Tensor copy = t;
    Tensor assigned;
    assigned = t;
    const Tensor flat = ref::reshape(t, Shape{6});
    EXPECT_EQ(storageOf(copy), storageOf(t));
    EXPECT_EQ(storageOf(assigned), storageOf(t));
    EXPECT_EQ(storageOf(flat), storageOf(t));
    EXPECT_EQ(flat.shape(), (Shape{6}));
    EXPECT_EQ(t.shape(), (Shape{2, 3}));
}

TEST(TensorStorage, EmptyTensorsHoldNoBuffer)
{
    const Tensor unset;
    const Tensor zero_rows(Shape{0, 3});
    const Tensor from_vector(Shape{0}, std::vector<float>{});
    EXPECT_TRUE(unset.data().empty());
    EXPECT_EQ(&zero_rows.data(), &unset.data());
    EXPECT_EQ(&from_vector.data(), &unset.data());
    // Writable access never hands out the vector every empty tensor reads.
    Tensor written(Shape{0});
    EXPECT_NE(&written.data(), &unset.data());
    EXPECT_TRUE(unset.data().empty());
}

TEST(TensorStorage, WritesLeaveEveryOtherHolderUnchanged)
{
    const std::vector<std::pair<const char *, std::function<void(Tensor &)>>>
        writers{{"set", [](Tensor &t) { t.set(1, -7.0f); }},
                {"data", [](Tensor &t) { t.data()[1] = -7.0f; }}};
    for (const auto &[how, write] : writers) {
        // The original, a copy, an assigned copy and a reshape each take
        // the write in turn.
        for (std::size_t target = 0; target < 4; ++target) {
            const Tensor original = Tensor::iota({2, 2});
            std::vector<Tensor> holders{original, original, Tensor(),
                                        ref::reshape(original, Shape{4})};
            holders[2] = holders[0];
            write(holders[target]);
            for (std::size_t h = 0; h < holders.size(); ++h) {
                EXPECT_EQ(holders[h].at(1), h == target ? -7.0f : 1.0f)
                    << how << " on holder " << target << ", read " << h;
            }
            EXPECT_EQ(original.at(1), 1.0f) << how << " on " << target;
        }
    }
}

TEST(TensorStorage, SoleOwnerWritesInPlace)
{
    Tensor t = Tensor::iota({4});
    const float *before = storageOf(t);
    {
        const Tensor copy = t;
        EXPECT_EQ(storageOf(copy), before);
    }
    t.set(0, 5.0f);
    t.data()[1] = 6.0f;
    EXPECT_EQ(storageOf(t), before);
    EXPECT_EQ(t.at(0), 5.0f);
    EXPECT_EQ(t.at(1), 6.0f);
}

TEST(TensorStorage, TensorMapCopyThenSetLeavesTheSource)
{
    // The finite-difference pattern of the gradient checks: copy the
    // feeds twice and nudge one element of each copy.
    TensorMap feeds;
    feeds.emplace(0, Tensor::iota({3}));
    TensorMap plus = feeds;
    TensorMap minus = feeds;
    plus.at(0).set(1, plus.at(0).at(1) + 0.5f);
    minus.at(0).set(1, minus.at(0).at(1) - 0.5f);
    EXPECT_EQ(feeds.at(0).at(1), 1.0f);
    EXPECT_EQ(plus.at(0).at(1), 1.5f);
    EXPECT_EQ(minus.at(0).at(1), 0.5f);
}

TEST(TensorStorage, LiteralCopiesDetachFromTheNode)
{
    NodeAttrs attrs;
    attrs.literal = Tensor::iota({3});
    const Node node(0, OpKind::Constant, {}, attrs, Shape{3}, DType::F32,
                    "c");
    NodeAttrs copy = node.attrs();
    copy.literal.data()[2] = 9.0f;
    attrs.literal.set(1, 4.0f);
    // Evaluating a Constant hands out the literal's buffer.
    Tensor value = Evaluator::evalNode(node, {});
    EXPECT_EQ(storageOf(value), storageOf(node.attrs().literal));
    value.set(0, -1.0f);
    EXPECT_EQ(node.attrs().literal.at(0), 0.0f);
    EXPECT_EQ(node.attrs().literal.at(1), 1.0f);
    EXPECT_EQ(node.attrs().literal.at(2), 2.0f);
    EXPECT_EQ(copy.literal.at(2), 9.0f);
    EXPECT_EQ(attrs.literal.at(1), 4.0f);
    EXPECT_EQ(value.at(0), -1.0f);
}

TEST(TensorStorage, ThreadsMutateTheirOwnCopies)
{
    constexpr int kThreads = 8;
    const Tensor source = Tensor::iota({256});
    std::vector<Tensor> results(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&source, &results, t] {
            Tensor mine = source;
            for (std::int64_t i = 0; i < mine.numElements(); ++i) {
                if (t % 2 == 0)
                    mine.set(i, mine.at(i) + static_cast<float>(t));
                else
                    mine.data()[static_cast<std::size_t>(i)] +=
                        static_cast<float>(t);
            }
            results[t] = std::move(mine);
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    for (int t = 0; t < kThreads; ++t) {
        EXPECT_NE(storageOf(results[t]), storageOf(source));
        for (std::int64_t i = 0; i < source.numElements(); ++i) {
            ASSERT_EQ(results[t].at(i), static_cast<float>(i + t))
                << "thread " << t << " element " << i;
        }
    }
    for (std::int64_t i = 0; i < source.numElements(); ++i)
        ASSERT_EQ(source.at(i), static_cast<float>(i));
}

} // namespace
} // namespace astitch
