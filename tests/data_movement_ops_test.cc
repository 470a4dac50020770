/**
 * @file
 * Tests for the Slice / Pad / Gather data-movement operators and the
 * Conv3x3 implicit-GEMM library op, across reference kernels, shape
 * inference, evaluation and compilation.
 */
#include <gtest/gtest.h>

#include <limits>

#include "backends/xla/xla_backend.h"
#include "core/astitch_backend.h"
#include "runtime/session.h"
#include "support/logging.h"
#include "tensor/reference_ops.h"
#include "workloads/common.h"
#include "workloads/dien.h"

namespace astitch {
namespace {

// ---------------------------------------------------------------------
// Reference kernels
// ---------------------------------------------------------------------

TEST(RefSlice, TakesRowRange)
{
    Tensor x = Tensor::iota({4, 3});
    Tensor s = ref::slice(x, 1, 2);
    EXPECT_EQ(s.shape(), (Shape{2, 3}));
    EXPECT_FLOAT_EQ(s.at(0), 3.0f);
    EXPECT_FLOAT_EQ(s.at(5), 8.0f);
}

TEST(RefSlice, RejectsOutOfRange)
{
    Tensor x = Tensor::iota({4, 3});
    EXPECT_THROW(ref::slice(x, 3, 2), FatalError);
    EXPECT_THROW(ref::slice(x, -1, 2), FatalError);
    EXPECT_THROW(ref::slice(x, 0, 0), FatalError);
}

TEST(RefPad, ZeroFillsOutside)
{
    Tensor x = Tensor::full({2, 2}, 7.0f);
    Tensor p = ref::pad(x, Shape{3, 4});
    EXPECT_EQ(p.shape(), (Shape{3, 4}));
    EXPECT_FLOAT_EQ(p.at({1, 1}), 7.0f);
    EXPECT_FLOAT_EQ(p.at({2, 3}), 0.0f);
    EXPECT_FLOAT_EQ(p.at({0, 2}), 0.0f);
}

TEST(RefPad, RejectsTargetSmallerThanInputBeforeCopying)
{
    // Same error and message as shape inference, raised before the
    // output is allocated rather than as an index panic mid-copy.
    Tensor x = Tensor::full({2, 2}, 7.0f);
    try {
        ref::pad(x, Shape{1, 4});
        FAIL() << "pad to a smaller target was accepted";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "pad target smaller than input in dim 0");
    }
    EXPECT_THROW(ref::pad(x, Shape{4, 1}), FatalError);
    // A zero-element input has nothing to copy but is checked all the same.
    EXPECT_THROW(ref::pad(Tensor(Shape{0, 3}), Shape{0, 2}), FatalError);
}

TEST(RefGather, LooksUpRows)
{
    Tensor table = Tensor::iota({4, 2}); // rows: [0,1],[2,3],[4,5],[6,7]
    Tensor indices(Shape{3}, {2.0f, 0.0f, 2.0f});
    Tensor g = ref::gather(table, indices);
    EXPECT_EQ(g.shape(), (Shape{3, 2}));
    EXPECT_FLOAT_EQ(g.at({0, 0}), 4.0f);
    EXPECT_FLOAT_EQ(g.at({1, 1}), 1.0f);
    EXPECT_FLOAT_EQ(g.at({2, 1}), 5.0f);
}

TEST(RefGather, RejectsBadIndices)
{
    Tensor table = Tensor::iota({4, 2});
    Tensor bad(Shape{1}, {4.0f});
    EXPECT_THROW(ref::gather(table, bad), FatalError);
}

TEST(RefGather, RejectsNonFiniteAndHugeIndicesBeforeTheCast)
{
    // Casting any of these to an integer is undefined behaviour, which
    // -fsanitize=float-cast-overflow reports; they must be rejected first.
    Tensor table = Tensor::iota({4, 2});
    for (const float index : {std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::infinity(),
                              1e30f, -1e30f}) {
        Tensor bad(Shape{2}, {1.0f, index});
        EXPECT_THROW(ref::gather(table, bad), FatalError) << index;
    }
    // Indices truncate toward zero, as before.
    Tensor fractional(Shape{2}, {-0.5f, 3.75f});
    Tensor g = ref::gather(table, fractional);
    EXPECT_FLOAT_EQ(g.at({0, 1}), 1.0f);
    EXPECT_FLOAT_EQ(g.at({1, 0}), 6.0f);
}

// ---------------------------------------------------------------------
// Builder + shape inference + classification
// ---------------------------------------------------------------------

TEST(Builder, SlicePadGatherShapes)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({8, 4});
    EXPECT_EQ(g.node(b.slice(x, 2, 3)).shape(), (Shape{3, 4}));
    EXPECT_EQ(g.node(b.pad(x, {10, 6})).shape(), (Shape{10, 6}));
    NodeId idx = b.parameter({5});
    EXPECT_EQ(g.node(b.gather(x, idx)).shape(), (Shape{5, 4}));
}

TEST(Builder, SlicePadGatherRejectBadShapes)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({8, 4});
    EXPECT_THROW(b.slice(x, 7, 2), FatalError);
    EXPECT_THROW(b.pad(x, {4, 4}), FatalError);     // shrinking
    EXPECT_THROW(b.pad(x, {8, 4, 1}), FatalError);  // rank change
    NodeId idx2d = b.parameter({5, 1});
    EXPECT_THROW(b.gather(x, idx2d), FatalError);
}

TEST(Builder, Conv3x3Shape)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({100, 16});
    NodeId w = b.parameter({144, 32});
    EXPECT_EQ(g.node(b.conv3x3(x, w)).shape(), (Shape{100, 32}));
    NodeId bad_w = b.parameter({16, 32});
    EXPECT_THROW(b.conv3x3(x, bad_w), FatalError);
}

TEST(Classification, NewOpsAreMemoryOrCompute)
{
    EXPECT_TRUE(isMemoryIntensive(OpKind::Slice));
    EXPECT_TRUE(isMemoryIntensive(OpKind::Pad));
    EXPECT_TRUE(isMemoryIntensive(OpKind::Gather));
    EXPECT_TRUE(isLightElementwise(OpKind::Gather));
    EXPECT_TRUE(isComputeIntensive(OpKind::Conv3x3));
    EXPECT_FALSE(isMemoryIntensive(OpKind::Conv3x3));
    // Gather's indirect addressing costs more than plain movement.
    EXPECT_GT(opInstructionsPerElement(OpKind::Gather),
              opInstructionsPerElement(OpKind::Slice));
}

// ---------------------------------------------------------------------
// End-to-end through the compilers
// ---------------------------------------------------------------------

TEST(EndToEnd, EmbeddingGatherPipelineMatchesReference)
{
    // gather -> scale -> row-softmax -> slice: a miniature DIEN-style
    // embedding pipeline.
    Graph g("embedding");
    GraphBuilder b(g);
    NodeId table = b.parameter({16, 8}, "table");
    NodeId ids = b.constant(
        Tensor(Shape{6}, {0, 3, 3, 15, 7, 1}), "ids");
    NodeId e = b.gather(table, ids);
    NodeId scaled = b.mul(e, b.constantScalar(0.5f));
    NodeId probs = b.softmax(scaled);
    NodeId head = b.slice(probs, 0, 4);
    b.output(b.pad(head, {6, 8}));

    const TensorMap feeds = workloads::makeRandomFeeds(g);
    const auto expected = Evaluator(g).run(feeds);
    for (int which = 0; which < 2; ++which) {
        std::unique_ptr<Backend> backend;
        if (which == 0)
            backend = std::make_unique<XlaBackend>();
        else
            backend = std::make_unique<AStitchBackend>();
        Session session(g, std::move(backend));
        const auto report = session.run(feeds);
        ASSERT_EQ(report.outputs.size(), 1u);
        EXPECT_TRUE(report.outputs[0].allClose(expected[0], 1e-5, 1e-6))
            << report.backend_name;
    }
}

TEST(EndToEnd, GatherPenalizesCoalescing)
{
    Graph g;
    GraphBuilder b(g);
    NodeId table = b.parameter({1024, 64});
    Tensor ids(Shape{4096}, DType::I32);
    for (std::int64_t i = 0; i < 4096; ++i)
        ids.set(i, static_cast<float>((i * 37) % 1024));
    NodeId e = b.gather(table, b.constant(std::move(ids)));
    b.output(b.mul(e, b.constantScalar(2.0f)));

    Session session(g, std::make_unique<AStitchBackend>());
    const auto &compiled = session.compiled();
    ASSERT_EQ(compiled.size(), 1u);
    EXPECT_LT(compiled[0].kernels[0].read_coalescing, 1.0);
}

TEST(EndToEnd, Conv3x3PricedAsLibraryKernel)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({64, 8});
    NodeId w = b.parameter({72, 8});
    b.output(b.tanh(b.conv3x3(x, w)));
    Session session(g, std::make_unique<XlaBackend>());
    const auto report = session.profile();
    EXPECT_EQ(report.counters.kernelCount(
                  KernelCategory::ComputeIntensive),
              1);
}

TEST(EndToEnd, Conv3x3EvaluatesLikeExplicitIm2col)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({5, 3});
    NodeId w = b.parameter({27, 4});
    NodeId y = b.conv3x3(x, w);
    b.output(y);
    const TensorMap feeds = workloads::makeRandomFeeds(g);
    const auto out = Evaluator(g).run(feeds);

    // Manual im2col: replicate each row 9x, then matmul.
    const Tensor &xv = feeds.at(x);
    Tensor patches(Shape{5, 27});
    for (int r = 0; r < 5; ++r) {
        for (int p = 0; p < 9; ++p) {
            for (int c = 0; c < 3; ++c) {
                patches.set(r * 27 + p * 3 + c, xv.at(r * 3 + c));
            }
        }
    }
    const Tensor expected = ref::matmul(patches, feeds.at(w));
    EXPECT_TRUE(out[0].allClose(expected));
}

TEST(EndToEnd, DienGathersFromEmbeddingTable)
{
    using namespace workloads;
    Graph g = buildDien(DienConfig::tiny());
    int gathers = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id)
        gathers += g.node(id).kind() == OpKind::Gather;
    EXPECT_EQ(gathers, 1);
}

} // namespace
} // namespace astitch
