/**
 * @file
 * Unit tests for the graph IR: op kinds, builder, shape inference,
 * traversal and DOT export.
 */
#include <gtest/gtest.h>

#include "support/logging.h"

#include "graph/dot_export.h"
#include "graph/graph_builder.h"
#include "graph/shape_inference.h"
#include "graph/traversal.h"

namespace astitch {
namespace {

TEST(OpKind, Classification)
{
    EXPECT_TRUE(isLightElementwise(OpKind::Add));
    EXPECT_TRUE(isLightElementwise(OpKind::Broadcast));
    EXPECT_TRUE(isHeavyElementwise(OpKind::Power));
    EXPECT_TRUE(isHeavyElementwise(OpKind::Tanh));
    EXPECT_FALSE(isHeavyElementwise(OpKind::Add));
    EXPECT_TRUE(isReduce(OpKind::ReduceMax));
    EXPECT_TRUE(isComputeIntensive(OpKind::MatMul));
    EXPECT_TRUE(isMemoryIntensive(OpKind::ReduceSum));
    EXPECT_TRUE(isMemoryIntensive(OpKind::Exp));
    EXPECT_FALSE(isMemoryIntensive(OpKind::BatchMatMul));
    EXPECT_TRUE(isSource(OpKind::Parameter));
}

TEST(OpKind, HeavyOpsCostMoreInstructions)
{
    // The heavy/light split drives the pattern-(2) fusion decisions.
    EXPECT_GT(opInstructionsPerElement(OpKind::Power),
              10 * opInstructionsPerElement(OpKind::Add));
    EXPECT_GT(opInstructionsPerElement(OpKind::Tanh),
              opInstructionsPerElement(OpKind::Sqrt));
}

TEST(OpKind, Arity)
{
    EXPECT_EQ(opKindArity(OpKind::Parameter), 0);
    EXPECT_EQ(opKindArity(OpKind::Tanh), 1);
    EXPECT_EQ(opKindArity(OpKind::Add), 2);
    EXPECT_EQ(opKindArity(OpKind::Select), 3);
    EXPECT_EQ(opKindArity(OpKind::Concat), -1);
}

TEST(Graph, AddNodeValidatesOperands)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    EXPECT_NO_THROW(b.neg(p));
    EXPECT_THROW(
        g.addNode(OpKind::Neg, {99}, {}, Shape{4}, DType::F32),
        FatalError);
    EXPECT_THROW(
        g.addNode(OpKind::Add, {p}, {}, Shape{4}, DType::F32),
        FatalError);
}

TEST(Graph, UsersTrackConsumers)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    NodeId n1 = b.neg(p);
    NodeId n2 = b.abs(p);
    const auto &users = g.users(p);
    ASSERT_EQ(users.size(), 2u);
    EXPECT_EQ(users[0], n1);
    EXPECT_EQ(users[1], n2);
}

TEST(Graph, SelfPairedOperandCountedOnceInUsers)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    NodeId s = b.add(p, p);
    EXPECT_EQ(g.users(p).size(), 1u);
    EXPECT_EQ(g.node(s).operands().size(), 2u);
}

TEST(Graph, OutputsAreDeduplicated)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    NodeId n = b.neg(p);
    g.markOutput(n);
    g.markOutput(n);
    EXPECT_EQ(g.outputs().size(), 1u);
    EXPECT_TRUE(g.isOutput(n));
    EXPECT_FALSE(g.isOutput(p));
}

TEST(Graph, ParametersListedInOrder)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p0 = b.parameter({1});
    b.neg(p0);
    NodeId p1 = b.parameter({2});
    const auto params = g.parameters();
    ASSERT_EQ(params.size(), 2u);
    EXPECT_EQ(params[0], p0);
    EXPECT_EQ(params[1], p1);
}

TEST(Builder, BinaryShapeInferenceBroadcasts)
{
    Graph g;
    GraphBuilder b(g);
    NodeId a = b.parameter({2, 1});
    NodeId c = b.parameter({2, 128});
    NodeId sum = b.add(a, c);
    EXPECT_EQ(g.node(sum).shape(), (Shape{2, 128}));
}

TEST(Builder, ReduceShapeInference)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({750000, 32});
    NodeId r = b.reduceSum(x, {1});
    EXPECT_EQ(g.node(r).shape(), (Shape{750000}));
}

TEST(Builder, BroadcastRequiresCompatibleTarget)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({2});
    EXPECT_THROW(b.broadcastTo(x, {3, 5}), FatalError);
    NodeId ok = b.broadcastTo(x, {3, 2});
    EXPECT_EQ(g.node(ok).shape(), (Shape{3, 2}));
}

TEST(Builder, MatmulShapeChecks)
{
    Graph g;
    GraphBuilder b(g);
    NodeId a = b.parameter({4, 8});
    NodeId w = b.parameter({8, 16});
    EXPECT_EQ(g.node(b.matmul(a, w)).shape(), (Shape{4, 16}));
    NodeId bad = b.parameter({7, 16});
    EXPECT_THROW(b.matmul(a, bad), FatalError);
}

TEST(Builder, SoftmaxEmitsExpectedOps)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({4, 16});
    b.output(b.softmax(x));
    int reduces = 0, exps = 0, broadcasts = 0;
    for (NodeId id = 0; id < g.numNodes(); ++id) {
        const OpKind kind = g.node(id).kind();
        reduces += isReduce(kind);
        exps += kind == OpKind::Exp;
        broadcasts += kind == OpKind::Broadcast;
    }
    EXPECT_EQ(reduces, 2);   // max + sum
    EXPECT_EQ(exps, 1);
    EXPECT_EQ(broadcasts, 2);
}

TEST(Builder, LayerNormShape)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({8, 32});
    NodeId gamma = b.parameter({32});
    NodeId beta = b.parameter({32});
    NodeId y = b.layerNorm(x, gamma, beta);
    EXPECT_EQ(g.node(y).shape(), (Shape{8, 32}));
}

TEST(Builder, TransposeShape)
{
    Graph g;
    GraphBuilder b(g);
    NodeId x = b.parameter({2, 3, 4});
    NodeId t = b.transpose(x, {0, 2, 1});
    EXPECT_EQ(g.node(t).shape(), (Shape{2, 4, 3}));
}

TEST(Traversal, ConnectedComponentsSplitByScope)
{
    Graph g;
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    NodeId a = b.neg(p);   // component 1
    NodeId m = b.matmul(b.parameter({4, 4}), b.parameter({4, 4}));
    NodeId c = b.abs(m);   // component 2 (matmul out of scope)
    (void)a;
    (void)c;
    std::vector<bool> scope(g.numNodes(), false);
    for (NodeId id = 0; id < g.numNodes(); ++id)
        scope[id] = isMemoryIntensive(g.node(id).kind()) &&
                    !isSource(g.node(id).kind());
    const auto comps = connectedComponents(g, scope);
    EXPECT_EQ(comps.size(), 2u);
}

TEST(DotExport, ContainsNodesAndEdges)
{
    Graph g("demo");
    GraphBuilder b(g);
    NodeId p = b.parameter({4});
    NodeId n = b.tanh(p);
    g.markOutput(n);
    const std::string dot = exportDot(g);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("tanh"), std::string::npos);
    EXPECT_NE(dot.find("n0 -> n1"), std::string::npos);
}

TEST(ShapeInference, RejectsWrongRankForBatchMatmul)
{
    NodeAttrs attrs;
    EXPECT_THROW(
        inferShape(OpKind::BatchMatMul, {Shape{2, 3}, Shape{3, 4}}, attrs),
        FatalError);
}

} // namespace
} // namespace astitch
