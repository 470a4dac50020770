#include "workloads/common.h"

#include <cmath>

#include "opt/autodiff.h"
#include "support/rng.h"
#include "workloads/asr.h"
#include "workloads/bert.h"
#include "workloads/crnn.h"
#include "workloads/dien.h"
#include "workloads/transformer.h"

namespace astitch {
namespace workloads {

NodeId
attentionBlock(GraphBuilder &b, NodeId x, int batch, int seq, int hidden,
               int heads)
{
    const int n = batch * seq;
    const int head_dim = hidden / heads;
    const int bh = batch * heads;

    // QKV projections (compute-intensive).
    NodeId wq = b.parameter({hidden, hidden});
    NodeId wk = b.parameter({hidden, hidden});
    NodeId wv = b.parameter({hidden, hidden});
    NodeId q = b.matmul(x, wq);
    NodeId k = b.matmul(x, wk);
    NodeId v = b.matmul(x, wv);

    // [n, hidden] -> [bh, seq, head_dim]
    auto split = [&](NodeId t) {
        return b.reshape(t, {bh, seq, head_dim});
    };
    NodeId qh = split(q);
    NodeId kh = split(k);
    NodeId vh = split(v);

    // scores = q k^T / sqrt(dh)  -> [bh, seq, seq]
    NodeId kt = b.transpose(kh, {0, 2, 1});
    NodeId scores = b.batchMatmul(qh, kt);
    NodeId scaled = b.mul(
        scores, b.constantScalar(1.0f / std::sqrt(
                                      static_cast<float>(head_dim))));
    NodeId probs = b.softmax(scaled);

    // context -> project back.
    NodeId ctx = b.batchMatmul(probs, vh);
    NodeId merged = b.reshape(ctx, {n, hidden});
    NodeId wo = b.parameter({hidden, hidden});
    NodeId projected = b.matmul(merged, wo);
    return addAndNorm(b, projected, x);
}

NodeId
feedForward(GraphBuilder &b, NodeId x, int hidden, int ffn_dim)
{
    const Shape &shape = b.shapeOf(x);
    const std::int64_t n = shape.dim(0);
    NodeId w1 = b.parameter({hidden, ffn_dim});
    NodeId b1 = b.parameter({ffn_dim});
    NodeId w2 = b.parameter({ffn_dim, hidden});
    NodeId b2 = b.parameter({hidden});

    NodeId h = b.matmul(x, w1);
    h = b.add(h, b.broadcastTo(b1, {n, ffn_dim}));
    h = b.gelu(h);
    NodeId out = b.matmul(h, w2);
    out = b.add(out, b.broadcastTo(b2, {n, hidden}));
    return addAndNorm(b, out, x);
}

NodeId
addAndNorm(GraphBuilder &b, NodeId x, NodeId residual)
{
    const Shape &shape = b.shapeOf(x);
    const std::int64_t feat = shape.dim(shape.rank() - 1);
    NodeId gamma = b.parameter({feat});
    NodeId beta = b.parameter({feat});
    return b.layerNorm(b.add(x, residual), gamma, beta);
}

NodeId
gruCell(GraphBuilder &b, NodeId x, NodeId h, int input_dim, int hidden)
{
    const Shape &shape = b.shapeOf(x);
    const std::int64_t n = shape.dim(0);
    const Shape hs{n, hidden};

    NodeId wx = b.parameter({input_dim, 3 * hidden});
    NodeId wh = b.parameter({hidden, 3 * hidden});
    NodeId gates = b.add(b.matmul(x, wx), b.matmul(h, wh));

    // Slice-free gate separation: three projections of the packed gates
    // through learned selection matrices would be wasteful; the paper's
    // GRU kernels compute gates from separate GEMMs, so model it that
    // way: reshape to [n, 3, hidden] and reduce the packing via three
    // light chains.
    NodeId packed = b.reshape(gates, {n, 3, hidden});
    NodeId z = b.sigmoid(b.reshape(
        b.reduceSum(b.mul(packed, b.broadcastTo(
                                      b.constant(Tensor(
                                          Shape{3, 1},
                                          {1.0f, 0.0f, 0.0f})),
                                      {n, 3, hidden})),
                    {1}),
        hs));
    NodeId r = b.sigmoid(b.reshape(
        b.reduceSum(b.mul(packed, b.broadcastTo(
                                      b.constant(Tensor(
                                          Shape{3, 1},
                                          {0.0f, 1.0f, 0.0f})),
                                      {n, 3, hidden})),
                    {1}),
        hs));
    NodeId g = b.tanh(b.reshape(
        b.reduceSum(b.mul(packed, b.broadcastTo(
                                      b.constant(Tensor(
                                          Shape{3, 1},
                                          {0.0f, 0.0f, 1.0f})),
                                      {n, 3, hidden})),
                    {1}),
        hs));

    // h' = (1 - z) * (r * h + small leak) + z * g
    NodeId one = b.constantScalar(1.0f);
    NodeId keep = b.mul(b.sub(one, z), b.mul(r, h));
    return b.add(keep, b.mul(z, g));
}

NodeId
lstmCell(GraphBuilder &b, NodeId x, NodeId h, NodeId c, int input_dim,
         int hidden, NodeId *c_out)
{
    const Shape &shape = b.shapeOf(x);
    const std::int64_t n = shape.dim(0);
    const Shape hs{n, hidden};

    // Four gate GEMMs (i, f, g, o) kept separate as vendor RNN kernels
    // would, with the memory-intensive gate math between them.
    auto gate = [&](bool tanh_act) {
        NodeId wx = b.parameter({input_dim, hidden});
        NodeId wh = b.parameter({hidden, hidden});
        NodeId bias = b.parameter({hidden});
        NodeId pre = b.add(b.add(b.matmul(x, wx), b.matmul(h, wh)),
                           b.broadcastTo(bias, hs));
        return tanh_act ? b.tanh(pre) : b.sigmoid(pre);
    };
    NodeId i = gate(false);
    NodeId f = gate(false);
    NodeId g = gate(true);
    NodeId o = gate(false);

    NodeId c_next = b.add(b.mul(f, c), b.mul(i, g));
    NodeId h_next = b.mul(o, b.tanh(c_next));
    if (c_out)
        *c_out = c_next;
    return h_next;
}

NodeId
logSoftmax(GraphBuilder &b, NodeId logits)
{
    const Shape &shape = b.shapeOf(logits);
    const int last = shape.rank() - 1;
    NodeId m = b.keepDims(b.reduceMax(logits, {last}), shape);
    NodeId centered = b.sub(logits, b.broadcastTo(m, shape));
    NodeId lse = b.keepDims(
        b.log(b.reduceSum(b.exp(centered), {last})), shape);
    return b.sub(centered, b.broadcastTo(lse, shape));
}

NodeId
conv3x3AsMatmul(GraphBuilder &b, NodeId x, int rows, int in_dim,
                int out_dim)
{
    // Implicit GEMM (cuDNN-style): the 3x3 patch gather happens inside
    // the library kernel, so no im2col tensor is materialized in the
    // memory-intensive graph.
    NodeId w = b.parameter({9 * in_dim, out_dim});
    NodeId bias = b.parameter({out_dim});
    NodeId y = b.conv3x3(x, w);
    y = b.add(y, b.broadcastTo(bias, {rows, out_dim}));
    return b.maximum(y, b.constantScalar(0.0f));
}

NodeId
avgPoolRows(GraphBuilder &b, NodeId x, int rows, int dim, int factor)
{
    NodeId grouped = b.reshape(x, {rows / factor, factor, dim});
    return b.reduceMean(grouped, {1});
}

void
appendTrainingTail(GraphBuilder &b, NodeId loss_input)
{
    const Shape &shape = b.shapeOf(loss_input);
    // Scalar L2 training loss over the model head.
    std::vector<int> all_dims(shape.rank());
    for (int d = 0; d < shape.rank(); ++d)
        all_dims[d] = d;
    NodeId loss = b.reduceMean(b.power(loss_input, 2.0), all_dims);
    b.output(loss);

    // Real reverse-mode backward pass: one gradient per trainable
    // parameter, built by autodiff over the forward graph (gather
    // embedding tables are non-trainable, as buildParameterGradients
    // skips them).
    for (const auto &[param, grad] : buildParameterGradients(b, loss))
        b.output(grad);
}

std::vector<WorkloadSpec>
inferenceWorkloads(DType dtype)
{
    return {
        {"CRNN", [dtype] { auto c = CrnnConfig::inference();
                           c.dtype = dtype; return buildCrnn(c); }},
        {"ASR", [dtype] { auto c = AsrConfig::inference();
                          c.dtype = dtype; return buildAsr(c); }},
        {"BERT", [dtype] { auto c = BertConfig::inference();
                           c.dtype = dtype; return buildBert(c); }},
        {"Transformer",
         [dtype] { auto c = TransformerConfig::inference();
                   c.dtype = dtype; return buildTransformer(c); }},
        {"DIEN", [dtype] { auto c = DienConfig::inference();
                           c.dtype = dtype; return buildDien(c); }},
    };
}

std::vector<DynamicWorkloadSpec>
dynamicInferenceWorkloads()
{
    // Reduced-scale configs: the dynamic dim must stay LARGER than the
    // model's fixed axis sizes in the interesting range, so the shape
    // symbolizer attributes only genuinely scaling axes to it (a fixed
    // axis a dim value divides would be refuted by the probe
    // cross-check, costing the whole bucket its certificate).
    return {
        {"CRNN", "conv_rows", 96, /*divisor=*/32,
         [](const std::vector<std::int64_t> &dims) {
             CrnnConfig c = CrnnConfig::tiny();
             c.time_steps = 2; // divisor 16*2 keeps pow2 keys valid
             c.conv_rows = static_cast<int>(dims.at(0));
             return buildCrnn(c);
         }},
        {"ASR", "frames", 100, /*divisor=*/1,
         [](const std::vector<std::int64_t> &dims) {
             AsrConfig c = AsrConfig::tiny();
             c.frames = static_cast<int>(dims.at(0));
             return buildAsr(c);
         }},
        {"BERT", "batch", 100, /*divisor=*/1,
         [](const std::vector<std::int64_t> &dims) {
             BertConfig c = BertConfig::tiny();
             c.batch = static_cast<int>(dims.at(0));
             return buildBert(c);
         }},
        {"Transformer", "batch", 40, /*divisor=*/1,
         [](const std::vector<std::int64_t> &dims) {
             TransformerConfig c = TransformerConfig::tiny();
             c.batch = static_cast<int>(dims.at(0));
             return buildTransformer(c);
         }},
        {"DIEN", "batch", 72, /*divisor=*/1,
         [](const std::vector<std::int64_t> &dims) {
             DienConfig c = DienConfig::tiny();
             c.batch = static_cast<int>(dims.at(0));
             return buildDien(c);
         }},
    };
}

std::vector<WorkloadSpec>
trainingWorkloads()
{
    return {
        {"BERT", [] { return buildBert(BertConfig::training()); }},
        {"Transformer",
         [] { return buildTransformer(TransformerConfig::training()); }},
        {"DIEN", [] { return buildDien(DienConfig::training()); }},
    };
}

TensorMap
makeRandomFeeds(const Graph &graph, std::uint64_t seed)
{
    Rng rng(seed);
    TensorMap feeds;
    for (NodeId id : graph.parameters()) {
        const Node &node = graph.node(id);
        Tensor t(node.shape(), node.dtype());
        for (auto &v : t.data())
            v = rng.uniformFloat(-1.0f, 1.0f);
        feeds.emplace(id, std::move(t));
    }
    return feeds;
}

} // namespace workloads
} // namespace astitch
