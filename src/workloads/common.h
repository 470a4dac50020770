/**
 * @file
 * Shared model fragments and the workload registry.
 *
 * The five evaluation models (Table 2) are generated from the building
 * blocks the paper lists: perceptron, attention, convolution (expressed
 * as im2col matmul), RNN cells and a broad range of memory-intensive
 * operators. Each builder reproduces the operator mix, dependency
 * topology and tensor shapes (including the irregular production shapes
 * of Sec 2.3.2) rather than trained weights.
 */
#ifndef ASTITCH_WORKLOADS_COMMON_H
#define ASTITCH_WORKLOADS_COMMON_H

#include <functional>
#include <string>
#include <vector>

#include "compiler/evaluator.h"
#include "graph/graph_builder.h"

namespace astitch {
namespace workloads {

/** Scaled-dot-product attention over [batch_heads, seq, head_dim]. */
NodeId attentionBlock(GraphBuilder &b, NodeId x, int batch, int seq,
                      int hidden, int heads);

/** Transformer position-wise FFN with GELU. */
NodeId feedForward(GraphBuilder &b, NodeId x, int hidden, int ffn_dim);

/** Residual add + layer norm (fresh gamma/beta parameters). */
NodeId addAndNorm(GraphBuilder &b, NodeId x, NodeId residual);

/** One GRU cell step: returns the next hidden state. */
NodeId gruCell(GraphBuilder &b, NodeId x, NodeId h, int input_dim,
               int hidden);

/** One LSTM cell step: returns the next hidden state (cell folded in). */
NodeId lstmCell(GraphBuilder &b, NodeId x, NodeId h, NodeId c,
                int input_dim, int hidden, NodeId *c_out);

/** Numerically-stable log-softmax over the last dim. */
NodeId logSoftmax(GraphBuilder &b, NodeId logits);

/**
 * A 3x3 conv lowered to an im2col patch expansion (a memory-intensive
 * 9x broadcast/reshape) followed by a [rows, 9*in_dim] x [9*in_dim,
 * out_dim] GEMM + bias + ReLU — the realistic compute/memory balance of
 * convolutional front-ends.
 */
NodeId conv3x3AsMatmul(GraphBuilder &b, NodeId x, int rows, int in_dim,
                       int out_dim);

/** Average-pool rows by @p factor (reshape + mean-reduce). */
NodeId avgPoolRows(GraphBuilder &b, NodeId x, int rows, int dim,
                   int factor);

/**
 * Append a simplified training tail: scalar loss plus per-parameter
 * gradient-like subgraphs (elementwise chains + reduces + GEMM pairs),
 * doubling the memory-intensive op population the way backward passes do.
 */
void appendTrainingTail(GraphBuilder &b, NodeId loss_input);

/** A named, lazily-built workload. */
struct WorkloadSpec
{
    std::string name;
    std::function<Graph()> build;
};

/** The five inference workloads at Table 2 batch sizes. */
std::vector<WorkloadSpec> inferenceWorkloads(DType dtype = DType::F32);

/** The three training workloads (BERT, Transformer, DIEN). */
std::vector<WorkloadSpec> trainingWorkloads();

/**
 * A workload template over one dynamic dimension, for DynamicSession
 * bucketing and shape-parametric (AS8xx) certification. Built at
 * reduced scale so sweeps over many shapes stay cheap; the dynamic dim
 * is the one production serving actually varies (batch for the
 * batch-parallel models, frames/rows for the sequence models).
 */
struct DynamicWorkloadSpec
{
    std::string name;
    std::string dim_name;       ///< what the dynamic dim means
    std::int64_t default_dim;   ///< representative served size
    std::int64_t divisor = 1;   ///< template granularity constraint
    std::function<Graph(const std::vector<std::int64_t> &dims)> build;
};

/** The five inference workloads as single-dim dynamic templates. */
std::vector<DynamicWorkloadSpec> dynamicInferenceWorkloads();

/** Deterministic random feeds for every parameter of @p graph. */
TensorMap makeRandomFeeds(const Graph &graph, std::uint64_t seed = 7);

} // namespace workloads
} // namespace astitch

#endif // ASTITCH_WORKLOADS_COMMON_H
