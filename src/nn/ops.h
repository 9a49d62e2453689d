#ifndef OVS_NN_OPS_H_
#define OVS_NN_OPS_H_

#include <vector>

#include "nn/variable.h"
#include "util/rng.h"

namespace ovs::nn {

// ---------------------------------------------------------------------------
// Element-wise arithmetic
// ---------------------------------------------------------------------------

/// c = a + b (same shape).
Variable Add(const Variable& a, const Variable& b);

/// c = a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);

/// c = a * b element-wise (same shape).
Variable Mul(const Variable& a, const Variable& b);

/// c = alpha * a.
Variable ScalarMul(const Variable& a, float alpha);

/// c = a + alpha (element-wise).
Variable AddScalar(const Variable& a, float alpha);

/// c = a * mask element-wise with a constant (non-differentiated) mask.
Variable MulConst(const Variable& a, const Tensor& mask);

// ---------------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------------

/// Matrix product: a is [N, K], b is [K, M] -> [N, M].
Variable MatMul(const Variable& a, const Variable& b);

/// Adds a bias row-broadcast: x is [N, D], bias is [D] (or [1, D]) -> [N, D].
Variable AddBias(const Variable& x, const Variable& bias);

/// Block-diagonal application of a constant (not differentiated) matrix: x
/// is `blocks` stacked [N, T] row blocks and every block is multiplied by
/// the same [M, N] matrix a -> `blocks` stacked [M, T] row blocks; blocks=1
/// is the plain product A * x. Used for the fixed route->link incidence
/// aggregation. Block b of the output is bitwise-identical to the blocks=1
/// product of block b of x — the batched-restart layout of the recovery
/// path relies on that.
Variable BatchedFixedMatMul(const Tensor& a, const Variable& x, int blocks);

// ---------------------------------------------------------------------------
// Activations and normalization
// ---------------------------------------------------------------------------

Variable Sigmoid(const Variable& x);
Variable Tanh(const Variable& x);
Variable Relu(const Variable& x);

/// Row-wise softmax over the last dimension of a [N, D] tensor.
Variable SoftmaxRows(const Variable& x);

/// Inverted dropout: at train time zeroes each element with probability
/// `rate` and scales survivors by 1/(1-rate); identity at eval time.
Variable Dropout(const Variable& x, float rate, bool train, Rng* rng);

// ---------------------------------------------------------------------------
// Convolution
// ---------------------------------------------------------------------------

/// Batched 1-D convolution with "same" zero padding and stride 1.
/// x: [N, C_in, T], w: [C_out, C_in, K], bias: [C_out] -> [N, C_out, T].
Variable Conv1dBatch(const Variable& x, const Variable& w, const Variable& bias);

// ---------------------------------------------------------------------------
// Shape / gather ops
// ---------------------------------------------------------------------------

/// Sums `blocks` stacked batches over their items: x is [blocks*N, C, T]
/// -> [blocks*C, T], where output rows [b*C, (b+1)*C) are the item-ascending
/// sum of batch items [b*N, (b+1)*N). blocks=1 sums a [N, C, T] batch over
/// N -> [C, T].
Variable SumBatchBlocks(const Variable& x, int blocks);

/// Sums each row of [N, T] -> [N, 1].
Variable SumCols(const Variable& x);

/// Column t of a [M, T] matrix -> [M, 1].
Variable ColSlice(const Variable& x, int t);

/// Concatenates T column vectors [M, 1] -> [M, T].
Variable ConcatCols(const std::vector<Variable>& cols);

/// Concatenates along the feature dim: [N, D1] ++ [N, D2] -> [N, D1+D2].
Variable ConcatFeatures(const Variable& a, const Variable& b);

/// K-ary feature-dim concat: [N, D1] ++ ... ++ [N, Dk] -> [N, D1+...+Dk].
/// Used to build the fused [in, 4H] LSTM gate weights from the four
/// per-gate parameter blocks without changing their checkpoint names.
Variable ConcatFeatureList(const std::vector<Variable>& parts);

/// Concatenates rank-1 tensors: [D1] ++ ... ++ [Dk] -> [D1+...+Dk]
/// (the fused [4H] LSTM gate bias).
Variable ConcatFlat(const std::vector<Variable>& parts);

/// Columns [start, start+count) of [N, D] -> [N, count]. Complement of
/// ConcatFeatureList; slices one gate's pre-activation out of the fused
/// [N, 4H] GEMM output.
Variable SliceCols(const Variable& x, int start, int count);

/// Stacks rank-2 tensors with equal column counts row-wise:
/// [N1, D] ++ ... ++ [Nk, D] -> [N1+...+Nk, D]. The batched-restart layout:
/// per-restart generator outputs stack into one tall matrix.
Variable ConcatRows(const std::vector<Variable>& parts);

/// Rows [start, start+count) of [N, D] -> [count, D].
Variable SliceRows(const Variable& x, int start, int count);

/// Repeats a [N, D] tensor `repeats` times row-wise -> [repeats*N, D].
/// Gradient sums the blocks in ascending block order.
Variable TileRows(const Variable& x, int repeats);

/// Selects rows: x is [N, D], indices into [0, N) -> [K, D].
Variable GatherRows(const Variable& x, const std::vector<int>& indices);

/// Reinterprets the data with a new shape of equal numel.
Variable Reshape(const Variable& x, const Shape& new_shape);

// ---------------------------------------------------------------------------
// OVS-specific fused ops
// ---------------------------------------------------------------------------

/// Builds the dynamic-attention input matrix (paper Fig. 5) for `blocks`
/// stacked system embeddings sharing one embedding table: e is
/// [blocks*C, T], emb is [M, De]; output row (b*M + m)*T + t is
/// [e[b*C:(b+1)*C, t], emb[m, :]] -> [blocks*M*T, C+De]. With blocks=1, row
/// m*T+t is [e[:, t], emb[m, :]].
Variable BatchedBuildAttentionInput(const Variable& e, const Variable& emb,
                                    int blocks);

/// Applies lag attention (paper Eq. 4): with alpha [M*T, L] (row m*T+t holds
/// the attention over lags tau=0..L-1) and per-link aggregated route counts
/// s [M, T], computes q[m, t] = sum_tau alpha[m*T+t, tau] * s[m, t-tau]
/// (terms with t-tau < 0 are dropped).
Variable LagAttentionApply(const Variable& alpha, const Variable& s, int lags);

// ---------------------------------------------------------------------------
// Reductions and losses
// ---------------------------------------------------------------------------

/// Scalar sum of all elements.
Variable Sum(const Variable& x);

/// Scalar mean of all elements.
Variable Mean(const Variable& x);

/// Mean squared error against a constant target of the same shape.
Variable MseLoss(const Variable& pred, const Tensor& target);

/// Mean Huber loss against a constant target: quadratic within `delta`,
/// linear beyond. Robust to localized exogenous residuals (e.g., road-work
/// links whose slowdown no demand pattern explains).
Variable HuberLoss(const Variable& pred, const Tensor& target, float delta);

/// MSE restricted to cells where `mask` is non-zero, normalized by the
/// valid-cell count. Masked cells contribute nothing to the value or the
/// gradient, so a NaN target under a zero mask is harmless — degraded
/// observations are excluded, not averaged in. At least one cell must be
/// valid.
Variable MaskedMseLoss(const Variable& pred, const Tensor& target,
                       const Tensor& mask);

/// Huber analogue of MaskedMseLoss (same masking contract).
Variable MaskedHuberLoss(const Variable& pred, const Tensor& target,
                         const Tensor& mask, float delta);

/// Mean of ReLU(x)^2 — penalizes positive entries only. Used for inequality
/// auxiliary constraints (e.g., speed above the limit).
Variable HingeSquaredLoss(const Variable& x);

}  // namespace ovs::nn

#endif  // OVS_NN_OPS_H_
