#ifndef OVS_NN_LAYERS_H_
#define OVS_NN_LAYERS_H_

#include <vector>

#include "nn/module.h"
#include "nn/ops.h"
#include "util/rng.h"

namespace ovs::nn {

/// Fully connected layer: y = x W + b with x of shape [N, in].
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng);

  /// x: [N, in] -> [N, out].
  Variable Forward(const Variable& x) const;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Variable weight_;  // [in, out]
  Variable bias_;    // [out]
};

/// Batched 1-D convolution layer with "same" padding, stride 1.
class Conv1d : public Module {
 public:
  Conv1d(int in_channels, int out_channels, int kernel_size, Rng* rng);

  /// x: [N, C_in, T] -> [N, C_out, T].
  Variable Forward(const Variable& x) const;

  int out_channels() const { return out_channels_; }

 private:
  int in_channels_;
  int out_channels_;
  int kernel_size_;
  Variable weight_;  // [C_out, C_in, K]
  Variable bias_;    // [C_out]
};

/// Single-layer LSTM unrolled over an explicit time-major sequence. Each
/// element of the input sequence is a [N, input] batch; outputs are the
/// hidden states [N, hidden] at every step. Weights are shared across the
/// batch, which is how the paper shares the volume->speed net across links.
///
/// The four per-gate matmuls are fused: Forward concatenates the gate
/// weights once into [input, 4H] / [H, 4H] / [4H] graph nodes (order
/// i|f|g|o) and runs ONE wide GEMM per step, slicing the gates out of the
/// [N, 4H] pre-activation. Parameters stay registered per gate
/// (wxi/whi/bi/...), so checkpoints are unchanged; per element the fused
/// arithmetic is identical to four separate gate GEMMs.
class Lstm : public Module {
 public:
  Lstm(int input_size, int hidden_size, Rng* rng);

  /// xs: T tensors of [N, input] -> T tensors of [N, hidden].
  std::vector<Variable> Forward(const std::vector<Variable>& xs) const;

  int hidden_size() const { return hidden_size_; }

 private:
  int input_size_;
  int hidden_size_;
  // Gate parameter blocks: input (i), forget (f), cell candidate (g),
  // output (o).
  Variable wxi_, whi_, bi_;
  Variable wxf_, whf_, bf_;
  Variable wxg_, whg_, bg_;
  Variable wxo_, who_, bo_;
};

/// Learned embedding table used for per-link embeddings in the attention
/// network. The whole table participates in the graph via its Variable.
class Embedding : public Module {
 public:
  Embedding(int count, int dim, Rng* rng);

  /// The full [count, dim] table as a graph node.
  const Variable& Table() const { return table_; }

 private:
  Variable table_;
};

}  // namespace ovs::nn

#endif  // OVS_NN_LAYERS_H_
