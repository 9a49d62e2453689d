#include "nn/layers.h"

#include "nn/init.h"

namespace ovs::nn {

Linear::Linear(int in_features, int out_features, Rng* rng)
    : in_features_(in_features), out_features_(out_features) {
  CHECK_GT(in_features, 0);
  CHECK_GT(out_features, 0);
  weight_ = RegisterParameter(
      "weight", XavierUniform({in_features, out_features}, in_features,
                              out_features, rng));
  bias_ = RegisterParameter("bias", Tensor({out_features}));
}

Variable Linear::Forward(const Variable& x) const {
  return AddBias(MatMul(x, weight_), bias_);
}

Conv1d::Conv1d(int in_channels, int out_channels, int kernel_size, Rng* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size) {
  CHECK_GT(kernel_size, 0);
  const int fan_in = in_channels * kernel_size;
  const int fan_out = out_channels * kernel_size;
  weight_ = RegisterParameter(
      "weight", XavierUniform({out_channels, in_channels, kernel_size}, fan_in,
                              fan_out, rng));
  bias_ = RegisterParameter("bias", Tensor({out_channels}));
}

Variable Conv1d::Forward(const Variable& x) const {
  return Conv1dBatch(x, weight_, bias_);
}

Lstm::Lstm(int input_size, int hidden_size, Rng* rng)
    : input_size_(input_size), hidden_size_(hidden_size) {
  auto make_wx = [&] {
    return XavierUniform({input_size, hidden_size}, input_size, hidden_size, rng);
  };
  auto make_wh = [&] { return ScaledGaussian({hidden_size, hidden_size}, hidden_size, rng); };
  wxi_ = RegisterParameter("wxi", make_wx());
  whi_ = RegisterParameter("whi", make_wh());
  bi_ = RegisterParameter("bi", Tensor({hidden_size}));
  wxf_ = RegisterParameter("wxf", make_wx());
  whf_ = RegisterParameter("whf", make_wh());
  // Forget-gate bias starts at 1 so early training does not erase state.
  bf_ = RegisterParameter("bf", Tensor::Full({hidden_size}, 1.0f));
  wxg_ = RegisterParameter("wxg", make_wx());
  whg_ = RegisterParameter("whg", make_wh());
  bg_ = RegisterParameter("bg", Tensor({hidden_size}));
  wxo_ = RegisterParameter("wxo", make_wx());
  who_ = RegisterParameter("who", make_wh());
  bo_ = RegisterParameter("bo", Tensor({hidden_size}));
}

std::vector<Variable> Lstm::Forward(const std::vector<Variable>& xs) const {
  CHECK(!xs.empty());
  const int n = xs[0].value().dim(0);
  const int hs = hidden_size_;
  // Fused gate parameters, built once per sequence: one [N, 4H] GEMM per
  // step replaces eight [N, H] gate matmuls. Column j of the wide product
  // is the same dot product the per-gate matmul computed, so forward values
  // match the unfused form bitwise while the kernels see 4x wider —
  // better-vectorized — tiles. Backward is numerically equivalent but not
  // bitwise: the h/x gradient reduces over 4H in one GEMM instead of four
  // separately-accumulated H-wide products.
  Variable wx4 = ConcatFeatureList({wxi_, wxf_, wxg_, wxo_});  // [in, 4H]
  Variable wh4 = ConcatFeatureList({whi_, whf_, whg_, who_});  // [H, 4H]
  Variable b4 = ConcatFlat({bi_, bf_, bg_, bo_});              // [4H]
  Variable h(Tensor({n, hs}));
  Variable c(Tensor({n, hs}));
  std::vector<Variable> outputs;
  outputs.reserve(xs.size());
  for (const Variable& x : xs) {
    CHECK_EQ(x.value().dim(0), n);
    CHECK_EQ(x.value().dim(1), input_size_);
    Variable pre = AddBias(Add(MatMul(x, wx4), MatMul(h, wh4)), b4);
    Variable i = Sigmoid(SliceCols(pre, 0, hs));
    Variable f = Sigmoid(SliceCols(pre, hs, hs));
    Variable g = Tanh(SliceCols(pre, 2 * hs, hs));
    Variable o = Sigmoid(SliceCols(pre, 3 * hs, hs));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
    outputs.push_back(h);
  }
  return outputs;
}

Embedding::Embedding(int count, int dim, Rng* rng) {
  table_ = RegisterParameter("table",
                             Tensor::RandomGaussian({count, dim}, 0.0f, 0.1f, rng));
}

}  // namespace ovs::nn
