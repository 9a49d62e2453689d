#include "nn/optimizer.h"

#include <cmath>

namespace ovs::nn {

void Optimizer::ClipGrad(float max_abs) {
  if (max_abs <= 0.0f) return;
  for (Variable& p : params_) {
    Tensor& grad = p.mutable_grad();
    float* g = grad.data();
    const int count = grad.numel();
    for (int i = 0; i < count; ++i) {
      if (g[i] > max_abs) g[i] = max_abs;
      if (g[i] < -max_abs) g[i] = -max_abs;
    }
  }
}

Adam::Adam(std::vector<Variable> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Variable& p : params_) {
    m_.emplace_back(p.value().shape());
    v_.emplace_back(p.value().shape());
  }
}

void Adam::RestoreState(int step_count, std::vector<Tensor> m,
                        std::vector<Tensor> v) {
  CHECK_GE(step_count, 0);
  CHECK_EQ(m.size(), params_.size());
  CHECK_EQ(v.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    CHECK(m[i].SameShape(params_[i].value()));
    CHECK(v[i].SameShape(params_[i].value()));
  }
  step_count_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
}

void Adam::Step() {
  ++step_count_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(step_count_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(step_count_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& param = params_[i].mutable_value();
    float* value = param.data();
    const float* grad = params_[i].mutable_grad().data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const int count = param.numel();
    for (int j = 0; j < count; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * grad[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * grad[j] * grad[j];
      const float m_hat = m[j] / bc1;
      const float v_hat = v[j] / bc2;
      value[j] -= lr_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace ovs::nn
