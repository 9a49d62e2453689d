#ifndef OVS_NN_OPTIMIZER_H_
#define OVS_NN_OPTIMIZER_H_

#include <vector>

#include "nn/variable.h"

namespace ovs::nn {

/// Base interface for first-order optimizers over a fixed parameter list.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Variable> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Applies one update using the currently accumulated gradients.
  virtual void Step() = 0;

  /// Zeroes all parameter gradients (call before each forward/backward).
  void ZeroGrad() {
    for (Variable& p : params_) p.ZeroGrad();
  }

  /// Clips gradients to a max L-infinity magnitude; no-op if max <= 0.
  void ClipGrad(float max_abs);

 protected:
  std::vector<Variable> params_;
};

/// Adam (Kingma & Ba, 2015) — the de-facto default for the paper's nets.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Variable> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);

  void Step() override;

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  /// Checkpoint surface: the bias-correction step count and first/second
  /// moment tensors (one per parameter, parameter order). Restoring them
  /// mid-run makes a resumed optimization bitwise-identical to an
  /// uninterrupted one.
  int step_count() const { return step_count_; }
  const std::vector<Tensor>& moments_m() const { return m_; }
  const std::vector<Tensor>& moments_v() const { return v_; }
  /// Replaces the optimizer state. Moment shapes must match the parameters.
  void RestoreState(int step_count, std::vector<Tensor> m,
                    std::vector<Tensor> v);

 private:
  float lr_;
  float beta1_;
  float beta2_;
  float eps_;
  int step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace ovs::nn

#endif  // OVS_NN_OPTIMIZER_H_
