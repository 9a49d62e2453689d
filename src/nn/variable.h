#ifndef OVS_NN_VARIABLE_H_
#define OVS_NN_VARIABLE_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace ovs::nn {

namespace internal {

/// Node in the dynamic computation graph. Holds the forward value, the
/// accumulated gradient, the parent nodes and a closure that pushes this
/// node's gradient into its parents' gradients.
struct VariableNode {
  Tensor value;
  Tensor grad;  // allocated lazily on first backward touch
  bool requires_grad = false;
  /// Stamp of the last Backward call that visited this node. Every call
  /// draws a fresh stamp, so one left by an earlier call never matches.
  uint64_t visit_stamp = 0;
  std::vector<std::shared_ptr<VariableNode>> parents;
  /// Given this node (with grad populated), accumulates into parents' grads.
  std::function<void(VariableNode&)> backward_fn;

  /// Ensures grad has the value's shape (zero-filled on first call).
  Tensor& MutableGrad() {
    if (!grad.SameShape(value)) grad = Tensor(value.shape());
    return grad;
  }
};

}  // namespace internal

/// Handle to a node in the dynamic autodiff graph. Variables have shared
/// (shallow-copy) semantics, like torch tensors: copying a Variable aliases
/// the same node. New graphs are built on every forward pass; nodes die when
/// the last Variable referencing them does, so parameters (leaf Variables
/// kept alive by layers) persist across iterations while activations do not.
class Variable {
 public:
  /// Null handle.
  Variable() = default;

  /// Leaf node wrapping `value`. If `requires_grad`, Backward() will
  /// accumulate into its grad.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const { return node()->value; }
  Tensor& mutable_value() { return node()->value; }
  const Tensor& grad() const { return node()->grad; }
  Tensor& mutable_grad() { return node()->MutableGrad(); }
  bool requires_grad() const { return node()->requires_grad; }

  /// Toggles gradient tracking for this leaf. Takes effect on graphs built
  /// *after* the call (ops snapshot the flag at node creation) — used to
  /// freeze modules between training stages.
  void set_requires_grad(bool requires_grad) {
    node()->requires_grad = requires_grad;
  }

  const Shape& shape() const { return value().shape(); }
  int numel() const { return value().numel(); }

  /// Resets this node's gradient to zeros (allocating if needed).
  void ZeroGrad() { node()->MutableGrad().Fill(0.0f); }

  /// Runs reverse-mode differentiation from this (scalar) node. Seeds the
  /// output gradient with 1 and accumulates into every reachable node with
  /// requires_grad. Non-parameter intermediate grads are also populated (and
  /// freed with the graph).
  void Backward() const;

  using BackwardFn = std::function<void(internal::VariableNode&)>;

  /// Low-level constructor used by ops: creates an interior node. The
  /// braced-list form (`{a, b}`) refers to its parents without copying them.
  static Variable MakeNode(
      Tensor value,
      std::initializer_list<std::reference_wrapper<const Variable>> parents,
      BackwardFn backward_fn);
  static Variable MakeNode(Tensor value, const std::vector<Variable>& parents,
                           BackwardFn backward_fn);

  /// Identity of the underlying node (for tests / deduplication).
  const internal::VariableNode* raw() const { return node_.get(); }

 private:
  template <typename Parents>
  static Variable MakeNodeFrom(Tensor value, const Parents& parents,
                               BackwardFn backward_fn);

  internal::VariableNode* node() const {
    CHECK(node_ != nullptr) << "use of undefined Variable";
    return node_.get();
  }

  std::shared_ptr<internal::VariableNode> node_;
};

}  // namespace ovs::nn

#endif  // OVS_NN_VARIABLE_H_
