#include "nn/variable.h"

#include <atomic>

#include "obs/trace.h"

namespace ovs::nn {

namespace {

/// Source of Backward's visit stamps. A process-wide counter, so calls on
/// different threads never share a stamp.
std::atomic<uint64_t> g_next_visit_stamp{1};

}  // namespace

Variable::Variable(Tensor value, bool requires_grad)
    : node_(std::make_shared<internal::VariableNode>()) {
  node_->value = std::move(value);
  node_->requires_grad = requires_grad;
}

template <typename Parents>
Variable Variable::MakeNodeFrom(Tensor value, const Parents& parents,
                                BackwardFn backward_fn) {
  Variable out(std::move(value), /*requires_grad=*/false);
  bool any_grad = false;
  out.node_->parents.reserve(parents.size());
  for (const Variable& p : parents) {
    CHECK(p.defined());
    any_grad = any_grad || p.node_->requires_grad;
    out.node_->parents.push_back(p.node_);
  }
  out.node_->requires_grad = any_grad;
  if (any_grad) out.node_->backward_fn = std::move(backward_fn);
  return out;
}

Variable Variable::MakeNode(
    Tensor value,
    std::initializer_list<std::reference_wrapper<const Variable>> parents,
    BackwardFn backward_fn) {
  return MakeNodeFrom(std::move(value), parents, std::move(backward_fn));
}

Variable Variable::MakeNode(Tensor value, const std::vector<Variable>& parents,
                            BackwardFn backward_fn) {
  return MakeNodeFrom(std::move(value), parents, std::move(backward_fn));
}

void Variable::Backward() const {
  OVS_TRACE_SCOPE("nn.backward");
  internal::VariableNode* root = node();
  CHECK_EQ(root->value.numel(), 1) << "Backward requires a scalar output";

  // Iterative post-order DFS to get a topological order (parents before
  // children in `order`); we then sweep it in reverse. A node is marked
  // visited by writing this call's stamp into it; frozen nodes
  // (requires_grad false) are never visited, so concurrent calls over
  // graphs that share only frozen nodes write disjoint memory.
  const uint64_t stamp =
      g_next_visit_stamp.fetch_add(1, std::memory_order_relaxed);
  std::vector<internal::VariableNode*> order;
  struct Frame {
    internal::VariableNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (root->requires_grad || root->backward_fn) {
    stack.push_back({root, 0});
    root->visit_stamp = stamp;
  }
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::VariableNode* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && parent->visit_stamp != stamp) {
        parent->visit_stamp = stamp;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  // Allocate grads (zero on first touch). Grads accumulate across Backward
  // calls, torch-style; parameters are zeroed by the optimizer. Interior
  // nodes are fresh per forward pass, so their grads start at zero anyway.
  for (internal::VariableNode* n : order) n->MutableGrad();
  root->MutableGrad()[0] += 1.0f;

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::VariableNode* n = *it;
    if (n->backward_fn) n->backward_fn(*n);
  }
}

}  // namespace ovs::nn
