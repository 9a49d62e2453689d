#ifndef OVS_SIM_LANE_QUEUE_H_
#define OVS_SIM_LANE_QUEUE_H_

#include <cstddef>
#include <vector>

namespace ovs::sim {

/// A FIFO of vehicle indices in contiguous storage. The engine keeps one per
/// lane, front (largest pos) first, and one per entry link, holding the
/// trips that are due but not yet spawned in departure order. pop_front only
/// advances a head index; once the head has passed half of the buffer the
/// live entries are moved back to its start, so every operation is
/// amortised O(1) and a sweep over the queue reads one flat array. A queue
/// that drains to empty starts again at the buffer's start, keeping its
/// capacity.
class LaneQueue {
 public:
  bool empty() const { return head_ == items_.size(); }
  size_t size() const { return items_.size() - head_; }
  /// Front-to-back access; `i` counts from the front. The accessors below
  /// require a non-empty queue, as std::deque's do.
  int operator[](size_t i) const { return items_[head_ + i]; }
  int front() const { return items_[head_]; }
  int back() const { return items_.back(); }
  const int* begin() const { return items_.data() + head_; }
  const int* end() const { return items_.data() + items_.size(); }

  void push_back(int vehicle) { items_.push_back(vehicle); }
  void pop_front() {
    ++head_;
    if (2 * head_ > items_.size()) {
      items_.erase(items_.begin(), items_.begin() + head_);
      head_ = 0;
    }
  }

 private:
  std::vector<int> items_;
  size_t head_ = 0;  ///< index of the front vehicle in items_
};

}  // namespace ovs::sim

#endif  // OVS_SIM_LANE_QUEUE_H_
