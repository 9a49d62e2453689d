#ifndef OVS_NN_TENSOR_H_
#define OVS_NN_TENSOR_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace ovs::nn {

/// A tensor's dimensions, stored inline so a shape costs no heap allocation.
/// Holds at most kMaxRank dims (checkpoints accept rank 4); a longer shape
/// CHECK-fails. Converts implicitly from a braced list or a
/// std::vector<int>, and back with ToVector().
class Shape {
 public:
  static constexpr int kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int> dims) { Assign(dims.begin(), dims.size()); }
  Shape(const std::vector<int>& dims) { Assign(dims.data(), dims.size()); }

  int size() const { return rank_; }
  bool empty() const { return rank_ == 0; }
  int operator[](int i) const { return dims_[i]; }
  const int* begin() const { return dims_.data(); }
  const int* end() const { return dims_.data() + rank_; }

  std::vector<int> ToVector() const { return std::vector<int>(begin(), end()); }

  friend bool operator==(const Shape& a, const Shape& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  void Assign(const int* dims, size_t rank) {
    CHECK_LE(rank, static_cast<size_t>(kMaxRank))
        << "tensor rank " << rank << " exceeds the inline shape capacity";
    rank_ = static_cast<int>(rank);
    std::copy(dims, dims + rank, dims_.begin());
  }

  std::array<int, kMaxRank> dims_{};
  int rank_ = 0;
};

/// Dense row-major float tensor of rank 0..Shape::kMaxRank. This is the only
/// numeric container in the autodiff layer; shapes are checked eagerly with
/// CHECKs because shape bugs are programmer errors, not recoverable
/// conditions. The shape is inline, so a tensor's one allocation is its
/// data.
class Tensor {
 public:
  /// Empty (rank-0, zero elements) tensor.
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(const Shape& shape);

  /// Tensor with explicit contents; `data.size()` must match the shape.
  Tensor(const Shape& shape, std::vector<float> data);

  /// Rank-0 "scalar" tensor (shape {1}).
  static Tensor Scalar(float value);

  /// All-zeros / all-`value` tensors.
  static Tensor Zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor Full(const Shape& shape, float value);

  /// I.i.d. uniform / Gaussian fills (deterministic given `rng`).
  static Tensor RandomUniform(const Shape& shape, float lo, float hi, Rng* rng);
  static Tensor RandomGaussian(const Shape& shape, float mean, float stddev,
                               Rng* rng);

  const Shape& shape() const { return shape_; }
  int rank() const { return shape_.size(); }
  int dim(int i) const {
    CHECK_GE(i, 0);
    CHECK_LT(i, rank());
    return shape_[i];
  }
  int numel() const { return static_cast<int>(data_.size()); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Flat element access.
  float& operator[](int i) {
    CHECK_GE(i, 0);
    CHECK_LT(i, numel());
    return data_[i];
  }
  float operator[](int i) const {
    CHECK_GE(i, 0);
    CHECK_LT(i, numel());
    return data_[i];
  }

  /// Rank-2 access: (row, col).
  float& at(int r, int c) {
    CHECK_EQ(rank(), 2);
    CHECK_GE(r, 0);
    CHECK_LT(r, shape_[0]);
    CHECK_GE(c, 0);
    CHECK_LT(c, shape_[1]);
    return data_[static_cast<size_t>(r) * shape_[1] + c];
  }
  float at(int r, int c) const { return const_cast<Tensor*>(this)->at(r, c); }

  /// Rank-3 access: (i, j, k).
  float& at(int i, int j, int k) {
    CHECK_EQ(rank(), 3);
    CHECK_GE(i, 0);
    CHECK_LT(i, shape_[0]);
    CHECK_GE(j, 0);
    CHECK_LT(j, shape_[1]);
    CHECK_GE(k, 0);
    CHECK_LT(k, shape_[2]);
    return data_[(static_cast<size_t>(i) * shape_[1] + j) * shape_[2] + k];
  }
  float at(int i, int j, int k) const {
    return const_cast<Tensor*>(this)->at(i, j, k);
  }

  /// True if shapes are identical (same rank and dims).
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// In-place element-wise helpers used by the optimizer and backward passes.
  void Fill(float value);
  void AddInPlace(const Tensor& other);
  void AxpyInPlace(float alpha, const Tensor& other);  // this += alpha * other
  void ScaleInPlace(float alpha);

  /// Reductions.
  float Sum() const;
  float Mean() const;
  float Min() const;
  float Max() const;
  float AbsMax() const;

  /// True when every element is finite (no NaN or Inf). The TrainGuard's
  /// cheap per-epoch divergence sweep; an empty tensor is vacuously finite.
  bool AllFinite() const;

  /// Returns a tensor with the same data but a new shape of equal numel.
  Tensor Reshaped(const Shape& new_shape) const;

  /// Debug string: shape plus (for small tensors) the contents.
  std::string ToString() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

/// Number of elements implied by a shape (product of dims; 0 for empty shape).
int ShapeNumel(const Shape& shape);

/// "[2, 3]"-style rendering for error messages.
std::string ShapeToString(const Shape& shape);

}  // namespace ovs::nn

#endif  // OVS_NN_TENSOR_H_
