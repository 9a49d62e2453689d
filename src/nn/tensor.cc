#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace ovs::nn {

int ShapeNumel(const Shape& shape) {
  if (shape.empty()) return 0;
  int n = 1;
  for (int d : shape) {
    CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < shape.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(const Shape& shape)
    : shape_(shape), data_(static_cast<size_t>(ShapeNumel(shape_)), 0.0f) {}

Tensor::Tensor(const Shape& shape, std::vector<float> data)
    : shape_(shape), data_(std::move(data)) {
  CHECK_EQ(static_cast<size_t>(ShapeNumel(shape_)), data_.size())
      << "shape " << ShapeToString(shape_) << " does not match data size";
}

Tensor Tensor::Scalar(float value) { return Tensor({1}, {value}); }

Tensor Tensor::Full(const Shape& shape, float value) {
  Tensor t(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::RandomUniform(const Shape& shape, float lo, float hi,
                             Rng* rng) {
  CHECK(rng != nullptr);
  Tensor t(shape);
  for (int i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::RandomGaussian(const Shape& shape, float mean, float stddev,
                              Rng* rng) {
  CHECK(rng != nullptr);
  Tensor t(shape);
  for (int i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

void Tensor::Fill(float value) { std::fill(data_.begin(), data_.end(), value); }

void Tensor::AddInPlace(const Tensor& other) {
  CHECK(SameShape(other)) << "AddInPlace shape mismatch: "
                          << ShapeToString(shape_) << " vs "
                          << ShapeToString(other.shape_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::AxpyInPlace(float alpha, const Tensor& other) {
  CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::ScaleInPlace(float alpha) {
  for (float& v : data_) v *= alpha;
}

float Tensor::Sum() const {
  double s = 0.0;
  for (float v : data_) s += v;
  return static_cast<float>(s);
}

float Tensor::Mean() const {
  CHECK_GT(numel(), 0);
  return Sum() / static_cast<float>(numel());
}

float Tensor::Min() const {
  CHECK_GT(numel(), 0);
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::Max() const {
  CHECK_GT(numel(), 0);
  return *std::max_element(data_.begin(), data_.end());
}

float Tensor::AbsMax() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

bool Tensor::AllFinite() const {
  for (float v : data_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

Tensor Tensor::Reshaped(const Shape& new_shape) const {
  CHECK_EQ(ShapeNumel(new_shape), numel())
      << "Reshape " << ShapeToString(shape_) << " -> "
      << ShapeToString(new_shape);
  return Tensor(new_shape, data_);
}

std::string Tensor::ToString() const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_);
  if (numel() <= 16) {
    os << " {";
    for (int i = 0; i < numel(); ++i) {
      if (i > 0) os << ", ";
      os << data_[i];
    }
    os << "}";
  }
  return os.str();
}

}  // namespace ovs::nn
