#include "nn/tensor.h"

#include <gtest/gtest.h>

#include "nn/convert.h"

namespace ovs::nn {
namespace {

TEST(TensorTest, DefaultEmpty) {
  Tensor t;
  EXPECT_EQ(t.numel(), 0);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.rank(), 0);
}

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ShapeAccessors) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(2), 4);
}

TEST(TensorTest, ExplicitData) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 1), 2.0f);
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(TensorTest, Rank3Access) {
  Tensor t({2, 3, 4});
  t.at(1, 2, 3) = 9.0f;
  EXPECT_EQ(t[1 * 12 + 2 * 4 + 3], 9.0f);
}

TEST(TensorTest, ScalarFactory) {
  Tensor s = Tensor::Scalar(2.5f);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_EQ(s[0], 2.5f);
}

TEST(TensorTest, FullFactory) {
  Tensor t = Tensor::Full({3}, 7.0f);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(t[i], 7.0f);
}

TEST(TensorTest, RandomDeterministic) {
  Rng a(5), b(5);
  Tensor x = Tensor::RandomUniform({4, 4}, -1, 1, &a);
  Tensor y = Tensor::RandomUniform({4, 4}, -1, 1, &b);
  for (int i = 0; i < x.numel(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(TensorTest, RandomUniformBounds) {
  Rng rng(5);
  Tensor x = Tensor::RandomUniform({100}, 2.0f, 3.0f, &rng);
  EXPECT_GE(x.Min(), 2.0f);
  EXPECT_LT(x.Max(), 3.0f);
}

TEST(TensorTest, RandomGaussianMoments) {
  Rng rng(6);
  Tensor x = Tensor::RandomGaussian({10000}, 1.0f, 2.0f, &rng);
  EXPECT_NEAR(x.Mean(), 1.0f, 0.1f);
}

TEST(TensorTest, InPlaceOps) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.AddInPlace(b);
  EXPECT_EQ(a[2], 33.0f);
  a.AxpyInPlace(-1.0f, b);
  EXPECT_EQ(a[1], 2.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a[0], 2.0f);
  a.Fill(5.0f);
  EXPECT_EQ(a[2], 5.0f);
}

TEST(TensorTest, Reductions) {
  Tensor a({4}, {-1, 2, -3, 4});
  EXPECT_EQ(a.Sum(), 2.0f);
  EXPECT_EQ(a.Mean(), 0.5f);
  EXPECT_EQ(a.Min(), -3.0f);
  EXPECT_EQ(a.Max(), 4.0f);
  EXPECT_EQ(a.AbsMax(), 4.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = a.Reshaped({3, 2});
  EXPECT_EQ(b.at(2, 1), 6.0f);
  EXPECT_EQ(b.rank(), 2);
}

TEST(TensorTest, SameShape) {
  Tensor a({2, 3}), b({2, 3}), c({3, 2});
  EXPECT_TRUE(a.SameShape(b));
  EXPECT_FALSE(a.SameShape(c));
}

TEST(TensorTest, ShapeNumelAndToString) {
  EXPECT_EQ(ShapeNumel({2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({1, 2, 3, 4}), 24);
  EXPECT_EQ(ShapeNumel({}), 0);
  EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]");
  EXPECT_EQ(ShapeToString({}), "[]");
  EXPECT_EQ(ShapeToString(std::vector<int>{1, 2, 3, 4}), "[1, 2, 3, 4]");
}

TEST(ShapeTest, ConvertsToAndFromVectorAndComparesEqual) {
  const std::vector<int> dims = {2, 3, 4};
  const Shape shape = dims;
  EXPECT_EQ(shape.size(), 3);
  EXPECT_EQ(shape.ToVector(), dims);
  EXPECT_TRUE(shape == dims);
  EXPECT_FALSE(shape == std::vector<int>({2, 3}));
  EXPECT_FALSE(shape == std::vector<int>({2, 3, 5}));
  Tensor t({2, 3});
  EXPECT_EQ(t.shape(), (std::vector<int>{2, 3}));
  EXPECT_TRUE(Shape() == std::vector<int>());
  EXPECT_EQ(Tensor().shape().size(), 0);
  // Checkpoints accept rank 4, so the inline capacity holds it.
  EXPECT_EQ(Tensor({1, 2, 3, 4}).rank(), Shape::kMaxRank);
}

TEST(ShapeDeathTest, RankAboveCapacityDies) {
  EXPECT_DEATH(Shape({1, 2, 3, 4, 5}), "rank 5 exceeds");
  EXPECT_DEATH(Shape(std::vector<int>(5, 1)), "rank 5 exceeds");
  EXPECT_DEATH(Tensor(std::vector<int>{1, 1, 1, 1, 1}), "rank 5 exceeds");
}

TEST(TensorTest, ToStringSmallShowsValues) {
  Tensor a({2}, {1, 2});
  const std::string s = a.ToString();
  EXPECT_NE(s.find("1"), std::string::npos);
  EXPECT_NE(s.find("[2]"), std::string::npos);
}

TEST(ConvertTest, DMatRoundTrip) {
  DMat m(2, 3);
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 3; ++c) m.at(r, c) = r * 10 + c;
  }
  Tensor t = FromDMat(m);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  DMat back = ToDMat(t);
  EXPECT_NEAR(Rmse(m, back), 0.0, 1e-6);
}

}  // namespace
}  // namespace ovs::nn
