#include <gtest/gtest.h>

#include "nn/ops.h"
#include "tests/gradcheck.h"

namespace ovs::nn {
namespace {

Variable Param(const Tensor& t) { return Variable(t, /*requires_grad=*/true); }

Tensor RandT(std::vector<int> shape, Rng* rng, float lo = -1.0f, float hi = 1.0f) {
  return Tensor::RandomUniform(std::move(shape), lo, hi, rng);
}

// ------------------------------------------------------------ value checks

TEST(OpsValueTest, AddSubMul) {
  Variable a(Tensor({2}, {1, 2}));
  Variable b(Tensor({2}, {3, 5}));
  EXPECT_EQ(Add(a, b).value()[1], 7.0f);
  EXPECT_EQ(Sub(a, b).value()[0], -2.0f);
  EXPECT_EQ(Mul(a, b).value()[1], 10.0f);
}

TEST(OpsValueTest, ScalarOps) {
  Variable a(Tensor({2}, {1, -2}));
  EXPECT_EQ(ScalarMul(a, 3.0f).value()[1], -6.0f);
  EXPECT_EQ(AddScalar(a, 1.0f).value()[1], -1.0f);
}

TEST(OpsValueTest, MatMulKnown) {
  Variable a(Tensor({2, 2}, {1, 2, 3, 4}));
  Variable b(Tensor({2, 1}, {5, 6}));
  Variable c = MatMul(a, b);
  EXPECT_EQ(c.value().at(0, 0), 17.0f);
  EXPECT_EQ(c.value().at(1, 0), 39.0f);
}

TEST(OpsValueTest, AddBiasBroadcastsRows) {
  Variable x(Tensor({2, 2}, {0, 0, 0, 0}));
  Variable b(Tensor({2}, {1, 2}));
  Variable y = AddBias(x, b);
  EXPECT_EQ(y.value().at(0, 1), 2.0f);
  EXPECT_EQ(y.value().at(1, 0), 1.0f);
}

TEST(OpsValueTest, ActivationsKnownValues) {
  Variable x(Tensor({3}, {0.0f, -100.0f, 100.0f}));
  EXPECT_NEAR(Sigmoid(x).value()[0], 0.5f, 1e-6);
  EXPECT_NEAR(Sigmoid(x).value()[1], 0.0f, 1e-6);
  EXPECT_NEAR(Tanh(x).value()[0], 0.0f, 1e-6);
  EXPECT_EQ(Relu(x).value()[1], 0.0f);
  EXPECT_EQ(Relu(x).value()[2], 100.0f);
}

TEST(OpsValueTest, SoftmaxRowsSumToOne) {
  Rng rng(1);
  Variable x(RandT({4, 6}, &rng, -3, 3));
  Tensor y = SoftmaxRows(x).value();
  for (int r = 0; r < 4; ++r) {
    float sum = 0.0f;
    for (int c = 0; c < 6; ++c) {
      sum += y.at(r, c);
      EXPECT_GT(y.at(r, c), 0.0f);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
  }
}

TEST(OpsValueTest, SoftmaxHandlesLargeLogits) {
  Variable x(Tensor({1, 2}, {1000.0f, 1000.0f}));
  Tensor y = SoftmaxRows(x).value();
  EXPECT_NEAR(y[0], 0.5f, 1e-5);
}

TEST(OpsValueTest, SumAndMean) {
  Variable x(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_EQ(Sum(x).value()[0], 10.0f);
  EXPECT_EQ(Mean(x).value()[0], 2.5f);
}

TEST(OpsValueTest, SumColsAndColSlice) {
  Variable x(Tensor({2, 3}, {1, 2, 3, 4, 5, 6}));
  Tensor s = SumCols(x).value();
  EXPECT_EQ(s.at(0, 0), 6.0f);
  EXPECT_EQ(s.at(1, 0), 15.0f);
  Tensor c = ColSlice(x, 1).value();
  EXPECT_EQ(c.at(0, 0), 2.0f);
  EXPECT_EQ(c.at(1, 0), 5.0f);
}

TEST(OpsValueTest, ConcatColsInvertsColSlice) {
  Rng rng(2);
  Variable x(RandT({3, 4}, &rng));
  std::vector<Variable> cols;
  for (int t = 0; t < 4; ++t) cols.push_back(ColSlice(x, t));
  Tensor back = ConcatCols(cols).value();
  for (int i = 0; i < back.numel(); ++i) EXPECT_EQ(back[i], x.value()[i]);
}

TEST(OpsValueTest, ConcatFeatures) {
  Variable a(Tensor({2, 1}, {1, 2}));
  Variable b(Tensor({2, 2}, {3, 4, 5, 6}));
  Tensor c = ConcatFeatures(a, b).value();
  EXPECT_EQ(c.dim(1), 3);
  EXPECT_EQ(c.at(0, 0), 1.0f);
  EXPECT_EQ(c.at(1, 2), 6.0f);
}

TEST(OpsValueTest, GatherRows) {
  Variable x(Tensor({3, 2}, {1, 2, 3, 4, 5, 6}));
  Tensor g = GatherRows(x, {2, 0}).value();
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
}

TEST(OpsValueTest, FixedMatMulMatchesMatMul) {
  Rng rng(3);
  Tensor a = RandT({3, 4}, &rng);
  Variable x(RandT({4, 5}, &rng));
  Tensor fixed = BatchedFixedMatMul(a, x, 1).value();
  Tensor learned = MatMul(Variable(a), x).value();
  for (int i = 0; i < fixed.numel(); ++i) {
    EXPECT_NEAR(fixed[i], learned[i], 1e-5);
  }
}

TEST(OpsValueTest, MseLossKnown) {
  Variable pred(Tensor({2}, {1, 3}));
  Tensor target({2}, {0, 0});
  EXPECT_NEAR(MseLoss(pred, target).value()[0], 5.0f, 1e-6);
}

TEST(OpsValueTest, HingeSquaredOnlyPenalizesPositive) {
  Variable x(Tensor({4}, {-1, 0, 2, 3}));
  EXPECT_NEAR(HingeSquaredLoss(x).value()[0], (4.0f + 9.0f) / 4.0f, 1e-6);
}

TEST(OpsValueTest, LagAttentionIdentityAtLagZero) {
  // With all attention on lag 0, q == s.
  const int m = 2, t = 3, lags = 2;
  Tensor alpha({m * t, lags});
  for (int r = 0; r < m * t; ++r) alpha.at(r, 0) = 1.0f;
  Rng rng(4);
  Variable s(RandT({m, t}, &rng, 0, 5));
  Tensor q = LagAttentionApply(Variable(alpha), s, lags).value();
  for (int i = 0; i < q.numel(); ++i) EXPECT_NEAR(q[i], s.value()[i], 1e-6);
}

TEST(OpsValueTest, LagAttentionShiftsByOne) {
  // With all attention on lag 1, q[:, t] == s[:, t-1] and q[:, 0] == 0.
  const int m = 1, t = 4, lags = 2;
  Tensor alpha({m * t, lags});
  for (int r = 0; r < m * t; ++r) alpha.at(r, 1) = 1.0f;
  Variable s(Tensor({1, 4}, {10, 20, 30, 40}));
  Tensor q = LagAttentionApply(Variable(alpha), s, lags).value();
  EXPECT_NEAR(q.at(0, 0), 0.0f, 1e-6);
  EXPECT_NEAR(q.at(0, 1), 10.0f, 1e-6);
  EXPECT_NEAR(q.at(0, 3), 30.0f, 1e-6);
}

TEST(OpsValueTest, BuildAttentionInputLayout) {
  Tensor e({2, 3}, {1, 2, 3, 4, 5, 6});     // C=2, T=3
  Tensor emb({2, 1}, {10, 20});             // M=2, De=1
  Tensor x =
      BatchedBuildAttentionInput(Variable(e), Variable(emb), 1).value();
  EXPECT_EQ(x.dim(0), 6);   // M*T
  EXPECT_EQ(x.dim(1), 3);   // C+De
  // Row for link 1, time 2: e[:,2] = {3, 6}, emb[1] = {20}.
  EXPECT_EQ(x.at(5, 0), 3.0f);
  EXPECT_EQ(x.at(5, 1), 6.0f);
  EXPECT_EQ(x.at(5, 2), 20.0f);
}

TEST(OpsValueTest, DropoutEvalIsIdentity) {
  Rng rng(5);
  Variable x(RandT({3, 3}, &rng));
  Variable y = Dropout(x, 0.5f, /*train=*/false, &rng);
  EXPECT_EQ(y.raw(), x.raw());
}

TEST(OpsValueTest, DropoutTrainZeroesAndRescales) {
  Rng rng(5);
  Variable x(Tensor::Full({1000}, 1.0f), true);
  Tensor y = Dropout(x, 0.5f, /*train=*/true, &rng).value();
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) {
    if (y[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y[i], 2.0f, 1e-6);
    }
  }
  EXPECT_NEAR(zeros, 500, 80);
}

// ------------------------------------------------------------ grad checks

TEST(GradTest, Add) {
  Rng rng(10);
  Variable a = Param(RandT({3, 2}, &rng)), b = Param(RandT({3, 2}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(Add(a, b), Add(a, b))); }, {a, b});
}

TEST(GradTest, Sub) {
  Rng rng(11);
  Variable a = Param(RandT({4}, &rng)), b = Param(RandT({4}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(Sub(a, b), Sub(a, b))); }, {a, b});
}

TEST(GradTest, MulAndScalar) {
  Rng rng(12);
  Variable a = Param(RandT({5}, &rng)), b = Param(RandT({5}, &rng));
  ExpectGradientsMatch(
      [&] { return Sum(ScalarMul(Mul(a, b), 1.7f)); }, {a, b});
}

TEST(GradTest, MatMul) {
  Rng rng(13);
  Variable a = Param(RandT({3, 4}, &rng)), b = Param(RandT({4, 2}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(MatMul(a, b), MatMul(a, b))); },
                       {a, b});
}

TEST(GradTest, AddBias) {
  Rng rng(14);
  Variable x = Param(RandT({3, 4}, &rng)), b = Param(RandT({4}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(AddBias(x, b), AddBias(x, b))); },
                       {x, b});
}

TEST(GradTest, FixedMatMul) {
  Rng rng(15);
  Tensor a = RandT({3, 4}, &rng);
  Variable x = Param(RandT({4, 2}, &rng));
  ExpectGradientsMatch(
      [&] {
        return Sum(
            Mul(BatchedFixedMatMul(a, x, 1), BatchedFixedMatMul(a, x, 1)));
      },
      {x});
}

TEST(GradTest, FixedMatMulNonSquare) {
  Rng rng(150);
  Tensor a = RandT({5, 2}, &rng);
  Variable x = Param(RandT({2, 7}, &rng));
  ExpectGradientsMatch(
      [&] {
        return Sum(
            Mul(BatchedFixedMatMul(a, x, 1), BatchedFixedMatMul(a, x, 1)));
      },
      {x});
}

TEST(GradTest, FixedMatMulOneRow) {
  Rng rng(151);
  Tensor a = RandT({1, 4}, &rng);
  Variable x = Param(RandT({4, 3}, &rng));
  ExpectGradientsMatch(
      [&] {
        return Sum(
            Mul(BatchedFixedMatMul(a, x, 1), BatchedFixedMatMul(a, x, 1)));
      },
      {x});
}

TEST(GradTest, MatMulNonSquareAndOneRow) {
  Rng rng(152);
  Variable a = Param(RandT({1, 6}, &rng)), b = Param(RandT({6, 3}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(MatMul(a, b), MatMul(a, b))); },
                       {a, b});
  Variable c = Param(RandT({5, 2}, &rng)), d = Param(RandT({2, 1}, &rng));
  ExpectGradientsMatch([&] { return Sum(Mul(MatMul(c, d), MatMul(c, d))); },
                       {c, d});
}

TEST(GradTest, Sigmoid) {
  Rng rng(16);
  Variable x = Param(RandT({6}, &rng, -2, 2));
  ExpectGradientsMatch([&] { return Sum(Sigmoid(x)); }, {x});
}

TEST(GradTest, Tanh) {
  Rng rng(17);
  Variable x = Param(RandT({6}, &rng, -2, 2));
  ExpectGradientsMatch([&] { return Sum(Tanh(x)); }, {x});
}

TEST(GradTest, ReluAwayFromKink) {
  Rng rng(18);
  Tensor t = RandT({8}, &rng, -2, 2);
  for (int i = 0; i < t.numel(); ++i) {
    if (std::fabs(t[i]) < 0.1f) t[i] = 0.5f;  // avoid the non-differentiable point
  }
  Variable x = Param(t);
  ExpectGradientsMatch([&] { return Sum(Mul(Relu(x), Relu(x))); }, {x});
}

TEST(GradTest, SoftmaxRows) {
  Rng rng(19);
  Variable x = Param(RandT({3, 4}, &rng, -1, 1));
  Tensor weight = RandT({3, 4}, &rng);
  ExpectGradientsMatch([&] { return Sum(MulConst(SoftmaxRows(x), weight)); },
                       {x});
}

TEST(GradTest, SoftmaxRowsNonSquareAndOneRow) {
  Rng rng(190);
  Variable wide = Param(RandT({2, 7}, &rng, -1, 1));
  Tensor w_wide = RandT({2, 7}, &rng);
  ExpectGradientsMatch(
      [&] { return Sum(MulConst(SoftmaxRows(wide), w_wide)); }, {wide});
  Variable row = Param(RandT({1, 5}, &rng, -1, 1));
  Tensor w_row = RandT({1, 5}, &rng);
  ExpectGradientsMatch([&] { return Sum(MulConst(SoftmaxRows(row), w_row)); },
                       {row});
}

TEST(GradTest, MulConst) {
  Rng rng(191);
  Variable x = Param(RandT({3, 5}, &rng));
  Tensor c = RandT({3, 5}, &rng, -2, 2);
  ExpectGradientsMatch([&] { return Sum(Mul(MulConst(x, c), x)); }, {x});
  Variable row = Param(RandT({1, 6}, &rng));
  Tensor c_row = RandT({1, 6}, &rng, -2, 2);
  ExpectGradientsMatch([&] { return Sum(Mul(MulConst(row, c_row), row)); },
                       {row});
}

TEST(GradTest, DropoutEvalMode) {
  Rng rng(192);
  Variable x = Param(RandT({2, 4}, &rng));
  ExpectGradientsMatch(
      [&] {
        Rng unused(1);
        Variable y = Dropout(x, 0.5f, /*train=*/false, &unused);
        return Sum(Mul(y, y));
      },
      {x});
}

TEST(GradTest, DropoutTrainModeFixedMask) {
  Rng rng(193);
  Variable x = Param(RandT({4, 3}, &rng));
  // A fresh generator with a fixed seed is built on every forward call so
  // the mask is identical across the finite-difference evaluations; the
  // gradient of the surviving elements is then well defined.
  ExpectGradientsMatch(
      [&] {
        Rng mask_rng(77);
        Variable y = Dropout(x, 0.4f, /*train=*/true, &mask_rng);
        return Sum(Mul(y, y));
      },
      {x});
}

TEST(GradTest, Conv1dBatch) {
  Rng rng(20);
  Variable x = Param(RandT({2, 3, 5}, &rng));
  Variable w = Param(RandT({4, 3, 3}, &rng));
  Variable b = Param(RandT({4}, &rng));
  ExpectGradientsMatch(
      [&] {
        Variable y = Conv1dBatch(x, w, b);
        return Sum(Mul(y, y));
      },
      {x, w, b});
}

TEST(GradTest, SumBatchAndSumCols) {
  Rng rng(21);
  Variable x = Param(RandT({2, 3, 4}, &rng));
  ExpectGradientsMatch(
      [&] {
        Variable y = SumBatchBlocks(x, 1);
        return Sum(Mul(y, y));
      },
      {x});
  Variable z = Param(RandT({3, 5}, &rng));
  ExpectGradientsMatch(
      [&] {
        Variable y = SumCols(z);
        return Sum(Mul(y, y));
      },
      {z});
}

TEST(GradTest, ColSliceConcatCols) {
  Rng rng(22);
  Variable x = Param(RandT({3, 4}, &rng));
  ExpectGradientsMatch(
      [&] {
        std::vector<Variable> cols;
        for (int t = 3; t >= 0; --t) cols.push_back(ColSlice(x, t));
        Variable y = ConcatCols(cols);
        return Sum(Mul(y, y));
      },
      {x});
}

TEST(GradTest, ConcatFeaturesGatherReshape) {
  Rng rng(23);
  Variable a = Param(RandT({3, 2}, &rng));
  Variable b = Param(RandT({3, 3}, &rng));
  ExpectGradientsMatch(
      [&] {
        Variable y = ConcatFeatures(a, b);
        Variable g = GatherRows(y, {2, 0, 2});
        Variable r = Reshape(g, {5, 3});
        return Sum(Mul(r, r));
      },
      {a, b});
}

TEST(GradTest, BuildAttentionInput) {
  Rng rng(24);
  Variable e = Param(RandT({2, 3}, &rng));
  Variable emb = Param(RandT({4, 2}, &rng));
  Tensor weight = RandT({12, 4}, &rng);
  ExpectGradientsMatch(
      [&] {
        Variable x = BatchedBuildAttentionInput(e, emb, 1);
        return Sum(Mul(MulConst(x, weight), x));
      },
      {e, emb});
}

TEST(GradTest, LagAttentionApply) {
  Rng rng(25);
  const int m = 2, t = 4, lags = 3;
  Variable alpha = Param(RandT({m * t, lags}, &rng, 0, 1));
  Variable s = Param(RandT({m, t}, &rng, 0, 2));
  ExpectGradientsMatch(
      [&] {
        Variable q = LagAttentionApply(alpha, s, lags);
        return Sum(Mul(q, q));
      },
      {alpha, s});
}

TEST(GradTest, MseLoss) {
  Rng rng(26);
  Variable pred = Param(RandT({3, 3}, &rng));
  Tensor target = RandT({3, 3}, &rng);
  ExpectGradientsMatch([&] { return MseLoss(pred, target); }, {pred});
}

TEST(GradTest, HingeSquared) {
  Rng rng(27);
  Tensor t = RandT({8}, &rng, -2, 2);
  for (int i = 0; i < t.numel(); ++i) {
    if (std::fabs(t[i]) < 0.1f) t[i] = -0.5f;
  }
  Variable x = Param(t);
  ExpectGradientsMatch([&] { return HingeSquaredLoss(x); }, {x});
}

TEST(GradTest, MeanAndAddScalar) {
  Rng rng(28);
  Variable x = Param(RandT({7}, &rng));
  ExpectGradientsMatch([&] { return Mean(Mul(AddScalar(x, 2.0f), x)); }, {x});
}

TEST(GradTest, DeepComposition) {
  Rng rng(29);
  Variable w1 = Param(RandT({4, 8}, &rng));
  Variable w2 = Param(RandT({8, 2}, &rng));
  Tensor input = RandT({3, 4}, &rng);
  Tensor target = RandT({3, 2}, &rng, 0, 1);
  ExpectGradientsMatch(
      [&] {
        Variable h = Sigmoid(MatMul(Variable(input), w1));
        Variable y = Sigmoid(MatMul(h, w2));
        return MseLoss(y, target);
      },
      {w1, w2});
}

// ----------------------------------------------------------- engine tests

TEST(BackwardTest, RequiresScalarOutput) {
  Variable x(Tensor({2}, {1, 2}), true);
  EXPECT_DEATH(Add(x, x).Backward(), "scalar");
}

TEST(BackwardTest, GradAccumulatesAcrossCalls) {
  Variable x(Tensor({1}, {2.0f}), true);
  x.ZeroGrad();
  Sum(Mul(x, x)).Backward();   // d/dx x^2 = 4
  Sum(Mul(x, x)).Backward();   // accumulate again
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-5);
  x.ZeroGrad();
  EXPECT_EQ(x.grad()[0], 0.0f);
}

TEST(BackwardTest, NoGradForFrozenLeaf) {
  Variable x(Tensor({1}, {2.0f}), false);
  Variable y(Tensor({1}, {3.0f}), true);
  y.ZeroGrad();
  Variable loss = Sum(Mul(x, y));
  loss.Backward();
  EXPECT_NEAR(y.grad()[0], 2.0f, 1e-6);
  // x never got a gradient allocated with matching shape updates.
  EXPECT_FALSE(x.requires_grad());
}

TEST(BackwardTest, DiamondGraphCountsBothPaths) {
  Variable x(Tensor({1}, {3.0f}), true);
  x.ZeroGrad();
  Variable a = ScalarMul(x, 2.0f);
  Variable b = ScalarMul(x, 5.0f);
  Sum(Add(a, b)).Backward();
  EXPECT_NEAR(x.grad()[0], 7.0f, 1e-6);
}

TEST(BackwardTest, ReusedNodeGradientIsCorrect) {
  // y = x * x reuses the same node twice as parents.
  Variable x(Tensor({1}, {4.0f}), true);
  x.ZeroGrad();
  Sum(Mul(x, x)).Backward();
  EXPECT_NEAR(x.grad()[0], 8.0f, 1e-6);
}

TEST(BackwardTest, LaterBackwardRevisitsSharedInteriorNode) {
  // The second graph is built after the first Backward and shares its
  // interior node h and its root `first`; visit marks left by the first
  // call must not hide them from the second.
  Variable x(Tensor({1}, {2.0f}), true);
  x.ZeroGrad();
  Variable h = ScalarMul(x, 3.0f);  // h = 6
  Variable first = Sum(h);
  first.Backward();
  EXPECT_EQ(h.grad()[0], 1.0f);
  EXPECT_EQ(x.grad()[0], 3.0f);

  x.ZeroGrad();
  h.ZeroGrad();
  first.ZeroGrad();
  // d/dh (h*h + 2*sum(h)) = 2h + 2 = 14, and dh/dx = 3.
  Sum(Add(Mul(h, h), ScalarMul(first, 2.0f))).Backward();
  EXPECT_EQ(h.grad()[0], 14.0f);
  EXPECT_EQ(first.grad()[0], 2.0f);
  EXPECT_EQ(x.grad()[0], 42.0f);
}

TEST(BackwardTest, SetRequiresGradTakesEffectOnNewGraphs) {
  Variable x(Tensor({1}, {2.0f}), true);
  x.ZeroGrad();
  x.set_requires_grad(false);
  Variable loss = Sum(Mul(x, x));
  EXPECT_FALSE(loss.requires_grad());
  x.set_requires_grad(true);
  Variable loss2 = Sum(Mul(x, x));
  EXPECT_TRUE(loss2.requires_grad());
}

}  // namespace
}  // namespace ovs::nn
