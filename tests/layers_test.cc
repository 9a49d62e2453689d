#include "nn/layers.h"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "nn/optimizer.h"
#include "nn/serialize.h"
#include "tests/gradcheck.h"

namespace ovs::nn {
namespace {

TEST(LinearTest, OutputShape) {
  Rng rng(1);
  Linear layer(4, 3, &rng);
  Variable x(Tensor::RandomUniform({5, 4}, -1, 1, &rng));
  Variable y = layer.Forward(x);
  EXPECT_EQ(y.value().dim(0), 5);
  EXPECT_EQ(y.value().dim(1), 3);
}

TEST(LinearTest, ZeroInputGivesBias) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  Variable x(Tensor({1, 3}));
  Tensor y = layer.Forward(x).value();
  // With zero input the output equals the (zero-initialized) bias.
  EXPECT_EQ(y.at(0, 0), 0.0f);
  EXPECT_EQ(y.at(0, 1), 0.0f);
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(3);
  Linear layer(3, 2, &rng);
  Tensor input = Tensor::RandomUniform({4, 3}, -1, 1, &rng);
  Tensor target = Tensor::RandomUniform({4, 2}, 0, 1, &rng);
  ExpectGradientsMatch(
      [&] {
        return MseLoss(Sigmoid(layer.Forward(Variable(input))), target);
      },
      layer.Parameters());
}

TEST(LinearTest, ParameterCount) {
  Rng rng(4);
  Linear layer(7, 5, &rng);
  EXPECT_EQ(layer.NumParameters(), 7 * 5 + 5);
}

TEST(Conv1dTest, OutputShapeSamePadding) {
  Rng rng(5);
  Conv1d conv(2, 4, 3, &rng);
  Variable x(Tensor::RandomUniform({3, 2, 7}, -1, 1, &rng));
  Variable y = conv.Forward(x);
  EXPECT_EQ(y.value().dim(0), 3);
  EXPECT_EQ(y.value().dim(1), 4);
  EXPECT_EQ(y.value().dim(2), 7);
}

TEST(Conv1dTest, IdentityKernelPassesThrough) {
  Rng rng(6);
  Conv1d conv(1, 1, 3, &rng);
  // Set kernel to [0, 1, 0] and bias 0 -> identity.
  auto named = conv.NamedParameters();
  for (auto& [name, v] : named) {
    v.mutable_value().Fill(0.0f);
    if (name == "weight") v.mutable_value().at(0, 0, 1) = 1.0f;
  }
  Tensor input = Tensor::RandomUniform({2, 1, 5}, -1, 1, &rng);
  Tensor y = conv.Forward(Variable(input)).value();
  for (int i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], input[i], 1e-6);
}

TEST(Conv1dTest, GradCheck) {
  Rng rng(7);
  Conv1d conv(2, 3, 3, &rng);
  Tensor input = Tensor::RandomUniform({2, 2, 5}, -1, 1, &rng);
  ExpectGradientsMatch(
      [&] {
        Variable y = conv.Forward(Variable(input));
        return Sum(Mul(y, y));
      },
      conv.Parameters());
}

TEST(LstmTest, OutputShapesAndLength) {
  Rng rng(8);
  Lstm lstm(3, 5, &rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 4; ++t) {
    xs.emplace_back(Tensor::RandomUniform({2, 3}, -1, 1, &rng));
  }
  std::vector<Variable> hs = lstm.Forward(xs);
  ASSERT_EQ(hs.size(), 4u);
  for (const Variable& h : hs) {
    EXPECT_EQ(h.value().dim(0), 2);
    EXPECT_EQ(h.value().dim(1), 5);
  }
}

TEST(LstmTest, HiddenStateBounded) {
  Rng rng(9);
  Lstm lstm(2, 4, &rng);
  std::vector<Variable> xs;
  for (int t = 0; t < 6; ++t) {
    xs.emplace_back(Tensor::RandomUniform({3, 2}, -5, 5, &rng));
  }
  for (const Variable& h : lstm.Forward(xs)) {
    // h = o * tanh(c) in (-1, 1).
    EXPECT_LT(h.value().Max(), 1.0f);
    EXPECT_GT(h.value().Min(), -1.0f);
  }
}

TEST(LstmTest, GradCheckShortSequence) {
  Rng rng(10);
  Lstm lstm(2, 3, &rng);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 2; ++t) {
    inputs.push_back(Tensor::RandomUniform({2, 2}, -1, 1, &rng));
  }
  ExpectGradientsMatch(
      [&] {
        std::vector<Variable> xs;
        for (const Tensor& in : inputs) xs.emplace_back(in);
        std::vector<Variable> hs = lstm.Forward(xs);
        return Sum(Mul(hs.back(), hs.back()));
      },
      lstm.Parameters(), /*eps=*/5e-3f, /*rel_tol=*/6e-2f, /*abs_tol=*/3e-3f);
}

TEST(LstmTest, StateDependsOnHistory) {
  Rng rng(11);
  Lstm lstm(1, 4, &rng);
  auto run = [&](float first) {
    std::vector<Variable> xs;
    xs.emplace_back(Tensor({1, 1}, {first}));
    xs.emplace_back(Tensor({1, 1}, {0.5f}));
    return lstm.Forward(xs).back().value();
  };
  Tensor a = run(0.0f);
  Tensor b = run(5.0f);
  float diff = 0.0f;
  for (int i = 0; i < a.numel(); ++i) diff += std::fabs(a[i] - b[i]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(EmbeddingTest, TableShape) {
  Rng rng(14);
  Embedding emb(10, 4, &rng);
  EXPECT_EQ(emb.Table().value().dim(0), 10);
  EXPECT_EQ(emb.Table().value().dim(1), 4);
  EXPECT_TRUE(emb.Table().requires_grad());
}

// ----------------------------------------------------------- Module --

class TwoLayerModule : public Module {
 public:
  explicit TwoLayerModule(Rng* rng) : fc1_(2, 3, rng), fc2_(3, 1, rng) {
    RegisterModule("fc1", &fc1_);
    RegisterModule("fc2", &fc2_);
    extra_ = RegisterParameter("extra", Tensor({2}, {1, 2}));
  }
  Linear fc1_;
  Linear fc2_;
  Variable extra_;
};

TEST(ModuleTest, NamedParametersQualified) {
  Rng rng(15);
  TwoLayerModule m(&rng);
  auto named = m.NamedParameters();
  ASSERT_EQ(named.size(), 5u);
  EXPECT_EQ(named[0].first, "extra");
  EXPECT_EQ(named[1].first, "fc1.weight");
  EXPECT_EQ(named[4].first, "fc2.bias");
}

TEST(ModuleTest, NumParameters) {
  Rng rng(16);
  TwoLayerModule m(&rng);
  EXPECT_EQ(m.NumParameters(), 2 + (2 * 3 + 3) + (3 * 1 + 1));
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(17);
  TwoLayerModule a(&rng), b(&rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_module_test.bin").string();
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  auto na = a.NamedParameters();
  auto nb = b.NamedParameters();
  for (size_t i = 0; i < na.size(); ++i) {
    for (int j = 0; j < na[i].second.numel(); ++j) {
      EXPECT_EQ(na[i].second.value()[j], nb[i].second.value()[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadMissingFileFails) {
  Rng rng(18);
  TwoLayerModule m(&rng);
  EXPECT_FALSE(m.Load("/nonexistent/params.bin").ok());
}

TEST(ModuleTest, LoadRejectsCorruptMagic) {
  Rng rng(19);
  TwoLayerModule m(&rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_module_bad.bin").string();
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a model file";
  }
  EXPECT_EQ(m.Load(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsRankAboveShapeCapacity) {
  // A v1 record claiming rank 5 must come back as DataLoss from the reader,
  // never reach Shape's capacity CHECK.
  Rng rng(24);
  TwoLayerModule m(&rng);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_module_rank5.bin")
          .string();
  {
    std::ofstream out(path, std::ios::binary);
    auto put = [&](uint32_t v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(kOvsmMagic);
    put(1);  // v1 header: the record count follows the magic
    put(1);  // name length
    out << 'w';
    put(Shape::kMaxRank + 1);
    for (int d = 0; d <= Shape::kMaxRank; ++d) put(1);
    const float value = 0.0f;
    out.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  EXPECT_EQ(m.Load(path).code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(ModuleTest, CopyParametersFrom) {
  Rng rng(20);
  TwoLayerModule a(&rng), b(&rng);
  b.CopyParametersFrom(a);
  auto na = a.NamedParameters();
  auto nb = b.NamedParameters();
  for (size_t i = 0; i < na.size(); ++i) {
    for (int j = 0; j < na[i].second.numel(); ++j) {
      EXPECT_EQ(na[i].second.value()[j], nb[i].second.value()[j]);
    }
  }
}

TEST(ModuleTest, SetTrainableFreezesAll) {
  Rng rng(21);
  TwoLayerModule m(&rng);
  m.SetTrainable(false);
  for (const Variable& p : m.Parameters()) EXPECT_FALSE(p.requires_grad());
  m.SetTrainable(true);
  for (const Variable& p : m.Parameters()) EXPECT_TRUE(p.requires_grad());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Rng rng(22);
  TwoLayerModule m(&rng);
  Variable x(Tensor::RandomUniform({2, 2}, -1, 1, &rng));
  Sum(m.fc2_.Forward(Sigmoid(m.fc1_.Forward(x)))).Backward();
  m.ZeroGrad();
  for (Variable& p : m.Parameters()) {
    for (int i = 0; i < p.numel(); ++i) EXPECT_EQ(p.grad()[i], 0.0f);
  }
}

// ----------------------------------------------------------- Optimizers --

TEST(OptimizerTest, AdamMinimizesQuadraticBowl) {
  Rng rng(23);
  Variable x(Tensor::RandomUniform({4}, -3, 3, &rng), true);
  Tensor target({4}, {1, -2, 0.5f, 3});
  Adam opt({x}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    MseLoss(x, target).Backward();
    opt.Step();
  }
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(x.value()[i], target[i], 1e-2);
}

TEST(OptimizerTest, ClipGradBoundsUpdates) {
  Variable x(Tensor({1}, {100.0f}), true);
  Adam opt({x}, 1.0f);
  opt.ZeroGrad();
  Sum(Mul(x, x)).Backward();  // grad = 200
  opt.ClipGrad(1.0f);
  EXPECT_NEAR(x.grad()[0], 1.0f, 1e-6);
}

TEST(OptimizerTest, AdamStepsAreScaleInvariantEarly) {
  // First Adam step is ~lr regardless of gradient magnitude.
  Variable x(Tensor({1}, {10.0f}), true);
  Adam opt({x}, 0.1f);
  opt.ZeroGrad();
  Sum(ScalarMul(x, 1000.0f)).Backward();
  opt.Step();
  EXPECT_NEAR(x.value()[0], 10.0f - 0.1f, 1e-3);
}

}  // namespace
}  // namespace ovs::nn
