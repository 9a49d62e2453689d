// Parity and regression tests for the register-blocked SIMD GEMM kernels
// (nn/vec.h, nn/gemm.cc) and everything layered on them: the fused LSTM
// step, the batched recovery forward, NaN propagation (no zero-skip), and
// the tile-work-aware threading grain.

#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ovs_model.h"
#include "core/train_guard.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/vec.h"
#include "tests/gradcheck.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

using nn::Tensor;
using nn::Variable;

// Widths the parity contract covers: scalar, SSE-width, AVX-width. Width 8
// falls back to the generic lane array on non-AVX builds, which exercises
// the same operation order the intrinsic path must preserve.
constexpr int kWidths[] = {1, 4, 8};

// Shapes chosen to hit every kernel edge: single element, single row,
// row-block remainders (7 rows), column panel remainders (non-multiples of
// 2W), and a reduction longer than kKTile (300 > 256) so the per-tile
// writeback path runs.
struct GemmShape {
  int n, k, m;
};
constexpr GemmShape kShapes[] = {{1, 1, 1},   {1, 5, 3},    {4, 8, 8},
                                 {7, 13, 9},  {12, 8, 32},  {5, 300, 7},
                                 {64, 64, 64}, {130, 33, 70}};

std::vector<float> RandomBuffer(int count, Rng* rng) {
  std::vector<float> out(count);
  for (float& v : out) v = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return out;
}

// FNV-1a over raw bytes, for pinning outputs bitwise.
uint64_t Fnv1a(const void* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) h = (h ^ bytes[i]) * 1099511628211ull;
  return h;
}

uint64_t HashTensor(const Tensor& t) {
  return Fnv1a(t.data(), sizeof(float) * t.numel());
}

std::string HexLiteral(uint64_t v) {
  char literal[32];
  std::snprintf(literal, sizeof(literal), "0x%016" PRIx64 "ull", v);
  return literal;
}

class GemmWidthFixture : public ::testing::Test {
 protected:
  void TearDown() override { nn::gemm::SetGemmVectorWidthForTesting(0); }
};

using GemmParityTest = GemmWidthFixture;

TEST_F(GemmParityTest, AllVariantsBitwiseIdenticalAcrossWidths) {
  Rng rng(101);
  for (const GemmShape& s : kShapes) {
    // Buffers sized for the largest operand role across the three variants.
    const std::vector<float> a = RandomBuffer(s.n * s.k + s.n * s.m, &rng);
    const std::vector<float> b = RandomBuffer(s.k * s.m + s.n * s.m, &rng);
    for (int variant = 0; variant < 3; ++variant) {
      const int out_count = variant == 0   ? s.n * s.m
                            : variant == 1 ? s.n * s.k
                                           : s.k * s.m;
      std::vector<std::vector<float>> results;
      for (int width : kWidths) {
        nn::gemm::SetGemmVectorWidthForTesting(width);
        std::vector<float> c(out_count, 0.0f);
        switch (variant) {
          case 0:
            nn::gemm::GemmNN(s.n, s.k, s.m, a.data(), b.data(), c.data());
            break;
          case 1:
            nn::gemm::GemmNT(s.n, s.k, s.m, a.data(), b.data(), c.data());
            break;
          default:
            nn::gemm::GemmTN(s.n, s.k, s.m, a.data(), b.data(), c.data());
        }
        results.push_back(std::move(c));
      }
      for (size_t w = 1; w < results.size(); ++w) {
        for (int i = 0; i < out_count; ++i) {
          ASSERT_EQ(results[0][i], results[w][i])
              << "variant " << variant << " shape " << s.n << "x" << s.k
              << "x" << s.m << " width " << kWidths[w] << " element " << i;
        }
      }
    }
  }
}

TEST_F(GemmParityTest, BlockedMatchesNaiveBitwiseForShortReductions) {
  // For red <= kKTile there is a single reduction tile, so at every width
  // the blocked kernel accumulates each output element exactly as a plain
  // triple loop does: terms in ascending reduction order from zero, one
  // multiply and one add rounding per term.
  Rng rng(77);
  for (const GemmShape& s : kShapes) {
    if (s.k > nn::gemm::kKTile) continue;
    const std::vector<float> a = RandomBuffer(s.n * s.k, &rng);
    const std::vector<float> b = RandomBuffer(s.k * s.m, &rng);
    std::vector<float> naive(s.n * s.m);
    for (int i = 0; i < s.n; ++i) {
      for (int j = 0; j < s.m; ++j) {
        float acc = 0.0f;
        for (int p = 0; p < s.k; ++p) acc += a[i * s.k + p] * b[p * s.m + j];
        naive[i * s.m + j] = acc;
      }
    }
    for (int width : kWidths) {
      nn::gemm::SetGemmVectorWidthForTesting(width);
      std::vector<float> blocked(s.n * s.m, 0.0f);
      nn::gemm::GemmNN(s.n, s.k, s.m, a.data(), b.data(), blocked.data());
      for (int i = 0; i < s.n * s.m; ++i) {
        ASSERT_EQ(blocked[i], naive[i])
            << "shape " << s.n << "x" << s.k << "x" << s.m << " width "
            << width << " element " << i;
      }
    }
  }
}

// ------------------------------------------------ zero-skip NaN regression --

using GemmKernelsTest = GemmWidthFixture;

TEST_F(GemmKernelsTest, NaiveZeroSkipSuppressedNaNs) {
  // A zero-skip fast path (`if (av == 0.0f) continue;`) drops every product
  // whose left factor is zero, so 0 * NaN never reaches the output and
  // training continues on garbage. The blocked kernels have no such path.
  // For each variant and width, one NaN is planted in either operand while
  // every other entry of both operands is zero: each output element whose
  // reduction reads the NaN must be NaN (a plain triple loop, with no skip,
  // says which), the others must stay 0, and a loss over the output must
  // trip the guard.
  constexpr int n = 5, k = 6, m = 19;  // m covers 2W panels and scalar tails
  struct Variant {
    const char* name;
    int a_count, b_count, c_count;
  };
  constexpr Variant kVariants[] = {{"NN", n * k, k * m, n * m},
                                   {"NT", n * m, k * m, n * k},
                                   {"TN", n * k, n * m, k * m}};
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Rng rng(5);
  nn::Linear probe(2, 2, &rng);
  core::TrainGuard guard("gemm_nan", core::TrainGuardOptions{}, 1e-3f);
  for (int variant = 0; variant < 3; ++variant) {
    const Variant& v = kVariants[variant];
    for (int poisoned = 0; poisoned < 2; ++poisoned) {
      std::vector<float> a(v.a_count, 0.0f), b(v.b_count, 0.0f);
      std::vector<float>& target = poisoned == 0 ? a : b;
      target[target.size() / 2] = nan;
      // The plain product, every term kept: NaN exactly where it is read.
      std::vector<float> expected(v.c_count, 0.0f);
      for (int i = 0; i < n; ++i) {
        for (int p = 0; p < k; ++p) {
          for (int j = 0; j < m; ++j) {
            switch (variant) {
              case 0:
                expected[i * m + j] += a[i * k + p] * b[p * m + j];
                break;
              case 1:
                expected[i * k + p] += a[i * m + j] * b[p * m + j];
                break;
              default:
                expected[p * m + j] += a[i * k + p] * b[i * m + j];
            }
          }
        }
      }
      for (int width : kWidths) {
        SCOPED_TRACE(std::string(v.name) +
                     (poisoned == 0 ? " NaN in a" : " NaN in b") + " width " +
                     std::to_string(width));
        nn::gemm::SetGemmVectorWidthForTesting(width);
        std::vector<float> c(v.c_count, 0.0f);
        switch (variant) {
          case 0:
            nn::gemm::GemmNN(n, k, m, a.data(), b.data(), c.data());
            break;
          case 1:
            nn::gemm::GemmNT(n, k, m, a.data(), b.data(), c.data());
            break;
          default:
            nn::gemm::GemmTN(n, k, m, a.data(), b.data(), c.data());
        }
        int nans = 0;
        double loss = 0.0;
        for (int i = 0; i < v.c_count; ++i) {
          ASSERT_EQ(std::isnan(c[i]), std::isnan(expected[i]))
              << "element " << i;
          if (std::isnan(c[i])) {
            ++nans;
          } else {
            ASSERT_EQ(c[i], 0.0f) << "element " << i;
          }
          loss += static_cast<double>(c[i]) * c[i];
        }
        EXPECT_GT(nans, 0);
        EXPECT_FALSE(guard.EpochHealthy(loss, probe));
      }
    }
  }
}

// ----------------------------------------------------------- thread grain --

TEST_F(GemmKernelsTest, TinyGemmRunsInOneChunkLargeGemmSplits) {
  const int threads_before = GlobalThreadCount();
  SetGlobalThreads(4);
  Rng rng(11);
  {
    // 2 row blocks * 8 * 8 work is far below kMinWorkPerChunk: the grain
    // must cover the whole range so ParallelFor stays on the calling
    // thread (exactly one chunk).
    const std::vector<float> a = RandomBuffer(8 * 8, &rng);
    const std::vector<float> b = RandomBuffer(8 * 8, &rng);
    std::vector<float> c(8 * 8, 0.0f);
    const ThreadPool::Stats before = GlobalThreadPool()->stats();
    nn::gemm::GemmNN(8, 8, 8, a.data(), b.data(), c.data());
    const ThreadPool::Stats after = GlobalThreadPool()->stats();
    EXPECT_EQ(after.chunks_run - before.chunks_run, 1u);
  }
  {
    // 128 row blocks at 4*64*512 madds each: every block clears the work
    // budget, so the sweep splits into many chunks.
    const std::vector<float> a = RandomBuffer(512 * 64, &rng);
    const std::vector<float> b = RandomBuffer(64 * 512, &rng);
    std::vector<float> c(512 * 512, 0.0f);
    const ThreadPool::Stats before = GlobalThreadPool()->stats();
    nn::gemm::GemmNN(512, 64, 512, a.data(), b.data(), c.data());
    const ThreadPool::Stats after = GlobalThreadPool()->stats();
    EXPECT_GT(after.chunks_run - before.chunks_run, 1u);
  }
  SetGlobalThreads(threads_before);
}

// ------------------------------------------------- new-op gradient checks --

TEST(BatchedOpsGradTest, ConcatSliceTileOps) {
  Rng rng(21);
  Variable a(Tensor::RandomGaussian({3, 2}, 0.0f, 1.0f, &rng), true);
  Variable b(Tensor::RandomGaussian({3, 4}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        Variable cat = nn::ConcatFeatureList({a, b});  // [3, 6]
        return nn::MseLoss(nn::SliceCols(cat, 1, 4),
                           Tensor::Full({3, 4}, 0.1f));
      },
      {a, b});

  Variable r1(Tensor::RandomGaussian({2, 3}, 0.0f, 1.0f, &rng), true);
  Variable r2(Tensor::RandomGaussian({4, 3}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        Variable cat = nn::ConcatRows({r1, r2});  // [6, 3]
        return nn::MseLoss(nn::SliceRows(cat, 1, 4),
                           Tensor::Full({4, 3}, -0.2f));
      },
      {r1, r2});

  Variable flat1(Tensor::RandomGaussian({3}, 0.0f, 1.0f, &rng), true);
  Variable flat2(Tensor::RandomGaussian({2}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        Variable cat = nn::ConcatFlat({flat1, flat2});  // [5]
        return nn::MseLoss(cat, Tensor::Full({5}, 0.3f));
      },
      {flat1, flat2});

  Variable tiled(Tensor::RandomGaussian({2, 3}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        return nn::MseLoss(nn::TileRows(tiled, 3),
                           Tensor::Full({6, 3}, 0.4f));
      },
      {tiled});
}

TEST(BatchedOpsGradTest, BatchedMatMulAndAttentionOps) {
  Rng rng(22);
  Tensor fixed = Tensor::RandomGaussian({3, 2}, 0.0f, 1.0f, &rng);
  Variable x(Tensor::RandomGaussian({4, 5}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        // 2 blocks of [2 x 5] through the fixed [3 x 2] map.
        return nn::MseLoss(nn::BatchedFixedMatMul(fixed, x, 2),
                           Tensor::Full({6, 5}, 0.1f));
      },
      {x});

  Variable h(Tensor::RandomGaussian({4, 2, 3}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        return nn::MseLoss(nn::SumBatchBlocks(h, 2),
                           Tensor::Full({4, 3}, -0.1f));
      },
      {h});

  Variable e(Tensor::RandomGaussian({4, 3}, 0.0f, 1.0f, &rng), true);
  Variable emb(Tensor::RandomGaussian({2, 2}, 0.0f, 1.0f, &rng), true);
  nn::ExpectGradientsMatch(
      [&] {
        // blocks=2, c=2, t=3, m=2, de=2 -> [2*2*3, 4].
        return nn::MseLoss(nn::BatchedBuildAttentionInput(e, emb, 2),
                           Tensor::Full({12, 4}, 0.2f));
      },
      {e, emb});
}

// ----------------------------------------------------- fused LSTM parity --

TEST_F(GemmParityTest, FusedLstmForwardAndBackwardWidthParity) {
  Rng init(31);
  nn::Lstm lstm(3, 4, &init);
  std::vector<Tensor> inputs;
  Rng xr(32);
  for (int t = 0; t < 3; ++t) {
    inputs.push_back(Tensor::RandomGaussian({5, 3}, 0.0f, 1.0f, &xr));
  }
  const Tensor target = Tensor::Full({5, 4}, 0.2f);

  auto run = [&](int width) {
    nn::gemm::SetGemmVectorWidthForTesting(width);
    for (Variable& p : lstm.Parameters()) p.ZeroGrad();
    std::vector<Variable> xs;
    for (const Tensor& t : inputs) xs.emplace_back(t, false);
    std::vector<Variable> hs = lstm.Forward(xs);
    Variable loss = nn::MseLoss(hs.back(), target);
    loss.Backward();
    std::vector<Tensor> out;
    out.push_back(hs.back().value());
    for (Variable& p : lstm.Parameters()) out.push_back(p.grad());
    return out;
  };

  const std::vector<Tensor> ref = run(1);
  for (int width : {4, 8}) {
    const std::vector<Tensor> got = run(width);
    ASSERT_EQ(ref.size(), got.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      for (int j = 0; j < ref[i].numel(); ++j) {
        ASSERT_EQ(ref[i][j], got[i][j])
            << "width " << width << " tensor " << i << " element " << j;
      }
    }
  }
}

// ------------------------------------------------ batched recovery parity --

struct RecoverySetup {
  RecoverySetup()
      : ds(data::BuildDataset(data::Synthetic3x3Config())),
        train(core::GenerateTrainingData(ds, 3, 42)) {
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    observed = core::SimulateGroundTruth(ds, 4242);
  }

  // Trains a fresh model (deterministically) and recovers with the given
  // restart batching mode and kernel width.
  od::TodTensor Recover(bool batch_restarts, int width) {
    nn::gemm::SetGemmVectorWidthForTesting(width);
    Rng rng(9);
    core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                         ds.incidence, config, &rng);
    core::TrainerConfig tc;
    tc.stage1_epochs = 8;
    tc.stage2_epochs = 8;
    tc.recovery_epochs = 12;
    tc.recovery_restarts = 3;
    tc.batch_restarts = batch_restarts;
    core::OvsTrainer trainer(&model, tc);
    CHECK_OK(trainer.TrainVolumeSpeed(train).status());
    CHECK_OK(trainer.TrainTodVolume(train).status());
    Rng recover_rng(31);
    od::TodTensor tod =
        trainer.RecoverTod(observed.speed, nullptr, &recover_rng).value();
    nn::gemm::SetGemmVectorWidthForTesting(0);
    return tod;
  }

  data::Dataset ds;
  core::TrainingData train;
  core::OvsConfig config;
  core::TrainingSample observed;
};

void ExpectTodBitwiseEqual(const od::TodTensor& a, const od::TodTensor& b,
                           const char* what) {
  ASSERT_EQ(a.mat().rows(), b.mat().rows());
  ASSERT_EQ(a.mat().cols(), b.mat().cols());
  for (int i = 0; i < a.mat().rows(); ++i) {
    for (int t = 0; t < a.mat().cols(); ++t) {
      ASSERT_EQ(a.mat().at(i, t), b.mat().at(i, t))
          << what << ": cell (" << i << ", " << t << ")";
    }
  }
}

TEST_F(GemmParityTest, BatchedRecoveryMatchesLegacyBitwise) {
  // The tentpole equivalence: one stacked [R*N_od x T] graph per epoch
  // (batch_restarts=true, the default) against R independent per-restart
  // graphs (legacy path). Same seeds, same winner, same bits.
  RecoverySetup setup;
  const od::TodTensor batched = setup.Recover(/*batch_restarts=*/true, 0);
  const od::TodTensor legacy = setup.Recover(/*batch_restarts=*/false, 0);
  ExpectTodBitwiseEqual(batched, legacy, "batched vs legacy");
}

TEST_F(GemmParityTest, BatchedRecoveryWidthParity) {
  RecoverySetup setup;
  const od::TodTensor scalar = setup.Recover(/*batch_restarts=*/true, 1);
  const od::TodTensor sse = setup.Recover(/*batch_restarts=*/true, 4);
  const od::TodTensor avx = setup.Recover(/*batch_restarts=*/true, 8);
  ExpectTodBitwiseEqual(scalar, sse, "width 1 vs 4");
  ExpectTodBitwiseEqual(scalar, avx, "width 1 vs 8");
}

// ------------------------------------------------------ pinned outputs --

// A small graph touching the main op families (conv, activations, matmul,
// bias, softmax, losses), run forward and backward. The loss and both input
// gradients must reproduce pinned bits. They were pinned from the shipped
// ops, which then matched the pre-rewrite op layer bitwise: the rewrite
// changed memory access and kernel blocking, never arithmetic order.
TEST_F(GemmParityTest, ReferenceOpsGraphBitwiseIdentical) {
  constexpr uint32_t kLossBits = 0x3efc6dafu;
  constexpr uint64_t kGradXHash = 0x976a6a1a6002f43full;
  constexpr uint64_t kGradWHash = 0x39b5d41eab727148ull;
  Rng rng(55);
  Variable x(Tensor::RandomUniform({3, 2, 12}, -1, 1, &rng), true);
  Variable w(Tensor::RandomUniform({4, 2, 3}, -1, 1, &rng), true);
  Variable b(Tensor::RandomUniform({4}, -1, 1, &rng), true);
  Variable m(Tensor::RandomUniform({4, 5}, -1, 1, &rng), true);
  Tensor target = Tensor::RandomUniform({12, 5}, 0, 1, &rng);
  Variable conv = nn::Relu(nn::Conv1dBatch(x, w, b));
  Variable flat = nn::Reshape(nn::SumBatchBlocks(conv, 1), {12, 4});
  Variable h = nn::SoftmaxRows(nn::Sigmoid(flat));
  Variable pred = nn::Tanh(nn::MatMul(nn::ConcatFeatures(h, flat),
                                      nn::ConcatRows({m, m})));
  Variable loss = nn::Add(nn::HuberLoss(pred, target, 0.4f),
                          nn::MseLoss(nn::Mul(pred, pred), target));
  loss.Backward();
  const float loss_value = loss.value()[0];
  uint32_t loss_bits;
  std::memcpy(&loss_bits, &loss_value, sizeof(loss_bits));
  char actual[160];
  std::snprintf(actual, sizeof(actual),
                "kLossBits = 0x%08" PRIx32
                "u; kGradXHash = %s; kGradWHash = %s",
                loss_bits, HexLiteral(HashTensor(x.grad())).c_str(),
                HexLiteral(HashTensor(w.grad())).c_str());
  EXPECT_EQ(loss_bits, kLossBits) << "actual: " << actual;
  EXPECT_EQ(HashTensor(x.grad()), kGradXHash) << "actual: " << actual;
  EXPECT_EQ(HashTensor(w.grad()), kGradWHash) << "actual: " << actual;
}

TEST_F(GemmParityTest, ReferenceRecoveryMatchesShippedWithinTolerance) {
  // The shipped recovery (batched restarts, blocked kernels, fused LSTM
  // gates) must reproduce a pinned hash of its recovered TOD bitwise. When
  // pinned, it agreed with the pre-rewrite path (legacy restart loop, naive
  // kernels, unfused gates) to 1e-4 relative; the pin is stricter than that
  // tolerance.
  constexpr uint64_t kRecoveredTodHash = 0xb9fcb0420252c27aull;
  RecoverySetup setup;
  const od::TodTensor shipped = setup.Recover(/*batch_restarts=*/true, 0);
  const uint64_t hash = Fnv1a(shipped.mat().data(),
                              sizeof(double) * shipped.mat().numel());
  EXPECT_EQ(hash, kRecoveredTodHash)
      << "recovered TOD changed; actual: " << HexLiteral(hash);
}

}  // namespace
}  // namespace ovs
