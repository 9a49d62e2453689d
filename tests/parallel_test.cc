// Determinism of the threaded hot paths: the results of training, recovery,
// and the underlying GEMMs must be bitwise-identical regardless of the
// global thread-pool size. Each scenario is run at 1 thread and at 4 threads
// from identical seeds and compared exactly (EXPECT_EQ on floats — no
// tolerance).

#include <tuple>
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "nn/convert.h"
#include "nn/ops.h"
#include "sim/engine.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

// Restores the global pool size on scope exit so test order does not matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

// ------------------------------------------------------------------ GEMMs --

struct MatMulRun {
  nn::Tensor value;
  nn::Tensor grad_a;
  nn::Tensor grad_b;
};

MatMulRun RunMatMul(int threads, std::vector<int> a_shape,
                    std::vector<int> b_shape) {
  ThreadGuard guard(threads);
  Rng rng(99);
  nn::Variable a(nn::Tensor::RandomUniform(std::move(a_shape), -1, 1, &rng),
                 true);
  nn::Variable b(nn::Tensor::RandomUniform(std::move(b_shape), -1, 1, &rng),
                 true);
  a.ZeroGrad();
  b.ZeroGrad();
  nn::Variable c = nn::MatMul(a, b);
  nn::Sum(nn::Mul(c, c)).Backward();
  return {c.value(), a.grad(), b.grad()};
}

void ExpectTensorsIdentical(const nn::Tensor& x, const nn::Tensor& y,
                            const std::string& what) {
  ASSERT_EQ(x.numel(), y.numel()) << what;
  for (int i = 0; i < x.numel(); ++i) {
    ASSERT_EQ(x[i], y[i]) << what << " element " << i;
  }
}

TEST(ParallelDeterminismTest, MatMulForwardBackwardBitwiseIdentical) {
  // Non-square shapes so row/col/inner dims all differ; big enough that the
  // 4-thread run actually splits into multiple chunks.
  const std::vector<std::pair<std::vector<int>, std::vector<int>>> shapes = {
      {{64, 96}, {96, 48}},   // wide inner dim
      {{1, 80}, {80, 33}},    // single output row
      {{130, 7}, {7, 130}},   // skinny inner dim
  };
  for (const auto& [a_shape, b_shape] : shapes) {
    MatMulRun serial = RunMatMul(1, a_shape, b_shape);
    MatMulRun threaded = RunMatMul(4, a_shape, b_shape);
    ExpectTensorsIdentical(serial.value, threaded.value, "forward");
    ExpectTensorsIdentical(serial.grad_a, threaded.grad_a, "grad a");
    ExpectTensorsIdentical(serial.grad_b, threaded.grad_b, "grad b");
  }
}

TEST(ParallelDeterminismTest, FixedMatMulBitwiseIdentical) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    Rng rng(5);
    nn::Tensor a = nn::Tensor::RandomUniform({90, 40}, -1, 1, &rng);
    nn::Variable x(nn::Tensor::RandomUniform({40, 70}, -1, 1, &rng), true);
    x.ZeroGrad();
    nn::Variable y = nn::BatchedFixedMatMul(a, x, 1);
    nn::Sum(nn::Mul(y, y)).Backward();
    return std::make_pair(y.value(), x.grad());
  };
  auto [v1, g1] = run(1);
  auto [v4, g4] = run(4);
  ExpectTensorsIdentical(v1, v4, "forward");
  ExpectTensorsIdentical(g1, g4, "grad x");
}

// --------------------------------------------------------------- Training --

struct TrainingRun {
  std::vector<double> stage1;
  std::vector<double> stage2;
  std::vector<std::pair<std::string, nn::Tensor>> params;
  DMat recovered;
  double recovery_loss = 0.0;
};

// Full pipeline from fixed seeds: stage-1, stage-2, then a 2-restart
// recovery. Everything downstream of the thread count must be identical.
TrainingRun RunPipeline(int threads) {
  ThreadGuard guard(threads);
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::TrainingData train = core::GenerateTrainingData(ds, 4, 42);

  Rng rng(3);
  core::OvsConfig config;
  config.lstm_hidden = 8;
  config.speed_head_hidden = 8;
  config.tod_scale = static_cast<float>(train.tod_scale);
  config.volume_norm = static_cast<float>(train.volume_norm);
  config.speed_scale = static_cast<float>(train.speed_scale);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, config, &rng);
  core::TrainerConfig tc;
  tc.stage1_epochs = 12;
  tc.stage2_epochs = 12;
  tc.recovery_epochs = 20;
  tc.recovery_restarts = 2;
  core::OvsTrainer trainer(&model, tc);

  TrainingRun run;
  run.stage1 = trainer.TrainVolumeSpeed(train).value();
  run.stage2 = trainer.TrainTodVolume(train).value();
  core::TrainingSample gt = core::SimulateGroundTruth(ds, 4242);
  run.recovered = trainer.RecoverTod(gt.speed, nullptr, &rng).value().mat();
  run.recovery_loss = trainer.last_recovery_loss();
  for (const auto& [name, p] : model.NamedParameters()) {
    run.params.emplace_back(name, p.value());
  }
  return run;
}

TEST(ParallelDeterminismTest, TrainingAndRecoveryBitwiseIdentical) {
  TrainingRun serial = RunPipeline(1);
  TrainingRun threaded = RunPipeline(4);

  // Loss curves, element by element, exact.
  ASSERT_EQ(serial.stage1.size(), threaded.stage1.size());
  for (size_t i = 0; i < serial.stage1.size(); ++i) {
    ASSERT_EQ(serial.stage1[i], threaded.stage1[i]) << "stage1 epoch " << i;
  }
  ASSERT_EQ(serial.stage2.size(), threaded.stage2.size());
  for (size_t i = 0; i < serial.stage2.size(); ++i) {
    ASSERT_EQ(serial.stage2[i], threaded.stage2[i]) << "stage2 epoch " << i;
  }

  // Every named parameter of the full model, exact.
  ASSERT_EQ(serial.params.size(), threaded.params.size());
  for (size_t i = 0; i < serial.params.size(); ++i) {
    ASSERT_EQ(serial.params[i].first, threaded.params[i].first);
    ExpectTensorsIdentical(serial.params[i].second, threaded.params[i].second,
                           serial.params[i].first);
  }

  // The recovered TOD tensor and its final loss, exact.
  ASSERT_EQ(serial.recovery_loss, threaded.recovery_loss);
  ASSERT_EQ(serial.recovered.rows(), threaded.recovered.rows());
  ASSERT_EQ(serial.recovered.cols(), threaded.recovered.cols());
  for (int i = 0; i < serial.recovered.rows(); ++i) {
    for (int j = 0; j < serial.recovered.cols(); ++j) {
      ASSERT_EQ(serial.recovered.at(i, j), threaded.recovered.at(i, j))
          << "recovered TOD (" << i << "," << j << ")";
    }
  }
}

// A 1-restart recovery must also match: restart 0 reuses the generator's
// current seeds, so the concurrent-restart code path reproduces the original
// serial recovery exactly.
TEST(ParallelDeterminismTest, SingleRestartMatchesAcrossThreadCounts) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
    core::TrainingData train = core::GenerateTrainingData(ds, 3, 7);
    Rng rng(11);
    core::OvsConfig config;
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                         ds.incidence, config, &rng);
    core::TrainerConfig tc;
    tc.stage1_epochs = 8;
    tc.stage2_epochs = 8;
    tc.recovery_epochs = 15;
    tc.recovery_restarts = 1;
    core::OvsTrainer trainer(&model, tc);
    std::ignore = trainer.TrainVolumeSpeed(train);
    std::ignore = trainer.TrainTodVolume(train);
    core::TrainingSample gt = core::SimulateGroundTruth(ds, 4242);
    return trainer.RecoverTod(gt.speed, nullptr, &rng).value().mat();
  };
  DMat serial = run(1);
  DMat threaded = run(4);
  for (int i = 0; i < serial.rows(); ++i) {
    for (int j = 0; j < serial.cols(); ++j) {
      ASSERT_EQ(serial.at(i, j), threaded.at(i, j));
    }
  }
}

// -------------------------------------------------------------- Simulator --

// Direct Simulate() comparison: the sensor pair is bitwise-identical at 1 vs
// 4 threads (golden hashes over more scenarios and pool sizes live in
// sim_determinism_test.cc; this is the pipeline-level smoke).
TEST(ParallelDeterminismTest, SimulateBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    ThreadGuard guard(threads);
    sim::RoadNet net = sim::MakeGridNetwork(4, 4, 250.0, 2, 13.89);
    sim::Router router(&net);
    Rng rng(31);
    sim::EngineConfig config;
    config.duration_s = 900.0;
    config.interval_s = 300.0;
    std::vector<sim::TripRequest> trips;
    for (int i = 0; i < 300; ++i) {
      const int o = rng.UniformInt(0, net.num_intersections() - 1);
      const int d = rng.UniformInt(0, net.num_intersections() - 1);
      if (o == d) continue;
      trips.push_back({rng.Uniform(0.0, 600.0),
                       router.CachedRoute(o, d).value()});
    }
    return sim::Simulate(net, config, trips);
  };
  const sim::SensorData reference = run(1);
  for (int threads : {1, 4}) {
    const sim::SensorData got = run(threads);
    ASSERT_EQ(reference.volume.rows(), got.volume.rows());
    for (int l = 0; l < reference.volume.rows(); ++l) {
      for (int t = 0; t < reference.volume.cols(); ++t) {
        ASSERT_EQ(reference.volume.at(l, t), got.volume.at(l, t))
            << "volume (" << l << "," << t << ") @" << threads;
        ASSERT_EQ(reference.speed.at(l, t), got.speed.at(l, t))
            << "speed (" << l << "," << t << ") @" << threads;
      }
    }
    EXPECT_EQ(reference.spawned_trips, got.spawned_trips);
    EXPECT_EQ(reference.completed_trips, got.completed_trips);
    EXPECT_EQ(reference.mean_travel_time_s, got.mean_travel_time_s);
  }
}

void ExpectMatsBitwiseEqual(const DMat& a, const DMat& b,
                            const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(double) * a.rows() * a.cols()),
            0)
      << what << ": matrices differ at the bit level";
}

void ExpectSamplesBitwiseEqual(const core::TrainingSample& a,
                               const core::TrainingSample& b,
                               const std::string& what) {
  ExpectMatsBitwiseEqual(a.tod.mat(), b.tod.mat(), what + " tod");
  ExpectMatsBitwiseEqual(a.volume, b.volume, what + " volume");
  ExpectMatsBitwiseEqual(a.speed, b.speed, what + " speed");
}

// End-to-end: simulator -> training data -> one stage-1 epoch, at pool sizes
// 1, 2 and 4. GenerateTrainingData simulates its samples concurrently in
// waves of pool size; five samples leave the last wave partly filled at 2
// and 4 threads. Each sample must also equal a lone SimulateTod of its TOD on
// seed + 1000 + i, which pins the per-sample seed whatever the scheduling.
TEST(ParallelDeterminismTest, SimToStage1EpochBitwiseIdentical) {
  constexpr int kSamples = 5;
  constexpr uint64_t kSeed = 97;
  const data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  auto run = [&](int threads) {
    ThreadGuard guard(threads);
    core::TrainingData train = core::GenerateTrainingData(ds, kSamples, kSeed);
    Rng rng(13);
    core::OvsConfig config;
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                         ds.incidence, config, &rng);
    core::TrainerConfig tc;
    tc.stage1_epochs = 1;
    core::OvsTrainer trainer(&model, tc);
    const std::vector<double> losses = trainer.TrainVolumeSpeed(train).value();
    return std::make_pair(train, losses);
  };
  const auto [train1, losses1] = run(1);
  ASSERT_EQ(train1.samples.size(), static_cast<size_t>(kSamples));
  for (size_t i = 0; i < train1.samples.size(); ++i) {
    const core::TrainingSample lone =
        core::SimulateTod(ds, train1.samples[i].tod, kSeed + 1000 + i);
    ExpectSamplesBitwiseEqual(
        lone, train1.samples[i],
        "lone SimulateTod vs sample " + std::to_string(i));
  }

  for (const int threads : {2, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto [train, losses] = run(threads);
    // The simulated training tensors themselves, exact.
    ASSERT_EQ(train1.samples.size(), train.samples.size());
    for (size_t i = 0; i < train1.samples.size(); ++i) {
      ExpectSamplesBitwiseEqual(train1.samples[i], train.samples[i],
                                "sample " + std::to_string(i));
    }
    ASSERT_EQ(train1.tod_scale, train.tod_scale);
    ASSERT_EQ(train1.volume_norm, train.volume_norm);
    ASSERT_EQ(train1.speed_scale, train.speed_scale);

    // And the first training epoch on top of them.
    ASSERT_EQ(losses1.size(), losses.size());
    for (size_t e = 0; e < losses1.size(); ++e) {
      ASSERT_EQ(losses1[e], losses[e]) << "stage1 epoch " << e;
    }
  }
}

}  // namespace
}  // namespace ovs
