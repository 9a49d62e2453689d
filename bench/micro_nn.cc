// Substrate microbenchmarks: autodiff op throughput and whole-model
// iteration cost of the OVS networks.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "nn/gemm.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "util/bench_config.h"
#include "util/thread_pool.h"

namespace {

/// Heap allocations made by this process so far, counted by the replacement
/// global operator new below. Only this bench binary replaces the
/// allocator; the library stays uninstrumented.
std::atomic<uint64_t> g_heap_allocs{0};

}  // namespace

// Kept out of line so the compiler pairs each call site's new with delete
// rather than seeing the malloc/free inside them.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace ovs;
using namespace ovs::nn;

void BM_MatMulForwardBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  Variable a(Tensor::RandomUniform({n, n}, -1, 1, &rng), true);
  Variable b(Tensor::RandomUniform({n, n}, -1, 1, &rng), true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Variable loss = Sum(MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  state.counters["flops"] = benchmark::Counter(
      3.0 * 2.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MatMulForwardBackward)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

// Same kernel at a fixed 256x256 size with an explicit pool size, to measure
// thread-pool speedup (compare threads:1 vs threads:4 rows). Results are
// bitwise-identical across thread counts; only wall time changes.
void BM_MatMulThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SetGlobalThreads(threads);
  const int n = 256;
  Rng rng(1);
  Variable a(Tensor::RandomUniform({n, n}, -1, 1, &rng), true);
  Variable b(Tensor::RandomUniform({n, n}, -1, 1, &rng), true);
  for (auto _ : state) {
    a.ZeroGrad();
    b.ZeroGrad();
    Variable loss = Sum(MatMul(a, b));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  state.counters["flops"] = benchmark::Counter(
      3.0 * 2.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
  state.counters["threads"] = threads;
  SetGlobalThreads(1);
}
BENCHMARK(BM_MatMulThreaded)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// One raw GemmNN product through the blocked kernel: the kernel's
// throughput in isolation from autodiff overhead.
void BM_GemmKernel(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Tensor a = Tensor::RandomUniform({n, n}, -1, 1, &rng);
  Tensor b = Tensor::RandomUniform({n, n}, -1, 1, &rng);
  std::vector<float> c(static_cast<size_t>(n) * n, 0.0f);
  for (auto _ : state) {
    gemm::GemmNN(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c[0]);
  }
  state.counters["flops"] = benchmark::Counter(
      2.0 * n * n * n * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmKernel)->Arg(64)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_LstmSequence(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Rng rng(2);
  Lstm lstm(1, 32, &rng);
  std::vector<Tensor> inputs;
  for (int t = 0; t < 12; ++t) {
    inputs.push_back(Tensor::RandomUniform({batch, 1}, 0, 1, &rng));
  }
  for (auto _ : state) {
    lstm.ZeroGrad();
    std::vector<Variable> xs;
    for (const Tensor& in : inputs) xs.emplace_back(in);
    std::vector<Variable> hs = lstm.Forward(xs);
    Variable loss = Sum(Mul(hs.back(), hs.back()));
    loss.Backward();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
}
BENCHMARK(BM_LstmSequence)->Arg(24)->Arg(180)->Arg(360)
    ->Unit(benchmark::kMillisecond);

void BM_OvsFullIteration(benchmark::State& state) {
  const int links = static_cast<int>(state.range(0));
  const int n_od = links / 3;
  const int t_count = 12;
  Rng rng(3);
  DMat incidence(links, n_od);
  for (int i = 0; i < n_od; ++i) {
    for (int k = 0; k < 4; ++k) {
      incidence.at(rng.UniformInt(0, links - 1), i) = 1.0;
    }
  }
  core::OvsConfig config;
  core::OvsModel model(n_od, links, t_count, incidence, config, &rng);
  Adam opt(model.Parameters(), 1e-3f);
  Tensor target = Tensor::RandomUniform({links, t_count}, 0, 1, &rng);
  for (auto _ : state) {
    opt.ZeroGrad();
    Variable v = model.ForwardSpeed();
    Variable loss = MseLoss(ScalarMul(v, 1.0f / config.speed_scale), target);
    loss.Backward();
    opt.Step();
    benchmark::DoNotOptimize(loss.value()[0]);
  }
  state.counters["params"] = model.NumParameters();
}
BENCHMARK(BM_OvsFullIteration)->Arg(24)->Arg(126)->Arg(360)
    ->Unit(benchmark::kMillisecond);

// The full RecoverTod multi-restart path at R=8 restarts on one thread:
// blocked SIMD kernels and batched lockstep restarts.
void BM_RecoveryRestarts(benchmark::State& state) {
  SetGlobalThreads(1);
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::TrainingData train = core::GenerateTrainingData(ds, 3, 42);
  core::OvsConfig config;
  config.lstm_hidden = 8;
  config.speed_head_hidden = 8;
  config.tod_scale = static_cast<float>(train.tod_scale);
  config.volume_norm = static_cast<float>(train.volume_norm);
  config.speed_scale = static_cast<float>(train.speed_scale);
  core::TrainingSample observed = core::SimulateGroundTruth(ds, 4242);
  Rng rng(9);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, config, &rng);
  core::TrainerConfig tc;
  tc.recovery_epochs = 8;
  tc.recovery_restarts = 8;
  for (auto _ : state) {
    core::OvsTrainer trainer(&model, tc);
    trainer.PrimeRecoveryPrior(train);
    Rng recover_rng(31);
    od::TodTensor tod =
        trainer.RecoverTod(observed.speed, nullptr, &recover_rng).value();
    benchmark::DoNotOptimize(tod.at(0, 0));
  }
  state.counters["restarts"] = tc.recovery_restarts;
}
BENCHMARK(BM_RecoveryRestarts)->Unit(benchmark::kMillisecond);

// One recovery epoch on the serve city's shapes (synthetic3x3 with the small
// model the serve_open workload trains, one restart) on one thread, through
// the frozen modules 2-3: generator forward, the batched TOD->volume and
// volume->speed mappings, the MSE to an observation, and Backward. Besides
// the time it reports the epoch's heap allocations as the run-report counter
// `bench.recovery_epoch.heap_allocs`. An untimed warm-up epoch allocates the
// generator's gradients first, so the count is the steady state.
void BM_RecoveryEpoch(benchmark::State& state) {
  SetGlobalThreads(1);
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::OvsConfig config;
  config.lstm_hidden = 8;
  config.speed_head_hidden = 8;
  Rng rng(9);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, config, &rng);
  model.tod_volume().SetTrainable(false);
  model.volume_speed().SetTrainable(false);
  const Tensor target =
      Tensor::Full({ds.num_links(), ds.num_intervals()}, 0.5f);
  auto epoch = [&] {
    model.tod_generation().ZeroGrad();
    Variable g = model.GenerateTod();
    Variable q = model.VolumeFromTodBatched(g, /*blocks=*/1);
    Variable v = model.SpeedFromVolumeBatched(q, /*blocks=*/1);
    Variable loss = MseLoss(ScalarMul(v, 1.0f / config.speed_scale), target);
    loss.Backward();
    return loss.value()[0];
  };
  benchmark::DoNotOptimize(epoch());
  uint64_t allocs = 0;
  for (auto _ : state) {
    const uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    benchmark::DoNotOptimize(epoch());
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  const uint64_t per_epoch =
      allocs / static_cast<uint64_t>(state.iterations());
  state.counters["heap_allocs"] = static_cast<double>(per_epoch);
  OVS_COUNTER_ADD("bench.recovery_epoch.heap_allocs", per_epoch);
}
BENCHMARK(BM_RecoveryEpoch)->Unit(benchmark::kMicrosecond);

void BM_AdamStep(benchmark::State& state) {
  Rng rng(4);
  std::vector<Variable> params;
  for (int i = 0; i < 10; ++i) {
    Variable p(Tensor::RandomUniform({100, 100}, -1, 1, &rng), true);
    p.ZeroGrad();
    params.push_back(p);
  }
  Adam opt(params, 1e-3f);
  for (auto _ : state) {
    opt.Step();
  }
}
BENCHMARK(BM_AdamStep)->Unit(benchmark::kMicrosecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): parse the shared bench flags
// (--report_out, --trace_out, ...), hide them from google-benchmark's own
// parser, and wrap the run in an obs::Session so the binary emits a run
// report. In report mode every benchmark is pinned to exactly one iteration
// (--benchmark_min_time=0 makes the first trial satisfy the time check), so
// the work counters in the report are machine-independent.
int main(int argc, char** argv) {
  using namespace ovs;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  std::vector<std::string> kept;
  kept.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (!IsBenchArg(argv[i])) kept.emplace_back(argv[i]);
  }
  if (!args.report_out.empty()) kept.emplace_back("--benchmark_min_time=0");
  std::vector<char*> bargv;
  bargv.reserve(kept.size());
  for (std::string& arg : kept) bargv.push_back(arg.data());
  int bargc = static_cast<int>(bargv.size());
  benchmark::Initialize(&bargc, bargv.data());
  if (benchmark::ReportUnrecognizedArguments(bargc, bargv.data())) return 1;
  obs::Session session(obs::MakeBenchSessionOptions(args, argv[0]));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return session.Close() ? 0 : 1;
}
