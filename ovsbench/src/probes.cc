// Measured phases and traced-run helpers shared by the workloads.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/training_data.h"
#include "data/dataset.h"
#include "stats.h"
#include "workloads.h"

namespace ovsbench {

using namespace ovs;

namespace {

bool AllFinite(const DMat& m) {
  for (int i = 0; i < m.numel(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return m.numel() > 0;
}

bool BitwiseEqual(const DMat& a, const DMat& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.numel()) == 0;
}

/// Runs `fn` on a pool of one thread, then restores the run's pool size.
template <typename Fn>
auto AtPoolOne(Fn fn) {
  const int threads = GlobalThreadCount();
  SetGlobalThreads(1);
  auto out = fn();
  SetGlobalThreads(threads);
  return out;
}

void Samples(const std::string& metric, std::vector<double> ms,
             const std::string& what) {
  if (ms.empty()) return;
  std::sort(ms.begin(), ms.end());
  std::string spread;
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    spread += ' ';
    spread += std::to_string(ms[static_cast<size_t>(q * (ms.size() - 1))]);
  }
  Progress(metric + ": from " + std::to_string(ms.size()) + " " + what +
           "; min/q1/median/q3/max ms" + spread);
}

}  // namespace

double Lowest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Highest(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

// --- RecoverySeries -----------------------------------------------------------

void RecoverySeries::Run(const Args& args, int calls, Report* report) {
  for (int i = 0; i < calls; ++i) {
    const size_t k = runs.size();
    report->Attempt();
    runs.push_back(Recover(*city, observed[k % observed.size()],
                           static_cast<uint32_t>(args.seed + k), epochs,
                           restarts));
    const RecoveryRun& run = runs.back();
    if (!run.status.ok()) {
      report->Fail("RecoverTod: " + run.status.ToString());
    } else if (!AllFinite(run.tod)) {
      report->Fail("recovered TOD has non-finite cells");
    }
  }
}

void RecoverySeries::Finish(const Args& args, Report* report) const {
  std::vector<double> recover_ms, prime_ms;
  for (const RecoveryRun& run : runs) {
    if (!run.status.ok()) continue;
    recover_ms.push_back(run.recover_ms);
    prime_ms.push_back(run.prime_ms);
  }
  if (!report->Has("recover_s")) {
    report->RequireSamples("recover_s", recover_ms.size());
    // Every call does the same work, so the fastest is its cost with the
    // machine to itself; a median follows the share of calls a busy
    // neighbour slowed (see README, "Best times and medians").
    report->Set("recover_s",
                *std::min_element(recover_ms.begin(), recover_ms.end()) * 1e-3,
                "s");
    Samples("recover_s", recover_ms, "RecoverTod calls");
  }

  // A short fit is enough to show the pool size changes no bit.
  constexpr int kCheckEpochs = 3;
  const uint32_t seed = static_cast<uint32_t>(args.seed);
  const DMat& obs = observed[0];
  const RecoveryRun parallel = Recover(*city, obs, seed, kCheckEpochs, restarts);
  const RecoveryRun serial = AtPoolOne(
      [&] { return Recover(*city, obs, seed, kCheckEpochs, restarts); });
  if (!parallel.status.ok() || !serial.status.ok() ||
      !BitwiseEqual(serial.tod, parallel.tod) || serial.loss != parallel.loss) {
    report->Fail("recovery differs between pool 1 and pool " +
                        std::to_string(GlobalThreadCount()));
  }
  if (!args.trace) return;
  report->SetDefault("core.prime_prior_ms", Median(prime_ms), "ms");
  if (!runs.empty() && runs[0].status.ok()) {
    const RecoveryRun full =
        AtPoolOne([&] { return Recover(*city, obs, seed, epochs, restarts); });
    report->SetDefault("core.recover_speedup",
                       full.recover_ms / runs[0].recover_ms, "x");
  }
  const NnTiming nn = TimeNn(*city, restarts, 20);
  report->SetDefault("nn.forward_ms", nn.forward_ms, "ms");
  report->SetDefault("nn.backward_ms", nn.backward_ms, "ms");
  report->SetDefault("nn.gemm_flops", nn.gemm_flops, "flop");
  report->SetDefault("nn.gflops",
                     nn.gemm_flops / ((nn.forward_ms + nn.backward_ms) * 1e6),
                     "GFLOP/s");
}

// --- ScenarioSeries -----------------------------------------------------------

void ScenarioSeries::Run(const Args& args, int count, Report* report) {
  for (int i = 0; i < count; ++i) {
    const size_t k = runs.size() % tods.size();
    report->Attempt();
    runs.push_back(RunScenario(*dataset, tods[k], args.seed * 131 + k, works[k]));
    const ScenarioRun& run = runs.back();
    if (run.spawned != run.completed + run.active) {
      report->Fail("trips not conserved: spawned " +
                          std::to_string(run.spawned) + " != completed " +
                          std::to_string(run.completed) + " + active " +
                          std::to_string(run.active));
    }
  }
}

void ScenarioSeries::Finish(const Args& args, Report* report) const {
  std::vector<double> scenario_ms, demand_ms, run_ms;
  double run_ms_total = 0.0, vehicle_steps = 0.0, unspawned = 0.0;
  for (const ScenarioRun& run : runs) {
    scenario_ms.push_back(run.demand_ms + run.run_ms);
    demand_ms.push_back(run.demand_ms);
    run_ms.push_back(run.run_ms);
    run_ms_total += run.run_ms;
    vehicle_steps += static_cast<double>(run.vehicle_steps);
    unspawned += run.unspawned;
  }
  if (!report->Has("simulate_s")) {
    report->RequireSamples("simulate_s", scenario_ms.size());
    // Each draw is simulated several times with the same inputs; its
    // fastest run is its cost, and simulate_s is the mean over the draws.
    std::vector<double> best(std::min(tods.size(), scenario_ms.size()));
    for (size_t i = 0; i < scenario_ms.size(); ++i) {
      double& b = best[i % tods.size()];
      b = i < best.size() ? scenario_ms[i] : std::min(b, scenario_ms[i]);
    }
    double best_sum = 0.0;
    for (double b : best) best_sum += b;
    report->Set("simulate_s", best_sum / best.size() * 1e-3, "s");
    Samples("simulate_s", scenario_ms, "scenarios");
  }

  // Volumes and speeds must not depend on the pool size.
  const ScenarioRun serial = AtPoolOne(
      [&] { return RunScenario(*dataset, tods[0], args.seed * 131, works[0]); });
  if (serial.checksum != runs[0].checksum) {
    report->Fail("volume/speed checksum differs between pool 1 and pool " +
                        std::to_string(GlobalThreadCount()));
  }
  if (!args.trace) return;
  const double n = static_cast<double>(runs.size());
  report->SetDefault("sim.run_ms", Median(run_ms), "ms");
  report->SetDefault("sim.vehicle_steps", vehicle_steps / n, "count");
  report->SetDefault("sim.vehicle_steps_per_s",
                     vehicle_steps / (run_ms_total * 1e-3), "1/s");
  report->SetDefault("sim.unspawned_trips", unspawned / n, "count");
  report->SetDefault("od.demand_ms", Median(demand_ms), "ms");
  report->SetDefault("sim.speedup", serial.run_ms / runs[0].run_ms, "x");
}

// --- Traced-run helpers -------------------------------------------------------

void TimeOnboardingLayers(const data::DatasetConfig& config, int samples,
                          uint64_t seed, Report* report) {
  Timed build("bench.data.build_dataset");
  const data::Dataset dataset = data::BuildDataset(config);
  report->SetDefault("data.build_ms", build.ms(), "ms");
  Timed datagen("bench.core.generate_training_data");
  const core::TrainingData train =
      core::GenerateTrainingData(dataset, samples, seed);
  report->SetDefault("core.datagen_s", datagen.ms() * 1e-3, "s");
}

void MeasureTraceOverhead(const std::function<void()>& op, int reps,
                          Report* report) {
  std::vector<double> off, on;
  for (int i = 0; i < reps; ++i) {
    for (bool traced : {false, true}) {
      if (traced) obs::StartTracing();
      const Clock::time_point t0 = Clock::now();
      op();
      (traced ? on : off).push_back(MsSince(t0));
      if (traced) obs::StopTracing();
    }
  }
  report->Set("obs.trace_overhead_frac", Median(on) / Median(off) - 1.0,
              "frac");
}

void ReportPool(const PoolDelta& pool, Report* report) {
  double idle = 0.0;
  uint64_t fors = 0, chunks = 0;
  pool.Finish(&idle, &fors, &chunks);
  report->SetDefault("pool.idle_frac", idle, "frac");
  report->SetDefault("pool.parallel_fors", static_cast<double>(fors), "count");
  report->SetDefault("pool.chunks", static_cast<double>(chunks), "count");
}

void FinishRun(Report* report) {
  report->Set("peak_rss_mb", PeakRssMb(), "MiB");
  report->Set("error_frac", ErrorFrac(report->attempted(), report->failed()),
              "frac");
  report->SetDefault("core.guard_retries",
                     static_cast<double>(CounterValue("trainer.guard.retries")),
                     "count");
  report->SetDefault(
      "core.diverged_restarts",
      static_cast<double>(CounterValue("trainer.recover.diverged_restarts")),
      "count");
}

}  // namespace ovsbench
