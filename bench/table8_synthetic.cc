// Reproduces Table VIII: RMSE of the seven methods on the five synthetic TOD
// patterns (Random / Increasing / Decreasing / Gaussian / Poisson) on the
// 3x3 network, 2-hour horizon, 10-minute intervals.
//
// Per the paper's protocol the hidden test tensor follows one pattern per
// column; methods train only on generated data.
//
// --sensor_fault=SPEC (e.g. dropout:0.3 or dropout:0.2,noise:1.0) corrupts
// the observed speed every method recovers from; scoring stays against the
// clean hidden truth. A fault run additionally asserts every tabulated RMSE
// is finite and prints a "[table8] fault run: all RMSE finite" marker (the
// CI fault-sweep smoke job greps for it).

#include <cmath>
#include <cstdio>

#include "data/cities.h"
#include "eval/harness.h"
#include "obs/report.h"
#include "obs/session.h"
#include "od/patterns.h"
#include "sim/sensor_faults.h"
#include "util/bench_config.h"

int main(int argc, char** argv) {
  using namespace ovs;
  const BenchArgs args = ParseBenchArgs(argc, argv);
  obs::Session session(obs::MakeBenchSessionOptions(args, argv[0]));
  const int train_samples = ScaledIters(12, 40);

  sim::SensorFaultConfig faults;
  if (!args.sensor_fault.empty()) {
    StatusOr<sim::SensorFaultConfig> parsed =
        sim::ParseSensorFaultSpec(args.sensor_fault);
    if (!parsed.ok()) {
      std::fprintf(stderr, "bad --sensor_fault: %s\n",
                   parsed.status().ToString().c_str());
      return 1;
    }
    faults = parsed.value();
    std::printf("[table8] sensor faults: %s\n", faults.ToString().c_str());
  }

  data::DatasetConfig config = data::Synthetic3x3Config();
  data::Dataset dataset = data::BuildDataset(config);

  od::PatternConfig pattern_config;
  pattern_config.interval_minutes = config.interval_s / 60.0;
  pattern_config.rate_scale = config.mean_trips_per_od_interval /
                              (10.0 * pattern_config.interval_minutes);

  bool all_finite = true;
  for (od::TodPattern pattern : od::AllTodPatterns()) {
    Rng pattern_rng(555 + static_cast<int>(pattern));
    od::TodTensor test_tod = od::GenerateTodPattern(
        pattern, dataset.num_od(), dataset.num_intervals(), pattern_config,
        &pattern_rng);

    eval::HarnessConfig harness;
    harness.num_train_samples = train_samples;
    harness.sensor_faults = faults;
    eval::Experiment experiment(&dataset, harness, &test_tod);

    // Per-pattern checkpoint subdirectory so resumed runs cannot cross
    // checkpoints between patterns.
    core::CheckpointOptions checkpoint;
    if (!args.checkpoint_dir.empty()) {
      checkpoint.dir = args.checkpoint_dir + "/" + od::TodPatternName(pattern);
      checkpoint.every = args.checkpoint_every;
      checkpoint.resume = args.resume;
    }

    // Methods are independent scenarios; fan them out over the pool.
    std::vector<eval::MethodResult> results =
        experiment.RunAll(eval::MakeMethodSuite(checkpoint));
    for (const eval::MethodResult& r : results) {
      std::printf("[table8:%s] %-8s tod %7.2f vol %7.2f speed %6.2f (%.1f s)\n",
                  od::TodPatternName(pattern).c_str(), r.method.c_str(),
                  r.rmse.tod, r.rmse.volume, r.rmse.speed, r.recover_seconds);
      obs::ReportResult("table8." + od::TodPatternName(pattern) + "." +
                            r.method + ".rmse_tod",
                        r.rmse.tod);
      if (!std::isfinite(r.rmse.tod) || !std::isfinite(r.rmse.volume) ||
          !std::isfinite(r.rmse.speed)) {
        all_finite = false;
        std::fprintf(stderr, "[table8:%s] %s produced a non-finite RMSE\n",
                     od::TodPatternName(pattern).c_str(), r.method.c_str());
      }
    }
    eval::MakeComparisonTable(
        "Table VIII (analogue) — pattern " + od::TodPatternName(pattern) +
            ": RMSE (lower is better)",
        results)
        .Print();
  }
  if (faults.any()) {
    if (!all_finite) {
      std::fprintf(stderr, "[table8] fault run produced non-finite errors\n");
      return 1;
    }
    std::printf("[table8] fault run: all RMSE finite\n");
  }
  return session.Close() && all_finite ? 0 : 1;
}
