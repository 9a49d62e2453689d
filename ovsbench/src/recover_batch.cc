// recover_batch: offline OvsTrainer::RecoverTod with R=4 batched restarts on
// Hangzhou (126 links), the tall stacked-GEMM path. Set-up onboards the city.

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "data/cities.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace ovsbench {

using namespace ovs;

namespace {

constexpr int kTrainSamples = 6;
constexpr int kStageEpochs = 6;
constexpr int kRecoveryEpochs = 5;
constexpr int kRestarts = 4;
constexpr int kSetupRepeats = 3;  // see RepeatSetupAfter
// RecoverTod calls per measured second; one call per interleaving round.
// Short calls, many of them: recover_s is the fastest, and a call of a
// quarter second fits into a fast stretch of a shared host more often than
// a long one.
constexpr double kCallsPerS = 3.0;
// Scenarios of the simulation probe per measured second: six runs of
// each of the five pattern draws at 10 s (simulate_s takes each draw's
// fastest).
constexpr double kProbeScenariosPerS = 3.0;

struct Onboarded {
  data::Dataset dataset;
  core::TrainingData train;
  TrainedCity city;
};

/// BuildDataset, GenerateTrainingData, TrainVolumeSpeed, TrainTodVolume.
std::unique_ptr<Onboarded> Onboard(double* build_ms, double* datagen_ms,
                                   Report* report) {
  auto out = std::make_unique<Onboarded>();
  {
    Timed t("bench.data.build_dataset");
    out->dataset = data::BuildDataset(data::HangzhouConfig());
    *build_ms = t.ms();
  }
  {
    Timed t("bench.core.generate_training_data");
    out->train = core::GenerateTrainingData(out->dataset, kTrainSamples, 1001);
    *datagen_ms = t.ms();
  }
  TrainedCity& city = out->city;
  city.dataset = &out->dataset;
  city.train = &out->train;
  city.config.tod_scale = static_cast<float>(out->train.tod_scale);
  city.config.volume_norm = static_cast<float>(out->train.volume_norm);
  city.config.speed_scale = static_cast<float>(out->train.speed_scale);
  const data::Dataset& ds = out->dataset;
  Rng rng(7);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, city.config, &rng);
  core::TrainerConfig tc;
  tc.stage1_epochs = kStageEpochs;
  tc.stage2_epochs = kStageEpochs;
  core::OvsTrainer trainer(&model, tc);
  Status trained = trainer.TrainVolumeSpeed(out->train).status();
  if (trained.ok()) trained = trainer.TrainTodVolume(out->train).status();
  if (!trained.ok()) report->Fail("onboarding: " + trained.ToString());
  for (const auto& [name, v] : model.NamedParameters()) {
    city.weights.emplace(name, v.value());
  }
  return out;
}

}  // namespace

void RunRecoverBatch(const Args& args, Report* report) {
  // Set-up: onboard the city (traced the first time), and start the serve
  // probe's server. Repeats (see RepeatSetupAfter) onboard and start
  // throwaway copies.
  std::vector<double> setups, build_ms, datagen_ms;
  std::vector<obs::PhaseNode> setup_profile;
  auto set_up = [&](std::unique_ptr<Onboarded>* onboarded,
                    std::unique_ptr<serve::RecoveryServer>* server) {
    const Clock::time_point t0 = Clock::now();
    double build = 0.0, datagen = 0.0;
    std::vector<obs::PhaseNode> profile =
        TraceSegment(args.trace && setups.empty(), [&] {
          *onboarded = Onboard(&build, &datagen, report);
        });
    if (setups.empty()) setup_profile = std::move(profile);
    *server = StartServeCity();
    setups.push_back(MsSince(t0) * 1e-3);
    build_ms.push_back(build);
    datagen_ms.push_back(datagen);
  };
  auto repeat_set_up = [&] {
    std::unique_ptr<Onboarded> onboarded;
    std::unique_ptr<serve::RecoveryServer> server;
    set_up(&onboarded, &server);
    server->Shutdown();
  };
  std::unique_ptr<Onboarded> onboarded;
  std::unique_ptr<serve::RecoveryServer> server;
  set_up(&onboarded, &server);
  const data::Dataset& dataset = onboarded->dataset;
  if (args.trace) {
    FoldLayerSpans(setup_profile, report);
    report->SetDefault("data.build_ms", build_ms[0], "ms");
    report->SetDefault("core.datagen_s", datagen_ms[0] * 1e-3, "s");
  }

  // Seeded observations of the hidden ground truth: clean and 30% dark.
  RecoverySeries batch;
  batch.city = &onboarded->city;
  batch.observed = ObservedSpeeds(dataset, args.seed, 3, 0.0);
  for (DMat& m : ObservedSpeeds(dataset, args.seed + 1, 3, 0.3)) {
    batch.observed.push_back(std::move(m));
  }
  batch.epochs = kRecoveryEpochs;
  batch.restarts = kRestarts;

  // Cross-path probes: the city's five pattern scenarios, and the server
  // (with its offline recoveries) on the serve city.
  ScenarioSeries scenarios;
  scenarios.dataset = &dataset;
  scenarios.tods = PatternTods(dataset, args.seed);
  scenarios.works.resize(scenarios.tods.size());
  ServeSeries serve(args, server.get(), report);
  RecoverySeries probe_recoveries = ServeCityRecoveries(args, serve.city);

  const int calls =
      std::max(4, static_cast<int>(std::lround(kCallsPerS * args.seconds)));
  const int probe_scenarios = std::max(
      5, static_cast<int>(std::lround(kProbeScenariosPerS * args.seconds)));
  const int rounds = Rounds(args, calls);
  for (int r = 0; r < rounds; ++r) {
    const PoolDelta pool;
    const std::vector<obs::PhaseNode> profile = TraceSegment(
        args.trace, [&] { batch.Run(args, Slice(calls, r, rounds), report); });
    if (args.trace) {
      ReportPool(pool, report);
      FoldLayerSpans(profile, report);
    }
    scenarios.Run(args, Slice(probe_scenarios, r, rounds), report);
    serve.Probe(args, r, rounds, report);
    probe_recoveries.Run(args, RecoveryProbeCalls(args, rounds), report);
    if (RepeatSetupAfter(args, kSetupRepeats, r, rounds)) repeat_set_up();
  }
  report->Set("setup_s", Median(setups), "s");

  double rmse_sum = 0.0;
  int scored = 0;
  for (const RecoveryRun& run : batch.runs) {
    if (!run.status.ok()) continue;
    rmse_sum += Rmse(run.tod, dataset.ground_truth_tod.mat());
    ++scored;
  }
  report->RequireSamples("recover_tod_rmse", static_cast<size_t>(scored));
  report->Set("recover_tod_rmse", scored > 0 ? rmse_sum / scored : 0.0, "trips");
  batch.Finish(args, report);
  scenarios.Finish(args, report);
  ReportServe(serve, /*open_loop_p99=*/false, report);
  probe_recoveries.Finish(args, report);
  server->Shutdown();

  if (args.trace) {
    MeasureTraceOverhead(
        [&] {
          Recover(onboarded->city, batch.observed[0],
                  static_cast<uint32_t>(args.seed), kRecoveryEpochs, kRestarts);
        },
        3, report);
  }
  FinishRun(report);
}

}  // namespace ovsbench
