// simulate_city: the TOD -> speed oracle on Manhattan (360 links). Each
// scenario builds a fresh od::DemandGenerator and simulates its trips, the
// steps core::SimulateTod takes.

#include <algorithm>
#include <cmath>
#include <memory>

#include "data/cities.h"
#include "serve/server.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace ovsbench {

using namespace ovs;

namespace {

constexpr int kRoadWorkLinks = 4;
constexpr int kSetupRepeats = 5;  // see RepeatSetupAfter
// Scenarios per measured second; one pass over the six draws per round.
constexpr double kScenariosPerS = 3.0;

struct City {
  data::Dataset dataset;
  std::vector<od::TodTensor> tods;
  std::vector<std::vector<sim::RoadWork>> works;
};

/// The city and its seeded draws: the five od patterns, then the Gaussian
/// draw again with road work (half speed, one lane shut) on a few links.
std::unique_ptr<City> Build(uint64_t seed, double* build_ms) {
  auto city = std::make_unique<City>();
  {
    Timed t("bench.data.build_dataset");
    city->dataset = data::BuildDataset(data::ManhattanConfig());
    *build_ms = t.ms();
  }
  city->tods = PatternTods(city->dataset, seed);
  city->works.resize(city->tods.size());
  Rng rng(seed + 99);
  std::vector<sim::RoadWork> works;
  for (int i = 0; i < kRoadWorkLinks; ++i) {
    sim::RoadWork work;
    work.link = rng.UniformInt(0, city->dataset.num_links() - 1);
    work.speed_factor = 0.5;
    work.closed_lanes = 1;
    works.push_back(work);
  }
  city->tods.push_back(city->tods[3]);
  city->works.push_back(works);
  return city;
}

}  // namespace

void RunSimulateCity(const Args& args, Report* report) {
  // Set-up: the city and its draws, and the serve probe's server. Repeats
  // (see RepeatSetupAfter) build and start throwaway copies.
  std::vector<double> setups, build_ms;
  auto set_up = [&](std::unique_ptr<City>* city,
                    std::unique_ptr<serve::RecoveryServer>* server) {
    const Clock::time_point t0 = Clock::now();
    double build = 0.0;
    *city = Build(args.seed, &build);
    *server = StartServeCity();
    setups.push_back(MsSince(t0) * 1e-3);
    build_ms.push_back(build);
  };
  auto repeat_set_up = [&] {
    std::unique_ptr<City> city;
    std::unique_ptr<serve::RecoveryServer> server;
    set_up(&city, &server);
    server->Shutdown();
  };
  std::unique_ptr<City> city;
  std::unique_ptr<serve::RecoveryServer> server;
  const std::vector<obs::PhaseNode> setup_profile =
      TraceSegment(args.trace, [&] { set_up(&city, &server); });
  if (args.trace) {
    FoldLayerSpans(setup_profile, report);
    report->SetDefault("data.build_ms", build_ms[0], "ms");
  }

  ScenarioSeries scenarios;
  scenarios.dataset = &city->dataset;
  scenarios.tods = city->tods;
  scenarios.works = city->works;
  // Cross-path probe: the server on its small city, and offline recoveries
  // there, which give the recovery metrics.
  ServeSeries serve(args, server.get(), report);
  RecoverySeries recoveries = ServeCityRecoveries(args, serve.city);

  const int draws = static_cast<int>(scenarios.tods.size());
  const int passes = std::max(
      1, static_cast<int>(std::lround(kScenariosPerS * args.seconds / draws)));
  const int rounds = Rounds(args, passes);
  for (int r = 0; r < rounds; ++r) {
    const PoolDelta pool;
    scenarios.Run(args, Slice(draws * passes, r, rounds), report);
    if (args.trace) ReportPool(pool, report);
    serve.Probe(args, r, rounds, report);
    recoveries.Run(args, RecoveryProbeCalls(args, rounds), report);
    if (RepeatSetupAfter(args, kSetupRepeats, r, rounds)) repeat_set_up();
  }
  report->Set("setup_s", Median(setups), "s");
  scenarios.Finish(args, report);
  ReportServe(serve, /*open_loop_p99=*/false, report);
  recoveries.Finish(args, report);
  server->Shutdown();

  if (args.trace) {
    const serve::CityOptions options = ServeCityOptions();
    TimeOnboardingLayers(options.dataset, options.train_samples,
                         options.train_seed, report);
    MeasureTraceOverhead(
        [&] { RunScenario(city->dataset, city->tods[0], args.seed * 131); }, 3,
        report);
  }
  FinishRun(report);
}

}  // namespace ovsbench
