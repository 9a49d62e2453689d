// Substrate microbenchmarks: traffic-engine step throughput, routing, and
// demand generation. These bound the cost of the TOD -> (volume, speed)
// oracle every estimator leans on.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "data/cities.h"
#include "od/demand.h"
#include "od/patterns.h"
#include "obs/session.h"
#include "sim/engine.h"
#include "sim/router.h"
#include "util/bench_config.h"

namespace {

using namespace ovs;

void BM_EngineRun(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  const int vehicles = static_cast<int>(state.range(1));
  sim::RoadNet net = sim::MakeGridNetwork(grid, grid, 300.0, 1, 13.89);
  sim::Router router(&net);
  Rng rng(1);
  std::vector<sim::TripRequest> trips;
  for (int i = 0; i < vehicles; ++i) {
    const int o = rng.UniformInt(0, net.num_intersections() - 1);
    int d = rng.UniformInt(0, net.num_intersections() - 1);
    if (d == o) d = (d + 1) % net.num_intersections();
    StatusOr<sim::Route> route = router.CachedRoute(o, d);
    if (!route.ok()) continue;
    trips.push_back({rng.Uniform(0.0, 3600.0), route.value()});
  }
  sim::EngineConfig config;
  config.duration_s = 3600.0;
  for (auto _ : state) {
    sim::SensorData out = sim::Simulate(net, config, trips);
    benchmark::DoNotOptimize(out.completed_trips);
  }
  state.counters["veh"] = vehicles;
  state.counters["steps/s"] = benchmark::Counter(
      3600.0 * state.iterations(), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineRun)->Args({3, 500})->Args({5, 2000})->Args({10, 5000})
    ->Unit(benchmark::kMillisecond);

void BM_Dijkstra(benchmark::State& state) {
  const int grid = static_cast<int>(state.range(0));
  sim::RoadNet net = sim::MakeGridNetwork(grid, grid, 300.0);
  sim::Router router(&net);
  int from = 0;
  for (auto _ : state) {
    auto route = router.ShortestRoute(from % net.num_intersections(),
                                      net.num_intersections() - 1);
    benchmark::DoNotOptimize(route);
    ++from;
  }
}
BENCHMARK(BM_Dijkstra)->Arg(5)->Arg(10)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_DemandGeneration(benchmark::State& state) {
  data::Dataset ds = data::BuildDataset(data::ManhattanConfig());
  od::DemandGenerator gen(&ds.net, &ds.regions, &ds.od_set,
                          ds.config.interval_s);
  Rng rng(2);
  for (auto _ : state) {
    auto trips = gen.Generate(ds.ground_truth_tod, &rng);
    benchmark::DoNotOptimize(trips.size());
  }
}
BENCHMARK(BM_DemandGeneration)->Unit(benchmark::kMillisecond);

void BM_DatasetBuild(benchmark::State& state) {
  for (auto _ : state) {
    data::Dataset ds = data::BuildDataset(data::HangzhouConfig());
    benchmark::DoNotOptimize(ds.num_links());
  }
}
BENCHMARK(BM_DatasetBuild)->Unit(benchmark::kMillisecond);

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
