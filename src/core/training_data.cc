#include "core/training_data.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "od/demand.h"
#include "od/patterns.h"
#include "sim/engine.h"
#include "util/thread_pool.h"

namespace ovs::core {

namespace {

/// Pattern scaling so the paper's veh/min rates land at the dataset's demand
/// level: mean pattern rate is ~10 veh/min, the dataset wants
/// `mean_trips_per_od_interval` per interval.
od::PatternConfig PatternConfigFor(const data::Dataset& dataset) {
  od::PatternConfig pc;
  pc.interval_minutes = dataset.config.interval_s / 60.0;
  const double paper_mean_per_interval = 10.0 * pc.interval_minutes;
  pc.rate_scale = dataset.config.mean_trips_per_od_interval *
                  dataset.config.training_demand_multiplier /
                  paper_mean_per_interval;
  return pc;
}

/// Builds the engine that simulates `tod`: demand drawn from `seed`'s
/// stream, `works` applied, every trip moved in. Everything but Run happens
/// here, on the calling thread, so that is where the engine's storage comes
/// from.
std::unique_ptr<sim::Engine> BuildEngine(
    const data::Dataset& dataset, const od::TodTensor& tod, uint64_t seed,
    const std::vector<sim::RoadWork>& works) {
  Rng rng(seed);
  od::DemandGenerator demand(&dataset.net, &dataset.regions, &dataset.od_set,
                             dataset.config.interval_s);
  std::vector<sim::TripRequest> trips = demand.Generate(tod, &rng);
  auto engine =
      std::make_unique<sim::Engine>(&dataset.net, dataset.engine_config);
  engine->ApplyRoadWork(works);
  for (sim::TripRequest& trip : trips) engine->AddTrip(std::move(trip));
  return engine;
}

}  // namespace

TrainingSample SimulateTod(const data::Dataset& dataset,
                           const od::TodTensor& tod, uint64_t seed,
                           const std::vector<sim::RoadWork>& works) {
  sim::SensorData sensors = BuildEngine(dataset, tod, seed, works)->Run();
  return {tod, std::move(sensors.volume), std::move(sensors.speed)};
}

TrainingSample SimulateGroundTruth(const data::Dataset& dataset, uint64_t seed) {
  return SimulateTod(dataset, dataset.ground_truth_tod, seed);
}

TrainingData GenerateTrainingData(const data::Dataset& dataset, int num_samples,
                                  uint64_t seed) {
  CHECK_GT(num_samples, 0);
  Rng rng(seed);
  const od::PatternConfig pc = PatternConfigFor(dataset);

  std::vector<od::TodTensor> tods = od::GenerateTrainingTods(
      num_samples, dataset.num_od(), dataset.num_intervals(), pc, &rng);

  // The samples are independent simulations, so they run in waves of one
  // per pool thread; this is where simulation uses more than one core, since
  // each Engine::Run is serial. Each wave's engines are built here first, so
  // only Run executes on the pool threads and their heaps do not grow with
  // the engines' per-vehicle storage. Samples and scales are gathered in
  // sample order, so the output is bitwise-identical at every pool size.
  TrainingData out;
  out.samples.reserve(tods.size());
  double tod_max = 1.0, vol_max = 1.0, speed_max = 1.0;
  const size_t wave = static_cast<size_t>(GlobalThreadCount());
  for (size_t first = 0; first < tods.size(); first += wave) {
    const size_t count = std::min(wave, tods.size() - first);
    std::vector<std::unique_ptr<sim::Engine>> engines;
    engines.reserve(count);
    for (size_t i = first; i < first + count; ++i) {
      engines.push_back(BuildEngine(dataset, tods[i], seed + 1000 + i, {}));
    }
    std::vector<sim::SensorData> sensors(count);
    ParallelFor(0, static_cast<int64_t>(count), 1, [&](int64_t lo, int64_t hi) {
      for (int64_t k = lo; k < hi; ++k) sensors[k] = engines[k]->Run();
    });
    for (size_t k = 0; k < count; ++k) {
      TrainingSample sample{std::move(tods[first + k]),
                            std::move(sensors[k].volume),
                            std::move(sensors[k].speed)};
      tod_max = std::max(tod_max, sample.tod.mat().Max());
      vol_max = std::max(vol_max, sample.volume.Max());
      speed_max = std::max(speed_max, sample.speed.Max());
      out.samples.push_back(std::move(sample));
    }
  }
  // Headroom so the sigmoid ceilings sit above every observed value.
  out.tod_scale = tod_max * 1.2;
  out.volume_norm = vol_max;
  out.speed_scale = speed_max * 1.05;
  return out;
}

}  // namespace ovs::core
