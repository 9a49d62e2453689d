// Golden-output proof of the simulator's determinism contract: every
// scenario's outputs must hash to a pinned constant at pools 1/2/4/8,
// across four scenario families — signalized grids (fixed and actuated),
// spillback-heavy funnels, road-work perturbations, and degraded sensors —
// plus the ground-truth runs of the Manhattan and synthetic3x3 datasets.
// When recorded, the constants matched the serial reference sweep that the
// engine's outputs were once diffed against, so they pin that reference
// without keeping a second code path. Comparisons are exact: a 64-bit
// FNV-1a fold over the double bit patterns, never tolerances. On a mismatch the test prints the actual value as a literal;
// re-pinning after an intended output change means pasting it into
// kGoldenHashes.
//
// The same scenarios also run under the SimInvariantChecker step observer,
// which asserts vehicle conservation, queue consistency, per-lane FIFO, and
// lane capacity at every single dt step at pools 1 and 4.

#include <cstring>
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/training_data.h"
#include "data/cities.h"
#include "sim/engine.h"
#include "sim/roadnet.h"
#include "sim/router.h"
#include "tests/sim_invariants.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ovs::sim {
namespace {

// Restores the global pool size on scope exit so test order does not matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

struct Scenario {
  std::string name;
  RoadNet net;
  EngineConfig config;
  std::vector<TripRequest> trips;
  std::vector<RoadWork> works;
};

// Random but deterministic trips between intersection pairs, routed by the
// free-flow shortest path.
std::vector<TripRequest> RandomTrips(const RoadNet& net, int count,
                                     double window_s, uint64_t seed) {
  Router router(&net);
  Rng rng(seed);
  std::vector<TripRequest> trips;
  trips.reserve(count);
  while (static_cast<int>(trips.size()) < count) {
    const int a = rng.UniformInt(0, net.num_intersections() - 1);
    const int b = rng.UniformInt(0, net.num_intersections() - 1);
    if (a == b) continue;
    auto route = router.CachedRoute(a, b);
    if (!route.ok() || route.value().empty()) continue;
    trips.push_back({rng.Uniform(0.0, window_s), route.value()});
  }
  return trips;
}

Scenario SignalizedScenario(bool actuated) {
  Scenario s;
  s.name = actuated ? "signalized-actuated" : "signalized-fixed";
  s.net = MakeGridNetwork(4, 4, 250.0, 2, 13.89);
  s.config.duration_s = 1200.0;
  s.config.interval_s = 300.0;
  s.config.enable_signals = true;
  s.config.use_actuated_signals = actuated;
  s.config.record_trajectories = true;
  s.trips = RandomTrips(s.net, 400, 900.0, 71);
  return s;
}

// Short single-lane links and demand funneled through the central node so
// queues spill back across intersections.
Scenario SpillbackScenario() {
  Scenario s;
  s.name = "spillback";
  s.net = MakeGridNetwork(3, 3, 120.0, 1, 13.89);
  s.config.duration_s = 900.0;
  s.config.interval_s = 300.0;
  s.config.enable_signals = true;
  Router router(&s.net);
  Rng rng(72);
  // Corner-to-corner demand — every route crosses the middle of the grid.
  const int corners[4] = {0, 2, 6, 8};
  for (int i = 0; i < 500; ++i) {
    const int a = corners[rng.UniformInt(0, 3)];
    int b = corners[rng.UniformInt(0, 3)];
    if (a == b) b = 8 - a;
    // value() CHECK-fails if no path exists; the grid is strongly connected.
    s.trips.push_back({rng.Uniform(0.0, 500.0),
                       router.CachedRoute(a, b).value()});
  }
  // A crawling link right at the center keeps the jam standing.
  s.works.push_back({router.CachedRoute(4, 5).value().front(), 0.2, 0});
  return s;
}

Scenario RoadWorkScenario() {
  Scenario s;
  s.name = "road-work";
  s.net = MakeGridNetwork(4, 3, 220.0, 2, 13.89);
  s.config.duration_s = 1200.0;
  s.config.interval_s = 300.0;
  s.trips = RandomTrips(s.net, 350, 900.0, 73);
  s.works.push_back({2, 0.4, 1});
  s.works.push_back({7, 0.5, 0});
  s.works.push_back({11, 0.3, 1});
  return s;
}

Scenario SensorFaultScenario() {
  Scenario s;
  s.name = "sensor-fault";
  s.net = MakeGridNetwork(3, 3, 300.0, 2, 13.89);
  s.config.duration_s = 1200.0;
  s.config.interval_s = 300.0;
  s.config.record_trajectories = true;
  s.config.sensor_faults.dropout = 0.2;
  s.config.sensor_faults.noise = 0.8;
  s.config.sensor_faults.spike = 0.05;
  s.config.sensor_faults.nan_poison = 0.02;
  s.trips = RandomTrips(s.net, 300, 900.0, 74);
  return s;
}

std::vector<Scenario> AllScenarios() {
  std::vector<Scenario> all;
  all.push_back(SignalizedScenario(/*actuated=*/false));
  all.push_back(SignalizedScenario(/*actuated=*/true));
  all.push_back(SpillbackScenario());
  all.push_back(RoadWorkScenario());
  all.push_back(SensorFaultScenario());
  return all;
}

SensorData RunScenario(const Scenario& s, int threads) {
  ThreadGuard guard(threads);
  Engine engine(&s.net, s.config);
  engine.ApplyRoadWork(s.works);
  for (const TripRequest& trip : s.trips) engine.AddTrip(trip);
  return engine.Run();
}

// Bit-level equality that treats NaN payloads as comparable (the
// sensor-fault scenario poisons cells with NaN on purpose).
void ExpectMatsBitwiseEqual(const DMat& a, const DMat& b,
                            const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(std::memcmp(a.data(), b.data(),
                        sizeof(double) * a.rows() * a.cols()),
            0)
      << what << ": matrices differ at the bit level";
}

void ExpectSensorDataBitwiseEqual(const SensorData& a, const SensorData& b,
                                  const std::string& what) {
  ExpectMatsBitwiseEqual(a.volume, b.volume, what + " volume");
  ExpectMatsBitwiseEqual(a.speed, b.speed, what + " speed");
  EXPECT_EQ(a.spawned_trips, b.spawned_trips) << what;
  EXPECT_EQ(a.completed_trips, b.completed_trips) << what;
  EXPECT_EQ(a.unspawned_trips, b.unspawned_trips) << what;
  // Bitwise on the accumulated double, not EXPECT_DOUBLE_EQ.
  EXPECT_EQ(std::memcmp(&a.mean_travel_time_s, &b.mean_travel_time_s,
                        sizeof(double)),
            0)
      << what << " mean_travel_time_s";
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size()) << what;
  for (size_t i = 0; i < a.trajectories.size(); ++i) {
    const VehicleTrace& ta = a.trajectories[i];
    const VehicleTrace& tb = b.trajectories[i];
    EXPECT_EQ(ta.route, tb.route) << what << " trajectory " << i;
    EXPECT_EQ(ta.entry_times, tb.entry_times) << what << " trajectory " << i;
    EXPECT_EQ(ta.depart_time_s, tb.depart_time_s) << what;
    EXPECT_EQ(ta.finish_time_s, tb.finish_time_s) << what;
  }
}

// ------------------------------------------------------- golden outputs ---

// Pinned output hashes, one per scenario. Paste a failure's printed line
// over its row to re-pin after an intended output change.
struct GoldenHash {
  const char* name;
  uint64_t hash;
};
constexpr GoldenHash kGoldenHashes[] = {
    {"signalized-fixed", 0x27374b9e142a50cbull},
    {"signalized-actuated", 0xf351156708610bfeull},
    {"spillback", 0xf41edf13f5892eadull},
    {"road-work", 0xb99307f6dae89aa9ull},
    {"sensor-fault", 0xd6dcf81eeded3304ull},
    {"ground-truth-manhattan", 0xb2916fc948037134ull},
    {"ground-truth-synthetic3x3", 0xea71aee5d1b08fd7ull},
};

// FNV-1a over 64-bit words, seeded as ovsbench's scenario checksum is, so a
// volume+speed hash here equals that checksum for the same run.
uint64_t Fold(uint64_t h, uint64_t word) {
  return (h ^ word) * 1099511628211ull;
}

uint64_t FoldDouble(uint64_t h, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return Fold(h, bits);
}

uint64_t HashVolumeSpeed(const DMat& volume, const DMat& speed) {
  uint64_t h = 1469598103934665603ull;
  for (const DMat* m : {&volume, &speed}) {
    for (int i = 0; i < m->numel(); ++i) h = FoldDouble(h, m->data()[i]);
  }
  return h;
}

// Every SensorData field: volume, speed, trip counts, mean travel time, and
// each recorded trajectory (route, entry times, departure, finish).
uint64_t HashSensorData(const SensorData& d) {
  uint64_t h = HashVolumeSpeed(d.volume, d.speed);
  for (const int count :
       {d.spawned_trips, d.completed_trips, d.unspawned_trips}) {
    h = Fold(h, static_cast<uint64_t>(count));
  }
  h = FoldDouble(h, d.mean_travel_time_s);
  for (const VehicleTrace& trace : d.trajectories) {
    h = Fold(h, trace.route.size());
    for (const LinkId link : trace.route) {
      h = Fold(h, static_cast<uint64_t>(link));
    }
    for (const double t : trace.entry_times) h = FoldDouble(h, t);
    h = FoldDouble(h, trace.depart_time_s);
    h = FoldDouble(h, trace.finish_time_s);
  }
  return h;
}

void ExpectGoldenHash(const std::string& name, uint64_t actual) {
  char literal[96];
  std::snprintf(literal, sizeof(literal), "{\"%s\", 0x%016" PRIx64 "ull},",
                name.c_str(), actual);
  for (const GoldenHash& golden : kGoldenHashes) {
    if (name != golden.name) continue;
    EXPECT_EQ(actual, golden.hash)
        << name << " outputs changed; actual: " << literal;
    return;
  }
  ADD_FAILURE() << "no golden hash for " << name << "; actual: " << literal;
}

// ------------------------------------------------- differential suite -----

// The serial reference is the pinned hashes: every scenario must reproduce
// them at every pool size.
class SimDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(SimDeterminismTest, ParallelMatchesSerialReferenceBitwise) {
  const int threads = GetParam();
  for (const Scenario& s : AllScenarios()) {
    SCOPED_TRACE(s.name);
    const SensorData out = RunScenario(s, threads);
    // The scenarios must exercise real traffic, not empty networks.
    ASSERT_GT(out.spawned_trips, 0) << s.name;
    ASSERT_GT(out.completed_trips, 0) << s.name;
    ExpectGoldenHash(s.name, HashSensorData(out));
  }
  // The benchmark's city and the serve city, end to end from the dataset.
  ThreadGuard guard(threads);
  for (const auto& [name, config] :
       {std::pair{"ground-truth-manhattan", data::ManhattanConfig()},
        std::pair{"ground-truth-synthetic3x3", data::Synthetic3x3Config()}}) {
    SCOPED_TRACE(name);
    const data::Dataset dataset = data::BuildDataset(config);
    const core::TrainingSample truth = core::SimulateGroundTruth(dataset, 4242);
    ExpectGoldenHash(name, HashVolumeSpeed(truth.volume, truth.speed));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SimDeterminismTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SimDeterminismTest, SerialReferenceIsRepeatable) {
  Scenario s = SpillbackScenario();
  const SensorData a = RunScenario(s, 1);
  const SensorData b = RunScenario(s, 1);
  ExpectSensorDataBitwiseEqual(a, b, "serial repeat");

  // Recording trajectories only observes: the sensors read the same.
  ASSERT_FALSE(s.config.record_trajectories);
  s.config.record_trajectories = true;
  const SensorData recorded = RunScenario(s, 1);
  ExpectMatsBitwiseEqual(a.volume, recorded.volume,
                         "recording on vs off volume");
  ExpectMatsBitwiseEqual(a.speed, recorded.speed, "recording on vs off speed");
}

// ---------------------------------------------- per-step invariants -------

// The parameter picks the pool: true (SerialReference) runs at pool 1,
// false (Parallel) at pool 4.
class SimInvariantsTest : public ::testing::TestWithParam<bool> {};

TEST_P(SimInvariantsTest, ScenariosHoldPhysicalInvariantsEveryStep) {
  ThreadGuard guard(GetParam() ? 1 : 4);
  for (const Scenario& s : AllScenarios()) {
    SCOPED_TRACE(s.name);
    Engine engine(&s.net, s.config);
    engine.ApplyRoadWork(s.works);
    for (const TripRequest& trip : s.trips) engine.AddTrip(trip);
    SimInvariantChecker checker(&s.net, &engine, s.name);
    checker.Install(&engine);
    const SensorData out = engine.Run();
    EXPECT_EQ(checker.steps_checked(),
              static_cast<int>(s.config.duration_s / s.config.dt_s + 0.5));
    // Post-run global conservation, including vehicles still en route.
    EXPECT_EQ(out.spawned_trips,
              out.completed_trips + engine.active_vehicles());
    if (::testing::Test::HasFailure()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimInvariantsTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "SerialReference"
                                                   : "Parallel";
                         });

}  // namespace
}  // namespace ovs::sim
