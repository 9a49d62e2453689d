// Differential proof of the simulator's determinism contract: the parallel
// two-phase sweep must produce results bitwise-identical to the serial
// reference (EngineConfig::force_serial_sweep) at 1/2/4/8 threads, across
// four scenario families — signalized grids (fixed and actuated), spillback-
// heavy funnels, road-work perturbations, and degraded sensors. Comparisons
// are exact: double bit patterns via memcmp, never tolerances.
//
// The same scenarios also run under the SimInvariantChecker step observer,
// which asserts vehicle conservation, queue consistency, per-lane FIFO, and
// lane capacity at every single dt step in both sweep modes.

#include <cstring>
#include <gtest/gtest.h>

#include <string>
#include <vector>

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

SensorData RunScenario(const Scenario& s, int threads, bool force_serial) {
  ThreadGuard guard(threads);
  EngineConfig config = s.config;
  config.force_serial_sweep = force_serial;
  Engine engine(&s.net, config);
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

// ------------------------------------------------- differential suite -----

class SimDeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(SimDeterminismTest, ParallelMatchesSerialReferenceBitwise) {
  const int threads = GetParam();
  for (const Scenario& s : AllScenarios()) {
    SCOPED_TRACE(s.name);
    const SensorData reference = RunScenario(s, 1, /*force_serial=*/true);
    // The scenarios must exercise real traffic, not empty networks.
    ASSERT_GT(reference.spawned_trips, 0) << s.name;
    ASSERT_GT(reference.completed_trips, 0) << s.name;
    const SensorData parallel = RunScenario(s, threads, /*force_serial=*/false);
    ExpectSensorDataBitwiseEqual(reference, parallel,
                                 s.name + " @" + std::to_string(threads) +
                                     " threads");
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SimDeterminismTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(SimDeterminismTest, SerialReferenceIsRepeatable) {
  Scenario s = SpillbackScenario();
  const SensorData a = RunScenario(s, 1, /*force_serial=*/true);
  const SensorData b = RunScenario(s, 1, /*force_serial=*/true);
  ExpectSensorDataBitwiseEqual(a, b, "serial repeat");

  // Recording trajectories only observes: the sensors read the same.
  ASSERT_FALSE(s.config.record_trajectories);
  s.config.record_trajectories = true;
  const SensorData recorded = RunScenario(s, 1, /*force_serial=*/true);
  ExpectMatsBitwiseEqual(a.volume, recorded.volume,
                         "recording on vs off volume");
  ExpectMatsBitwiseEqual(a.speed, recorded.speed, "recording on vs off speed");
}

// ---------------------------------------------- per-step invariants -------

class SimInvariantsTest : public ::testing::TestWithParam<bool> {};

TEST_P(SimInvariantsTest, ScenariosHoldPhysicalInvariantsEveryStep) {
  const bool force_serial = GetParam();
  ThreadGuard guard(force_serial ? 1 : 4);
  for (const Scenario& s : AllScenarios()) {
    SCOPED_TRACE(s.name);
    EngineConfig config = s.config;
    config.force_serial_sweep = force_serial;
    Engine engine(&s.net, config);
    engine.ApplyRoadWork(s.works);
    for (const TripRequest& trip : s.trips) engine.AddTrip(trip);
    SimInvariantChecker checker(&s.net, &engine, s.name);
    checker.Install(&engine);
    const SensorData out = engine.Run();
    EXPECT_EQ(checker.steps_checked(),
              static_cast<int>(config.duration_s / config.dt_s + 0.5));
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
