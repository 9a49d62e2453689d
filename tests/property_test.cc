// Parameterized property sweeps: invariants that must hold across whole
// families of configurations, not just single examples.

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "data/cities.h"
#include "nn/optimizer.h"
#include "nn/ops.h"
#include "od/demand.h"
#include "od/patterns.h"
#include "sim/engine.h"
#include "sim/router.h"
#include "tests/sim_invariants.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

// ---------------------------------------------------- Engine conservation --

/// (grid side, lanes, vehicles, signals on).
using EngineCase = std::tuple<int, int, int, bool>;

class EngineConservationTest : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineConservationTest, VehiclesAndVolumeAreConserved) {
  const auto [side, lanes, vehicles, signals] = GetParam();
  sim::RoadNet net = sim::MakeGridNetwork(side, side, 250.0, lanes, 13.0);
  sim::Router router(&net);
  Rng rng(1234 + side + lanes + vehicles);

  sim::EngineConfig config;
  config.duration_s = 1800.0;
  config.interval_s = 600.0;
  config.enable_signals = signals;
  sim::Engine engine(&net, config);

  int added = 0;
  std::vector<sim::Route> routes;
  for (int i = 0; i < vehicles; ++i) {
    const int o = rng.UniformInt(0, net.num_intersections() - 1);
    int d = rng.UniformInt(0, net.num_intersections() - 1);
    if (o == d) continue;
    StatusOr<sim::Route> route = router.CachedRoute(o, d);
    if (!route.ok()) continue;
    engine.AddTrip({rng.Uniform(0.0, 900.0), route.value()});
    routes.push_back(route.value());
    ++added;
  }
  sim::SensorData out = engine.Run();

  // Conservation: every added vehicle is spawned, pending, or had an empty
  // route (none here).
  EXPECT_EQ(out.spawned_trips + out.unspawned_trips, added);
  EXPECT_LE(out.completed_trips, out.spawned_trips);
  EXPECT_EQ(out.spawned_trips - out.completed_trips, engine.active_vehicles());

  // Volume conservation: each spawned vehicle enters its first link exactly
  // once, so total entries across links is at least the spawn count and no
  // link can record more entries than the routes that cross it.
  double total_entries = 0.0;
  DMat route_crossings(net.num_links(), 1);
  for (const sim::Route& route : routes) {
    for (sim::LinkId l : route) route_crossings.at(l, 0) += 1.0;
  }
  for (int l = 0; l < net.num_links(); ++l) {
    double entries = 0.0;
    for (int t = 0; t < out.volume.cols(); ++t) entries += out.volume.at(l, t);
    EXPECT_LE(entries, route_crossings.at(l, 0)) << "link " << l;
    total_entries += entries;
  }
  EXPECT_GE(total_entries, out.spawned_trips);

  // Speed bounds: every sensor cell within (0, speed limit].
  for (int l = 0; l < net.num_links(); ++l) {
    for (int t = 0; t < out.speed.cols(); ++t) {
      EXPECT_GT(out.speed.at(l, t), 0.0);
      EXPECT_LE(out.speed.at(l, t), net.link(l).speed_limit_mps + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineConservationTest,
    ::testing::Values(EngineCase{2, 1, 50, true}, EngineCase{3, 1, 300, true},
                      EngineCase{3, 2, 300, false}, EngineCase{4, 2, 800, true},
                      EngineCase{5, 1, 1200, true},
                      EngineCase{3, 3, 500, false}),
    [](const auto& param_info) {
      // += chain instead of operator+(const char*, string&&): the latter trips
      // a GCC 12 -Wrestrict false positive (PR105651) at -O2.
      std::string name = "g";
      name += std::to_string(std::get<0>(param_info.param));
      name += "l";
      name += std::to_string(std::get<1>(param_info.param));
      name += "v";
      name += std::to_string(std::get<2>(param_info.param));
      name += std::get<3>(param_info.param) ? "sig" : "nosig";
      return name;
    });

// ----------------------------------------- Randomized-config sim invariants --

// A whole engine setup — network geometry, lane counts, speed limits,
// signal plan (fixed or actuated), optional road work, and random demand —
// drawn from one seed.
struct RandomizedSimConfig {
  sim::RoadNet net;
  sim::EngineConfig config;
  std::vector<sim::RoadWork> works;
  std::vector<sim::TripRequest> trips;
};

RandomizedSimConfig DrawRandomizedSimConfig(uint64_t seed) {
  Rng rng(seed);
  const int rows = rng.UniformInt(2, 4);
  const int cols = rng.UniformInt(2, 4);
  const int lanes = rng.UniformInt(1, 2);
  const double spacing = rng.Uniform(120.0, 320.0);
  const double limit = rng.Uniform(9.0, 15.0);
  sim::RoadNet net = sim::MakeGridNetwork(rows, cols, spacing, lanes, limit);

  sim::EngineConfig config;
  config.duration_s = 400.0;
  config.interval_s = 100.0;
  config.enable_signals = rng.UniformInt(0, 3) > 0;
  config.use_actuated_signals =
      config.enable_signals && rng.UniformInt(0, 1) == 1;
  if (rng.UniformInt(0, 1) == 1) {
    config.signal_plan.green_ns_s = rng.Uniform(15.0, 45.0);
    config.signal_plan.green_ew_s = rng.Uniform(15.0, 45.0);
  }

  std::vector<sim::RoadWork> works;
  if (rng.UniformInt(0, 2) == 0) {
    works.push_back({rng.UniformInt(0, net.num_links() - 1),
                     rng.Uniform(0.2, 0.9), rng.UniformInt(0, 1)});
  }

  sim::Router router(&net);
  std::vector<sim::TripRequest> trips;
  const int vehicles = rng.UniformInt(20, 120);
  for (int i = 0; i < vehicles; ++i) {
    const int o = rng.UniformInt(0, net.num_intersections() - 1);
    const int d = rng.UniformInt(0, net.num_intersections() - 1);
    if (o == d) continue;
    StatusOr<sim::Route> route = router.CachedRoute(o, d);
    if (!route.ok()) continue;
    trips.push_back({rng.Uniform(0.0, 300.0), route.value()});
  }
  return {std::move(net), config, std::move(works), std::move(trips)};
}

// Runs one drawn setup under the per-step SimInvariantChecker at pools 1
// and 3 and requires the two sensor outputs to match bitwise. 8 chunks x 13
// seeds x {pool 1, pool 3} = 208 simulated configurations.
void RunRandomizedSimConfig(uint64_t seed) {
  const auto [net, config, works, trips] = DrawRandomizedSimConfig(seed);
  sim::SensorData outputs[2];
  const int threads_before = GlobalThreadCount();
  for (const int run : {0, 1}) {
    const int threads = run == 0 ? 1 : 3;
    SetGlobalThreads(threads);
    sim::Engine engine(&net, config);
    engine.ApplyRoadWork(works);
    for (const sim::TripRequest& trip : trips) engine.AddTrip(trip);
    sim::SimInvariantChecker checker(
        &net, &engine,
        "pool " + std::to_string(threads) + " seed " + std::to_string(seed));
    checker.Install(&engine);
    outputs[run] = engine.Run();
    EXPECT_EQ(checker.steps_checked(), 400);
  }
  SetGlobalThreads(threads_before);

  // Differential: the randomized config must also give bitwise-identical
  // outputs at every pool size, not just satisfy the physical invariants.
  ASSERT_EQ(outputs[0].volume.rows(), outputs[1].volume.rows());
  EXPECT_EQ(std::memcmp(outputs[0].volume.data(), outputs[1].volume.data(),
                        sizeof(double) * outputs[0].volume.rows() *
                            outputs[0].volume.cols()),
            0)
      << "volume diverged, seed " << seed;
  EXPECT_EQ(std::memcmp(outputs[0].speed.data(), outputs[1].speed.data(),
                        sizeof(double) * outputs[0].speed.rows() *
                            outputs[0].speed.cols()),
            0)
      << "speed diverged, seed " << seed;
  EXPECT_EQ(outputs[0].spawned_trips, outputs[1].spawned_trips);
  EXPECT_EQ(outputs[0].completed_trips, outputs[1].completed_trips);
  EXPECT_EQ(outputs[0].unspawned_trips, outputs[1].unspawned_trips);
}

class RandomizedSimInvariantsTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedSimInvariantsTest, ConservationFifoAndCapacityHold) {
  constexpr int kSeedsPerChunk = 13;
  const int chunk = GetParam();
  for (int i = 0; i < kSeedsPerChunk; ++i) {
    const uint64_t seed = 9000 + chunk * kSeedsPerChunk + i;
    RunRandomizedSimConfig(seed);
    if (::testing::Test::HasFailure()) break;  // first bad seed is enough
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, RandomizedSimInvariantsTest,
                         ::testing::Range(0, 8));

// The per-link spawn order check over the first two chunks' setups, with
// trajectories recorded. At their drawn demand few trips ever wait for an
// entry link, and almost never two on one link, so each trip is added four
// times over: then entry links back up and the order among waiting trips
// decides the outputs.
TEST(RandomizedSpawnOrderTest, EntryLinksSpawnInDepartureOrder) {
  int waited = 0;
  for (uint64_t seed = 9000; seed < 9026; ++seed) {
    RandomizedSimConfig setup = DrawRandomizedSimConfig(seed);
    setup.config.record_trajectories = true;
    std::vector<sim::TripRequest> trips;
    for (const sim::TripRequest& trip : setup.trips) {
      trips.insert(trips.end(), 4, trip);
    }
    sim::Engine engine(&setup.net, setup.config);
    engine.ApplyRoadWork(setup.works);
    for (const sim::TripRequest& trip : trips) engine.AddTrip(trip);
    waited += sim::ExpectPerLinkSpawnOrder(trips, engine.Run(),
                                           setup.config.dt_s,
                                           "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) break;
  }
  // Some trips must have waited for their entry link, or the order check
  // above saw no blocking to get wrong.
  EXPECT_GT(waited, 0);
}

// ---------------------------------------------------------- Router sweeps --

class RouterGridTest : public ::testing::TestWithParam<int> {};

TEST_P(RouterGridTest, ManhattanDistanceOptimalOnUniformGrid) {
  const int side = GetParam();
  sim::RoadNet net = sim::MakeGridNetwork(side, side, 300.0, 1, 10.0);
  sim::Router router(&net);
  Rng rng(7 + side);
  for (int trial = 0; trial < 10; ++trial) {
    const int o = rng.UniformInt(0, net.num_intersections() - 1);
    const int d = rng.UniformInt(0, net.num_intersections() - 1);
    if (o == d) continue;
    StatusOr<sim::Route> route = router.ShortestRoute(o, d);
    ASSERT_TRUE(route.ok());
    // On a uniform grid the optimal hop count is the Manhattan distance.
    const int ox = o % side, oy = o / side, dx = d % side, dy = d / side;
    EXPECT_EQ(static_cast<int>(route->size()),
              std::abs(ox - dx) + std::abs(oy - dy));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RouterGridTest, ::testing::Values(2, 3, 5, 8),
                         [](const auto& param_info) {
                           return "side" + std::to_string(param_info.param);
                         });

// -------------------------------------------------------- Demand scaling --

class DemandScalingTest : public ::testing::TestWithParam<double> {};

TEST_P(DemandScalingTest, TripCountTracksTensorTotal) {
  const double level = GetParam();
  sim::RoadNet net = sim::MakeGridNetwork(3, 3, 300.0);
  od::RegionPartition regions = od::PartitionByGrid(net, 3, 3);
  od::OdSet od_set({{0, 8}, {2, 6}, {6, 2}});
  od::DemandGenerator gen(&net, &regions, &od_set, 600.0);
  od::TodTensor tod(3, 4);
  for (int i = 0; i < 3; ++i) {
    for (int t = 0; t < 4; ++t) tod.at(i, t) = level;
  }
  Rng rng(11);
  const auto trips = gen.Generate(tod, &rng);
  const double expected = tod.TotalTrips();
  EXPECT_NEAR(static_cast<double>(trips.size()), expected,
              std::max(4.0, expected * 0.1));
}

INSTANTIATE_TEST_SUITE_P(Levels, DemandScalingTest,
                         ::testing::Values(0.25, 1.0, 7.5, 40.0, 123.4),
                         [](const auto& param_info) {
                           return "level" +
                                  std::to_string(static_cast<int>(
                                      param_info.param * 100.0));
                         });

// ----------------------------------------------------- Softmax invariants --

class SoftmaxShapeTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SoftmaxShapeTest, RowsSumToOneAndOrderPreserved) {
  const auto [rows, cols] = GetParam();
  Rng rng(rows * 31 + cols);
  nn::Variable x(nn::Tensor::RandomUniform({rows, cols}, -4, 4, &rng));
  nn::Tensor y = nn::SoftmaxRows(x).value();
  for (int r = 0; r < rows; ++r) {
    float sum = 0.0f;
    int argmax_in = 0, argmax_out = 0;
    for (int c = 0; c < cols; ++c) {
      sum += y.at(r, c);
      if (x.value().at(r, c) > x.value().at(r, argmax_in)) argmax_in = c;
      if (y.at(r, c) > y.at(r, argmax_out)) argmax_out = c;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-4f);
    EXPECT_EQ(argmax_in, argmax_out);  // softmax is order-preserving
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, SoftmaxShapeTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{3, 4},
                                           std::pair{16, 5}, std::pair{64, 12}),
                         [](const auto& param_info) {
                           return std::to_string(param_info.param.first) + "x" +
                                  std::to_string(param_info.param.second);
                         });

// ----------------------------------------------------- Optimizer sweeps --

class AdamDimTest : public ::testing::TestWithParam<int> {};

TEST_P(AdamDimTest, ConvergesOnRandomQuadratic) {
  const int dim = GetParam();
  Rng rng(100 + dim);
  nn::Variable x(nn::Tensor::RandomUniform({dim}, -2, 2, &rng), true);
  nn::Tensor target = nn::Tensor::RandomUniform({dim}, -2, 2, &rng);
  nn::Adam opt({x}, 0.05f);
  for (int i = 0; i < 600; ++i) {
    opt.ZeroGrad();
    nn::MseLoss(x, target).Backward();
    opt.Step();
  }
  for (int i = 0; i < dim; ++i) EXPECT_NEAR(x.value()[i], target[i], 3e-2f);
}

INSTANTIATE_TEST_SUITE_P(Dims, AdamDimTest, ::testing::Values(1, 3, 17, 64),
                         [](const auto& param_info) {
                           std::string name = "d";
                           name += std::to_string(param_info.param);
                           return name;
                         });

// -------------------------------------------- Dataset invariants sweep --

class CityInvariantsTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(CityInvariantsTest, StructuralInvariantsHold) {
  data::DatasetConfig config;
  const std::string name = GetParam();
  if (name == "hangzhou") config = data::HangzhouConfig();
  if (name == "porto") config = data::PortoConfig();
  if (name == "manhattan") config = data::ManhattanConfig();
  if (name == "statecollege") config = data::StateCollegeConfig();
  if (name == "synthetic") config = data::Synthetic3x3Config();
  data::Dataset ds = data::BuildDataset(config);

  EXPECT_TRUE(ds.net.Validate().ok());
  EXPECT_TRUE(ds.regions.Validate(ds.net).ok());
  EXPECT_EQ(ds.incidence.rows(), ds.net.num_links());
  EXPECT_EQ(ds.incidence.cols(), ds.num_od());
  EXPECT_GE(ds.ground_truth_tod.mat().Min(), 0.0);
  // Every OD has a non-empty representative route.
  for (int i = 0; i < ds.num_od(); ++i) {
    EXPECT_FALSE(ds.od_routes[i].empty()) << "OD " << i;
    // Route endpoints live in the right regions.
    const od::OdPair& pair = ds.od_set.pair(i);
    const auto& origin_members = ds.regions.region(pair.origin).members;
    const auto& dest_members = ds.regions.region(pair.dest).members;
    const sim::IntersectionId from = ds.net.link(ds.od_routes[i].front()).from;
    const sim::IntersectionId to = ds.net.link(ds.od_routes[i].back()).to;
    EXPECT_NE(std::find(origin_members.begin(), origin_members.end(), from),
              origin_members.end());
    EXPECT_NE(std::find(dest_members.begin(), dest_members.end(), to),
              dest_members.end());
  }
  // LEHD totals are positive and close to the ground truth.
  for (int i = 0; i < ds.num_od(); ++i) {
    EXPECT_GT(ds.lehd_od_totals[i], 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Cities, CityInvariantsTest,
                         ::testing::Values("hangzhou", "porto", "manhattan",
                                           "statecollege", "synthetic"),
                         [](const auto& param_info) { return param_info.param; });

// --------------------------------------- Pattern generalization property --

class PatternHorizonTest : public ::testing::TestWithParam<int> {};

TEST_P(PatternHorizonTest, RampEndpointsIndependentOfHorizon) {
  // The Increasing/Decreasing ramps keep the paper's start and end rates
  // regardless of interval count (1 veh/min floor aside).
  const int t_count = GetParam();
  od::PatternConfig pc;
  pc.noise_stddev = 0.0;
  Rng rng(5);
  od::TodTensor inc = od::GenerateTodPattern(od::TodPattern::kIncreasing, 1,
                                             t_count, pc, &rng);
  EXPECT_NEAR(inc.at(0, 0), 5.0 * 10.0, 1e-6);                 // 5 veh/min
  EXPECT_NEAR(inc.at(0, t_count - 1), 27.0 * 10.0, 1e-6);      // 27 veh/min
  od::TodTensor dec = od::GenerateTodPattern(od::TodPattern::kDecreasing, 1,
                                             t_count, pc, &rng);
  EXPECT_NEAR(dec.at(0, 0), 20.0 * 10.0, 1e-6);
  EXPECT_NEAR(dec.at(0, t_count - 1), 0.0, 1e-6);  // floored at 0
}

INSTANTIATE_TEST_SUITE_P(Horizons, PatternHorizonTest,
                         ::testing::Values(2, 12, 24, 48),
                         [](const auto& param_info) {
                           std::string name = "T";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace ovs
