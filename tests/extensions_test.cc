// Tests for the extension features: k-shortest routing with logit route
// choice (the paper's §VI future work) and road-network file I/O.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "od/demand.h"
#include "sim/roadnet_io.h"
#include "sim/router.h"

namespace ovs {
namespace {

// ------------------------------------------------------- K shortest routes

TEST(KShortestTest, FirstRouteIsTheShortest) {
  sim::RoadNet net = sim::MakeGridNetwork(3, 3, 300.0);
  sim::Router router(&net);
  StatusOr<std::vector<sim::Route>> routes = router.KShortestRoutes(0, 8, 3);
  ASSERT_TRUE(routes.ok());
  ASSERT_FALSE(routes->empty());
  sim::Route best = router.ShortestRoute(0, 8).value();
  EXPECT_NEAR(router.RouteFreeFlowTime((*routes)[0]),
              router.RouteFreeFlowTime(best), 1e-9);
}

TEST(KShortestTest, RoutesAreDistinctAndSorted) {
  sim::RoadNet net = sim::MakeGridNetwork(4, 4, 300.0);
  sim::Router router(&net);
  StatusOr<std::vector<sim::Route>> routes = router.KShortestRoutes(0, 15, 5);
  ASSERT_TRUE(routes.ok());
  EXPECT_GE(routes->size(), 3u);  // a 4x4 grid has many alternatives
  for (size_t i = 0; i + 1 < routes->size(); ++i) {
    EXPECT_NE((*routes)[i], (*routes)[i + 1]);
    EXPECT_LE(router.RouteFreeFlowTime((*routes)[i]),
              router.RouteFreeFlowTime((*routes)[i + 1]) + 1e-9);
  }
}

TEST(KShortestTest, RoutesAreConnectedAndLoopless) {
  sim::RoadNet net = sim::MakeGridNetwork(4, 4, 300.0);
  sim::Router router(&net);
  StatusOr<std::vector<sim::Route>> routes = router.KShortestRoutes(0, 15, 6);
  ASSERT_TRUE(routes.ok());
  for (const sim::Route& route : *routes) {
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(net.link(route.front()).from, 0);
    EXPECT_EQ(net.link(route.back()).to, 15);
    std::set<sim::IntersectionId> visited{0};
    for (size_t i = 0; i < route.size(); ++i) {
      if (i + 1 < route.size()) {
        EXPECT_EQ(net.link(route[i]).to, net.link(route[i + 1]).from);
      }
      EXPECT_TRUE(visited.insert(net.link(route[i]).to).second)
          << "route revisits an intersection";
    }
  }
}

TEST(KShortestTest, SingleCorridorHasOneRoute) {
  sim::RoadNet net = sim::MakeGridNetwork(1, 4, 300.0);
  sim::Router router(&net);
  StatusOr<std::vector<sim::Route>> routes = router.KShortestRoutes(0, 3, 5);
  ASSERT_TRUE(routes.ok());
  EXPECT_EQ(routes->size(), 1u);
}

TEST(KShortestTest, NoPathFails) {
  sim::RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(100, 0);
  EXPECT_FALSE(net.Validate().ok() && false);  // net valid check elsewhere
  sim::Router router(&net);
  EXPECT_FALSE(router.KShortestRoutes(0, 1, 3).ok());
}

// ------------------------------------------------------- Logit route choice

TEST(MultiRouteDemandTest, SpreadsTripsAcrossAlternatives) {
  sim::RoadNet net = sim::MakeGridNetwork(3, 3, 300.0);
  od::RegionPartition regions = od::PartitionByGrid(net, 3, 3);
  od::OdSet od_set({{0, 8}});  // corner to corner: several equal-cost routes
  od::DemandGenerator::Options options;
  options.routes_per_od = 4;
  od::DemandGenerator gen(&net, &regions, &od_set, 600.0, options);
  od::TodTensor tod(1, 1);
  tod.at(0, 0) = 400.0;
  Rng rng(3);
  std::vector<sim::TripRequest> trips = gen.Generate(tod, &rng);
  ASSERT_GT(trips.size(), 350u);
  std::set<sim::Route> distinct;
  for (const sim::TripRequest& trip : trips) distinct.insert(trip.route);
  EXPECT_GE(distinct.size(), 2u) << "logit choice should use alternatives";
}

TEST(MultiRouteDemandTest, SingleRouteModeMatchesShortest) {
  sim::RoadNet net = sim::MakeGridNetwork(3, 3, 300.0);
  od::RegionPartition regions = od::PartitionByGrid(net, 3, 3);
  od::OdSet od_set({{0, 8}});
  od::DemandGenerator gen(&net, &regions, &od_set, 600.0);
  od::TodTensor tod(1, 1);
  tod.at(0, 0) = 50.0;
  Rng rng(4);
  std::vector<sim::TripRequest> trips = gen.Generate(tod, &rng);
  sim::Router router(&net);
  sim::Route shortest = router.ShortestRoute(0, 8).value();
  for (const sim::TripRequest& trip : trips) {
    EXPECT_EQ(trip.route, shortest);
  }
}

TEST(MultiRouteDemandTest, HighThetaConcentratesOnBest) {
  // With a strong cost penalty, almost all trips take the cheapest route in
  // a network where the detour is clearly longer.
  sim::RoadNet net;
  net.AddIntersection(0, 0);
  net.AddIntersection(600, 0);
  net.AddIntersection(300, 400);
  net.AddRoad(0, 1, 600.0, 1, 13.9);   // direct: ~43 s
  net.AddRoad(0, 2, 500.0, 1, 13.9);   // detour: ~72 s
  net.AddRoad(2, 1, 500.0, 1, 13.9);
  od::RegionPartition regions;
  regions.AddRegion(net, {0});
  regions.AddRegion(net, {1});
  regions.AddRegion(net, {2});
  od::OdSet od_set({{0, 1}});
  od::DemandGenerator::Options options;
  options.routes_per_od = 2;
  options.logit_theta = 1.0;  // very sharp
  od::DemandGenerator gen(&net, &regions, &od_set, 600.0, options);
  od::TodTensor tod(1, 1);
  tod.at(0, 0) = 200.0;
  Rng rng(5);
  std::vector<sim::TripRequest> trips = gen.Generate(tod, &rng);
  int direct = 0;
  for (const sim::TripRequest& trip : trips) {
    if (trip.route.size() == 1) ++direct;
  }
  EXPECT_GT(direct, static_cast<int>(trips.size()) * 9 / 10);
}

// ------------------------------------------------------------- RoadNet I/O

TEST(RoadNetIoTest, RoundTrip) {
  sim::RoadNet net = sim::MakeGridNetwork(3, 4, 250.0, 2, 16.7);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_net_test.txt").string();
  ASSERT_TRUE(sim::SaveRoadNet(net, path).ok());
  StatusOr<sim::RoadNet> loaded = sim::LoadRoadNet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->num_intersections(), net.num_intersections());
  EXPECT_EQ(loaded->num_links(), net.num_links());
  for (int l = 0; l < net.num_links(); ++l) {
    EXPECT_EQ(loaded->link(l).from, net.link(l).from);
    EXPECT_EQ(loaded->link(l).to, net.link(l).to);
    EXPECT_NEAR(loaded->link(l).length_m, net.link(l).length_m, 1e-3);
    EXPECT_EQ(loaded->link(l).num_lanes, net.link(l).num_lanes);
    EXPECT_NEAR(loaded->link(l).speed_limit_mps, net.link(l).speed_limit_mps,
                1e-3);
  }
  std::remove(path.c_str());
}

TEST(RoadNetIoTest, PreservesSignalizationFlag) {
  sim::RoadNet net;
  net.AddIntersection(0, 0, true);
  net.AddIntersection(100, 0, false);
  net.AddRoad(0, 1, 100.0, 1, 10.0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_net_sig.txt").string();
  ASSERT_TRUE(sim::SaveRoadNet(net, path).ok());
  StatusOr<sim::RoadNet> loaded = sim::LoadRoadNet(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->intersection(0).signalized);
  EXPECT_FALSE(loaded->intersection(1).signalized);
  std::remove(path.c_str());
}

TEST(RoadNetIoTest, MissingFileFails) {
  EXPECT_EQ(sim::LoadRoadNet("/nonexistent/net.txt").status().code(),
            StatusCode::kNotFound);
}

TEST(RoadNetIoTest, CorruptFileFails) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_net_bad.txt").string();
  {
    std::ofstream out(path);
    out << "garbage\n";
  }
  EXPECT_EQ(sim::LoadRoadNet(path).status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// One bad row per case, each in an otherwise valid two-node file. Every one
// must come back as a status naming the line, not abort the process in
// RoadNet::AddLink's CHECKs.
TEST(RoadNetIoTest, BadRowsReturnStatusInsteadOfAborting) {
  struct BadRow {
    const char* what;
    const char* node1;  // second intersection row
    const char* link;   // the one link row
  };
  const BadRow cases[] = {
      {"endpoint out of range", "1,100,0,1", "0,0,2,100,1,10"},
      {"negative endpoint", "1,100,0,1", "0,-1,1,100,1,10"},
      {"self-loop", "1,100,0,1", "0,1,1,100,1,10"},
      {"zero length", "1,100,0,1", "0,0,1,0,1,10"},
      {"negative length", "1,100,0,1", "0,0,1,-5,1,10"},
      {"nan length", "1,100,0,1", "0,0,1,nan,1,10"},
      {"infinite length", "1,100,0,1", "0,0,1,inf,1,10"},
      {"zero lanes", "1,100,0,1", "0,0,1,100,0,10"},
      {"lanes above the cap", "1,100,0,1", "0,0,1,100,17,10"},
      {"lanes at INT_MAX", "1,100,0,1", "0,0,1,100,2147483647,10"},
      {"zero speed limit", "1,100,0,1", "0,0,1,100,1,0"},
      {"nan speed limit", "1,100,0,1", "0,0,1,100,1,nan"},
      {"infinite speed limit", "1,100,0,1", "0,0,1,100,1,inf"},
      {"nan x", "1,nan,0,1", "0,0,1,100,1,10"},
      {"infinite y", "1,100,-inf,1", "0,0,1,100,1,10"},
  };
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_net_badrow.txt").string();
  for (const BadRow& c : cases) {
    {
      std::ofstream out(path);
      out << "OVSNET,1\nintersections,2\n0,0,0,1\n"
          << c.node1 << "\nlinks,1\n" << c.link << "\n";
    }
    StatusOr<sim::RoadNet> loaded = sim::LoadRoadNet(path);
    ASSERT_FALSE(loaded.ok()) << c.what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss) << c.what;
    EXPECT_NE(loaded.status().message().find(path + ":"), std::string::npos)
        << c.what << ": " << loaded.status();
  }
  std::remove(path.c_str());
}

TEST(RoadNetIoTest, SaveRejectsInvalidNetwork) {
  sim::RoadNet empty;
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_net_empty.txt").string();
  EXPECT_FALSE(sim::SaveRoadNet(empty, path).ok());
}

}  // namespace
}  // namespace ovs
