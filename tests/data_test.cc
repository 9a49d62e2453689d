#include <gtest/gtest.h>

#include "data/case_studies.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "data/rhythm.h"

namespace ovs::data {
namespace {

// ----------------------------------------------------------------- Rhythm --

TEST(RhythmTest, AlwaysPositive) {
  for (RhythmProfile p :
       {RhythmProfile::kFlat, RhythmProfile::kWeekdayCommute,
        RhythmProfile::kSundayToCommercial, RhythmProfile::kSundayToResidential,
        RhythmProfile::kEventArrival}) {
    for (double h = 0.0; h < 24.0; h += 0.25) {
      EXPECT_GT(RhythmWeight(p, h), 0.0) << RhythmProfileName(p) << " at " << h;
    }
  }
}

TEST(RhythmTest, FlatIsConstant) {
  EXPECT_DOUBLE_EQ(RhythmWeight(RhythmProfile::kFlat, 3.0),
                   RhythmWeight(RhythmProfile::kFlat, 17.0));
}

TEST(RhythmTest, WeekdayPeaksMorningAndEvening) {
  const double am = RhythmWeight(RhythmProfile::kWeekdayCommute, 8.0);
  const double noon = RhythmWeight(RhythmProfile::kWeekdayCommute, 12.5);
  const double pm = RhythmWeight(RhythmProfile::kWeekdayCommute, 18.0);
  const double night = RhythmWeight(RhythmProfile::kWeekdayCommute, 3.0);
  EXPECT_GT(am, noon);
  EXPECT_GT(pm, noon);
  EXPECT_GT(noon, night * 0.5);
  EXPECT_GT(am, night * 3.0);
}

TEST(RhythmTest, SundayShoppingPeaksTenAndSix) {
  auto w = [](double h) {
    return RhythmWeight(RhythmProfile::kSundayToCommercial, h);
  };
  EXPECT_GT(w(10.0), w(7.0));
  EXPECT_GT(w(10.0), w(14.0));
  EXPECT_GT(w(18.0), w(14.0));
}

TEST(RhythmTest, SundayHomewardPeaksLate) {
  auto w = [](double h) {
    return RhythmWeight(RhythmProfile::kSundayToResidential, h);
  };
  EXPECT_GT(w(22.0), w(12.0));
  EXPECT_GT(w(0.5), w(12.0));  // wraps past midnight (8pm-1am peak)
}

TEST(RhythmTest, EventArrivalPeaksAtNine) {
  auto w = [](double h) { return RhythmWeight(RhythmProfile::kEventArrival, h); };
  EXPECT_GT(w(9.0), w(6.0));
  EXPECT_GT(w(9.0), w(12.0));
  EXPECT_GT(w(9.0), w(15.0) * 3.0);
}

TEST(RhythmTest, HourWrapsAroundMidnight) {
  EXPECT_DOUBLE_EQ(RhythmWeight(RhythmProfile::kWeekdayCommute, 25.0),
                   RhythmWeight(RhythmProfile::kWeekdayCommute, 1.0));
  EXPECT_DOUBLE_EQ(RhythmWeight(RhythmProfile::kWeekdayCommute, -1.0),
                   RhythmWeight(RhythmProfile::kWeekdayCommute, 23.0));
}

// ----------------------------------------------------------------- Builder --

TEST(DatasetBuilderTest, SyntheticIsValid) {
  Dataset ds = BuildDataset(Synthetic3x3Config());
  EXPECT_TRUE(ds.net.Validate().ok());
  EXPECT_TRUE(ds.regions.Validate(ds.net).ok());
  EXPECT_EQ(ds.num_od(), 8);
  EXPECT_EQ(ds.num_intervals(), 12);
  EXPECT_EQ(ds.incidence.rows(), ds.net.num_links());
  EXPECT_EQ(ds.incidence.cols(), ds.num_od());
  EXPECT_GT(ds.ground_truth_tod.TotalTrips(), 0.0);
}

TEST(DatasetBuilderTest, DeterministicGivenSeed) {
  Dataset a = BuildDataset(Synthetic3x3Config());
  Dataset b = BuildDataset(Synthetic3x3Config());
  EXPECT_NEAR(Rmse(a.ground_truth_tod.mat(), b.ground_truth_tod.mat()), 0.0,
              1e-12);
  EXPECT_EQ(a.net.num_links(), b.net.num_links());
}

TEST(DatasetBuilderTest, DifferentSeedDifferentTod) {
  DatasetConfig c1 = Synthetic3x3Config();
  DatasetConfig c2 = Synthetic3x3Config();
  c2.seed = 999;
  Dataset a = BuildDataset(c1);
  Dataset b = BuildDataset(c2);
  EXPECT_GT(Rmse(a.ground_truth_tod.mat(), b.ground_truth_tod.mat()), 1.0);
}

TEST(DatasetBuilderTest, OdPairsRespectMinSeparation) {
  DatasetConfig config = Synthetic3x3Config();
  Dataset ds = BuildDataset(config);
  for (const od::OdPair& pair : ds.od_set.pairs()) {
    EXPECT_GE(ds.regions.Distance(pair.origin, pair.dest),
              config.min_od_separation_m);
  }
}

TEST(DatasetBuilderTest, RoutesMatchIncidence) {
  Dataset ds = BuildDataset(Synthetic3x3Config());
  for (int i = 0; i < ds.num_od(); ++i) {
    double marked = 0.0;
    for (int l = 0; l < ds.num_links(); ++l) marked += ds.incidence.at(l, i);
    EXPECT_DOUBLE_EQ(marked, static_cast<double>(ds.od_routes[i].size()));
  }
}

TEST(DatasetBuilderTest, LehdTracksGroundTruthTotals) {
  Dataset ds = BuildDataset(Synthetic3x3Config());
  ASSERT_EQ(static_cast<int>(ds.lehd_od_totals.size()), ds.num_od());
  for (int i = 0; i < ds.num_od(); ++i) {
    const double truth = ds.ground_truth_tod.OdTotal(i);
    EXPECT_NEAR(ds.lehd_od_totals[i], truth, truth * 0.06);
  }
}

TEST(DatasetBuilderTest, CameraLinksAreBusy) {
  Dataset ds = BuildDataset(ManhattanConfig());
  ASSERT_FALSE(ds.camera_links.empty());
  for (sim::LinkId l : ds.camera_links) {
    double crossings = 0.0;
    for (int i = 0; i < ds.num_od(); ++i) crossings += ds.incidence.at(l, i);
    EXPECT_GT(crossings, 0.0);
  }
}

TEST(DatasetBuilderTest, PopulationsPositive) {
  Dataset ds = BuildDataset(HangzhouConfig());
  for (const od::Region& r : ds.regions.regions()) {
    EXPECT_GT(r.population, 0.0);
  }
}

TEST(DatasetBuilderTest, EngineConfigMatchesHorizon) {
  Dataset ds = BuildDataset(PortoConfig());
  EXPECT_DOUBLE_EQ(ds.engine_config.interval_s, ds.config.interval_s);
  EXPECT_EQ(ds.engine_config.NumIntervals(), ds.num_intervals());
}

TEST(IrregularizeTest, KeepsConnectivity) {
  Rng rng(3);
  sim::RoadNet grid = sim::MakeGridNetwork(6, 6, 300.0);
  sim::RoadNet sparse = IrregularizeGrid(grid, 0.7, &rng);
  EXPECT_TRUE(sparse.Validate().ok());
  EXPECT_EQ(sparse.num_intersections(), 36);
  EXPECT_LT(sparse.num_links(), grid.num_links());
  // Every intersection reachable from 0 via a routing check.
  sim::Router router(&sparse);
  for (int node = 1; node < sparse.num_intersections(); ++node) {
    EXPECT_TRUE(router.CachedRoute(0, node).ok()) << "node " << node;
  }
}

TEST(IrregularizeTest, KeepFractionRespected) {
  Rng rng(4);
  sim::RoadNet grid = sim::MakeGridNetwork(6, 6, 300.0);
  sim::RoadNet sparse = IrregularizeGrid(grid, 0.8, &rng);
  const int roads_before = grid.num_links() / 2;
  const int roads_after = sparse.num_links() / 2;
  EXPECT_NEAR(roads_after, roads_before * 0.8, 3.0);
}

// -------------------------------------------------------------- City scale --

struct CityScale {
  const char* name;
  int intersections;
  int roads;
  int tolerance_roads;
};

// Without this gtest prints the raw bytes of the struct, i.e. a string-literal
// address and padding, which makes the listed test names differ per process.
void PrintTo(const CityScale& scale, std::ostream* os) { *os << scale.name; }

class CityPresetTest : public ::testing::TestWithParam<CityScale> {};

TEST_P(CityPresetTest, MatchesTableIIIScale) {
  const CityScale scale = GetParam();
  DatasetConfig config;
  if (std::string(scale.name) == "Hangzhou") config = HangzhouConfig();
  if (std::string(scale.name) == "Porto") config = PortoConfig();
  if (std::string(scale.name) == "Manhattan") config = ManhattanConfig();
  if (std::string(scale.name) == "StateCollege") config = StateCollegeConfig();
  Dataset ds = BuildDataset(config);
  EXPECT_EQ(ds.net.num_intersections(), scale.intersections);
  EXPECT_NEAR(ds.net.num_links() / 2, scale.roads, scale.tolerance_roads);
  EXPECT_TRUE(ds.net.Validate().ok());
}

INSTANTIATE_TEST_SUITE_P(
    TableIII, CityPresetTest,
    ::testing::Values(CityScale{"Hangzhou", 49, 63, 3},
                      CityScale{"Porto", 70, 100, 4},
                      CityScale{"Manhattan", 100, 180, 0},
                      CityScale{"StateCollege", 14, 16, 2}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(ScalingConfigTest, ApproximatesRequestedSize) {
  for (int n : {10, 50, 100, 500, 1000}) {
    Dataset ds = BuildDataset(ScalingConfig(n));
    EXPECT_GE(ds.net.num_intersections(), n * 9 / 10);
    EXPECT_LE(ds.net.num_intersections(), n * 14 / 10 + 4);
  }
}

// ------------------------------------------------------------- Case studies --

TEST(CaseStudyTest, Case1HasDistinctRegionsAndOds) {
  Case1Dataset c1 = BuildCase1Hangzhou();
  EXPECT_NE(c1.region_a, c1.region_b);
  EXPECT_GE(c1.od_ab, 0);
  EXPECT_GE(c1.od_ba, 0);
  EXPECT_NE(c1.od_ab, c1.od_ba);
  EXPECT_EQ(c1.dataset.num_intervals(), 24);
  const od::OdPair& ab = c1.dataset.od_set.pair(c1.od_ab);
  EXPECT_EQ(ab.origin, c1.region_a);
  EXPECT_EQ(ab.dest, c1.region_b);
}

TEST(CaseStudyTest, Case1RhythmsMatchPaperFigure12) {
  Case1Dataset c1 = BuildCase1Hangzhou();
  const od::TodTensor& tod = c1.dataset.ground_truth_tod;
  // A->B: the 9-11 am window beats the 1-4 am window clearly.
  double morning = tod.at(c1.od_ab, 9) + tod.at(c1.od_ab, 10);
  double night = tod.at(c1.od_ab, 2) + tod.at(c1.od_ab, 3);
  EXPECT_GT(morning, night * 2.0);
  // B->A: the 21-23 window beats midday.
  double late = tod.at(c1.od_ba, 21) + tod.at(c1.od_ba, 22);
  double midday = tod.at(c1.od_ba, 11) + tod.at(c1.od_ba, 12);
  EXPECT_GT(late, midday * 1.5);
}

TEST(CaseStudyTest, Case2HighwayOdsDominateLocal) {
  Case2Dataset c2 = BuildCase2StateCollege();
  const od::TodTensor& tod = c2.dataset.ground_truth_tod;
  EXPECT_GT(tod.OdTotal(c2.od_o1), tod.OdTotal(c2.od_o2) * 2.0);
  EXPECT_GT(tod.OdTotal(c2.od_o3), tod.OdTotal(c2.od_o2) * 2.0);
}

TEST(CaseStudyTest, Case2ArrivalsPeakAtNine) {
  Case2Dataset c2 = BuildCase2StateCollege();
  const od::TodTensor& tod = c2.dataset.ground_truth_tod;
  for (int od : {c2.od_o1, c2.od_o3}) {
    double peak = 0.0;
    int peak_hour = -1;
    for (int t = 0; t < 24; ++t) {
      if (tod.at(od, t) > peak) {
        peak = tod.at(od, t);
        peak_hour = t;
      }
    }
    EXPECT_GE(peak_hour, 8);
    EXPECT_LE(peak_hour, 10);
  }
}

TEST(CaseStudyTest, Case2StructureValid) {
  Case2Dataset c2 = BuildCase2StateCollege();
  EXPECT_TRUE(c2.dataset.net.Validate().ok());
  EXPECT_GE(c2.stadium_region, 0);
  const od::OdPair& o1 = c2.dataset.od_set.pair(c2.od_o1);
  EXPECT_EQ(o1.dest, c2.stadium_region);
}

}  // namespace
}  // namespace ovs::data
