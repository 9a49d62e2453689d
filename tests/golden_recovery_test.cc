// Golden outputs of TOD recovery (paper §V-E): OvsTrainer::RecoverTod fits
// module 1 to observed speed through the frozen modules 2-3. A small model is
// trained once on synthetic3x3; every case recovers from a fresh copy of it at
// a tiny fixed budget and must reproduce, at pools 1 and 4, a pinned 64-bit
// FNV-1a hash of the recovered TOD's bits and its exact RMSE against the
// hidden TOD. The cases are the five Table VIII pattern TODs, fig14's
// 30%-dropout observation with the observation mask on and off, a
// census+camera auxiliary-loss fit and a 3-restart fit. One more test pins the
// bytes of a served `recover` response.
//
// These literals are the reference that every op, kernel and recovery-loop
// change is compared against. On a mismatch a test prints the actual value as
// a literal; to re-pin after an intended output change, run
//   ./build/tests/ovs_tests --gtest_filter='*GoldenRecoveryTest.*'
// and paste each printed literal over its row.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/aux_loss.h"
#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "od/patterns.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/sensor_faults.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

// Pinned recoveries: FNV-1a of the recovered TOD's bytes, row-major,
// and PaperRmse against the hidden TOD. Paste a failure's printed line over
// its row to re-pin after an intended output change.
struct GoldenRecovery {
  const char* name;
  uint64_t hash;
  double rmse;
};
constexpr GoldenRecovery kGoldenRecoveries[] = {
    {"table8-Random", 0x49c0fc9c8bb3f6e3ull, 33.164032160775285},
    {"table8-Increasing", 0xd3cdd7f0dd265817ull, 40.589227682581672},
    {"table8-Decreasing", 0xd20606d8bd2d9d0cull, 35.66483671932852},
    {"table8-Gaussian", 0xed77438df9a65368ull, 13.570152643163873},
    {"table8-Poisson", 0x573e21a2e27a2e78ull, 53.09320113544473},
    {"fig14-dropout30-masked", 0x27b32b18b6ff220eull, 20.753380364547443},
    {"fig14-dropout30-unmasked", 0x4d4f43b95f4bbf90ull, 22.655258603225715},
    {"aux-census-camera", 0x06b39083125f1e32ull, 27.233984558332992},
    {"restarts-3", 0x1e3865c44f7b6ec5ull, 20.602265197453391},
};

// The served `recover` response, byte for byte.
constexpr const char* kGoldenServeResponse =
    R"({"id":"golden","ok":true,"city":"synthetic3x3","snapshot_version)"
    R"(":1,"loss":0.028655283153057098,"tod":[[56.275184631347656,66.76)"
    R"(6220092773438,62.760517120361328,55.038070678710938,64.217590332)"
    R"(03125,60.832576751708984,75.525611877441406,63.053646087646484,7)"
    R"(3.346443176269531,60.299160003662109,67.881439208984375,64.47058)"
    R"(8684082031],[65.182838439941406,68.7310791015625,68.444786071777)"
    R"(344,73.350517272949219,70.297576904296875,62.689853668212891,72.)"
    R"(832893371582031,66.35308837890625,74.201377868652344,60.57061386)"
    R"(1083984,70.103866577148438,51.817314147949219],[78.5192794799804)"
    R"(69,73.269989013671875,63.435939788818359,75.548599243164062,67.4)"
    R"(10392761230469,66.625205993652344,56.361072540283203,71.26219940)"
    R"(1855469,75.38641357421875,56.451675415039062,71.612777709960938,)"
    R"(75.069793701171875],[61.014904022216797,60.652187347412109,59.37)"
    R"(5286102294922,55.647003173828125,64.163307189941406,50.001354217)"
    R"(529297,64.811111450195312,69.873130798339844,59.024772644042969,)"
    R"(73.9544677734375,67.700492858886719,55.401241302490234],[58.9671)"
    R"(13494873047,66.125198364257812,76.344696044921875,73.26637268066)"
    R"(4062,69.5830078125,73.746658325195312,70.322341918945312,58.4651)"
    R"(56555175781,58.810203552246094,69.071426391601562,52.89457321166)"
    R"(9922,74.639404296875],[77.337440490722656,57.976524353027344,71.)"
    R"(325111389160156,68.175827026367188,74.649192810058594,67.2143936)"
    R"(15722656,63.075252532958984,63.007053375244141,55.61589050292968)"
    R"(8,81.424964904785156,61.726932525634766,60.921981811523438],[61.)"
    R"(805027008056641,58.9376220703125,59.786399841308594,65.701545715)"
    R"(332031,55.929492950439453,57.530353546142578,58.611076354980469,)"
    R"(63.191234588623047,67.552375793457031,62.421920776367188,68.6165)"
    R"(54260253906,65.702690124511719],[68.437324523925781,78.249488830)"
    R"(566406,69.619987487792969,62.559734344482422,64.370864868164062,)"
    R"(84.486740112304688,64.839370727539062,75.175811767578125,63.7768)"
    R"(21136474609,58.625553131103516,67.608863830566406,78.60753631591)"
    R"(7969]]})";

// Restores the global pool size on scope exit so test order does not matter.
struct ThreadGuard {
  explicit ThreadGuard(int threads) : before(GlobalThreadCount()) {
    SetGlobalThreads(threads);
  }
  ~ThreadGuard() { SetGlobalThreads(before); }
  int before;
};

// FNV-1a over the bytes of the cells, row-major. Byte-wise, not word-wise:
// the cells are widened floats, so the low 29 bits of every double are zero
// and a word-wise fold would leave the hash's low bits constant.
uint64_t HashTod(const od::TodTensor& tod) {
  uint64_t h = 1469598103934665603ull;
  const DMat& m = tod.mat();
  const auto* bytes = reinterpret_cast<const unsigned char*>(m.data());
  for (size_t i = 0; i < sizeof(double) * m.numel(); ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

void ExpectGoldenRecovery(const std::string& name,
                          const od::TodTensor& recovered,
                          const od::TodTensor& hidden) {
  const uint64_t hash = HashTod(recovered);
  const double rmse = eval::PaperRmse(recovered.mat(), hidden.mat());
  char literal[128];
  std::snprintf(literal, sizeof(literal), "{\"%s\", 0x%016" PRIx64 "ull, %.17g},",
                name.c_str(), hash, rmse);
  for (const GoldenRecovery& golden : kGoldenRecoveries) {
    if (name != golden.name) continue;
    EXPECT_EQ(hash, golden.hash)
        << name << " recovered TOD changed; actual: " << literal;
    EXPECT_EQ(rmse, golden.rmse) << name << " RMSE changed; actual: " << literal;
    return;
  }
  ADD_FAILURE() << "no golden recovery for " << name << "; actual: " << literal;
}

// `bytes` as adjacent raw-string chunks that paste over kGoldenServeResponse.
std::string RawStringLiteral(const std::string& bytes) {
  constexpr size_t kChunk = 64;
  std::string out;
  for (size_t i = 0; i < bytes.size(); i += kChunk) {
    out += "\n    R\"(" + bytes.substr(i, kChunk) + ")\"";
  }
  return out + ";";
}

// synthetic3x3 with a small model trained once (three simulated samples,
// eight epochs per stage) and shared by every case.
struct TrainedCity {
  TrainedCity()
      : dataset(data::BuildDataset(data::Synthetic3x3Config())),
        train(core::GenerateTrainingData(dataset, 3, 42)),
        truth(core::SimulateGroundTruth(dataset, 4242)) {
    config.lstm_hidden = 8;
    config.speed_head_hidden = 8;
    config.tod_scale = static_cast<float>(train.tod_scale);
    config.volume_norm = static_cast<float>(train.volume_norm);
    config.speed_scale = static_cast<float>(train.speed_scale);
    model = NewModel();
    core::TrainerConfig tc;
    tc.stage1_epochs = 8;
    tc.stage2_epochs = 8;
    core::OvsTrainer trainer(model.get(), tc);
    CHECK_OK(trainer.TrainVolumeSpeed(train).status());
    CHECK_OK(trainer.TrainTodVolume(train).status());
  }

  std::unique_ptr<core::OvsModel> NewModel() const {
    Rng init(9);
    return std::make_unique<core::OvsModel>(
        dataset.num_od(), dataset.num_links(), dataset.num_intervals(),
        dataset.incidence, config, &init);
  }

  // Recovers on a fresh copy of the trained model, so no case sees the
  // generator state another case's recovery left behind.
  od::TodTensor Recover(const core::TrainerConfig& tc, const DMat& observed,
                        const core::AuxLossSet* aux = nullptr) const {
    std::unique_ptr<core::OvsModel> copy = NewModel();
    copy->CopyParametersFrom(*model);
    core::OvsTrainer trainer(copy.get(), tc);
    trainer.PrimeRecoveryPrior(train);
    Rng rng(31);
    return trainer.RecoverTod(observed, aux, &rng).value();
  }

  data::Dataset dataset;
  core::TrainingData train;
  core::TrainingSample truth;  // the hidden TOD and its clean observation
  core::OvsConfig config;
  std::unique_ptr<core::OvsModel> model;
};

const TrainedCity& Trained() {
  static const TrainedCity city;
  return city;
}

core::TrainerConfig RecoveryBudget() {
  core::TrainerConfig tc;
  tc.recovery_epochs = 10;
  return tc;
}

// The parameter is the pool size.
class GoldenRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenRecoveryTest, RecoveredTodsMatchGoldenHashesAndRmse) {
  ThreadGuard guard(GetParam());
  const TrainedCity& city = Trained();

  // Table VIII: each pattern's hidden TOD, drawn and simulated as
  // bench/table8_synthetic.cc does.
  const data::DatasetConfig dataset_config = data::Synthetic3x3Config();
  od::PatternConfig pattern_config;
  pattern_config.interval_minutes = dataset_config.interval_s / 60.0;
  pattern_config.rate_scale = dataset_config.mean_trips_per_od_interval /
                              (10.0 * pattern_config.interval_minutes);
  for (od::TodPattern pattern : od::AllTodPatterns()) {
    const std::string name = "table8-" + od::TodPatternName(pattern);
    SCOPED_TRACE(name);
    Rng pattern_rng(555 + static_cast<int>(pattern));
    const od::TodTensor hidden = od::GenerateTodPattern(
        pattern, city.dataset.num_od(), city.dataset.num_intervals(),
        pattern_config, &pattern_rng);
    const DMat observed = core::SimulateTod(city.dataset, hidden, 4242).speed;
    ExpectGoldenRecovery(name, city.Recover(RecoveryBudget(), observed),
                         hidden);
  }

  // fig14: 30% of the speed cells dropped, recovered with the observation
  // mask and without it (dropped cells read as 0 m/s).
  sim::SensorFaultConfig dropout30;
  dropout30.dropout = 0.3;
  DMat degraded = city.truth.speed;
  sim::ApplySensorFaults(dropout30, &degraded, /*volume=*/nullptr);
  ASSERT_GT(sim::CountInvalidCells(degraded), 0);
  {
    SCOPED_TRACE("fig14-dropout30-masked");
    ExpectGoldenRecovery("fig14-dropout30-masked",
                         city.Recover(RecoveryBudget(), degraded),
                         city.truth.tod);
  }
  {
    SCOPED_TRACE("fig14-dropout30-unmasked");
    core::TrainerConfig unmasked = RecoveryBudget();
    unmasked.mask_observations = false;
    ExpectGoldenRecovery("fig14-dropout30-unmasked",
                         city.Recover(unmasked, degraded), city.truth.tod);
  }

  // Census (LEHD totals) and camera (true volume on the camera links)
  // auxiliary losses, paper Eq. 13.
  {
    SCOPED_TRACE("aux-census-camera");
    const data::Dataset& ds = city.dataset;
    ASSERT_FALSE(ds.lehd_od_totals.empty());
    ASSERT_FALSE(ds.camera_links.empty());
    core::AuxLossWeights weights;
    weights.census = 1.0f;
    weights.camera = 1.0f;
    core::AuxLossSet aux(weights);
    aux.SetCensusTargets(ds.lehd_od_totals, city.train.tod_scale,
                         ds.num_intervals());
    const std::vector<int> links(ds.camera_links.begin(),
                                 ds.camera_links.end());
    DMat camera(static_cast<int>(links.size()), ds.num_intervals());
    for (size_t i = 0; i < links.size(); ++i) {
      for (int t = 0; t < ds.num_intervals(); ++t) {
        camera.at(static_cast<int>(i), t) = city.truth.volume.at(links[i], t);
      }
    }
    aux.SetCameraObservations(links, camera, city.train.volume_norm);
    ExpectGoldenRecovery("aux-census-camera",
                         city.Recover(RecoveryBudget(), city.truth.speed, &aux),
                         city.truth.tod);
  }

  {
    SCOPED_TRACE("restarts-3");
    core::TrainerConfig restarts = RecoveryBudget();
    restarts.recovery_restarts = 3;
    ExpectGoldenRecovery("restarts-3",
                         city.Recover(restarts, city.truth.speed),
                         city.truth.tod);
  }
}

TEST_P(GoldenRecoveryTest, ServedRecoverResponseMatchesGoldenBytes) {
  ThreadGuard guard(GetParam());
  serve::ServerOptions options;
  options.admission.workers_per_shard = 1;
  options.default_recovery_epochs = 3;
  serve::RecoveryServer server(options);
  serve::CityOptions city;
  city.dataset = data::Synthetic3x3Config();
  city.model.lstm_hidden = 8;
  city.model.speed_head_hidden = 8;
  city.train_samples = 3;
  city.stage1_epochs = 4;
  city.stage2_epochs = 4;
  ASSERT_TRUE(server.RegisterCity("synthetic3x3", city).ok());

  serve::Request request;
  request.id = "golden";
  request.method = serve::Method::kRecover;
  request.city = "synthetic3x3";
  request.seed = 5;
  request.restarts = 2;
  request.observed_speed = Trained().truth.speed;
  const std::string bytes = serve::SerializeResponse(server.Handle(request));
  EXPECT_EQ(bytes, kGoldenServeResponse)
      << "served response changed; actual:" << RawStringLiteral(bytes);
}

INSTANTIATE_TEST_SUITE_P(Pool, GoldenRecoveryTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace ovs
