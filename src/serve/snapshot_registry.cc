#include "serve/snapshot_registry.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "util/atomic_file.h"
#include "util/rng.h"

namespace ovs::serve {

namespace {

/// Deep-copies a model's named parameters into a snapshot weight map.
std::map<std::string, nn::Tensor> SnapshotWeights(const core::OvsModel& model) {
  std::map<std::string, nn::Tensor> out;
  for (const auto& [name, v] : model.NamedParameters()) {
    out.emplace(name, v.value());
  }
  return out;
}

}  // namespace

Status SnapshotRegistry::RegisterCity(const std::string& city,
                                      const CityOptions& options) {
  if (options.train_samples < 1) {
    return Status::InvalidArgument("train_samples must be >= 1, got " +
                                   std::to_string(options.train_samples));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cities_.count(city) > 0) {
      return Status::FailedPrecondition("city already registered: " + city);
    }
  }
  auto state = std::make_unique<CityState>();
  state->dataset = data::BuildDataset(options.dataset);
  state->train = core::GenerateTrainingData(state->dataset,
                                            options.train_samples,
                                            options.train_seed);
  state->config = options.model;
  state->config.tod_scale = static_cast<float>(state->train.tod_scale);
  state->config.volume_norm = static_cast<float>(state->train.volume_norm);
  state->config.speed_scale = static_cast<float>(state->train.speed_scale);

  Rng rng(options.train_seed * 2654435761u + 3);
  core::OvsModel model(state->dataset.num_od(), state->dataset.num_links(),
                       state->dataset.num_intervals(), state->dataset.incidence,
                       state->config, &rng);
  core::TrainerConfig tc;
  tc.stage1_epochs = options.stage1_epochs;
  tc.stage2_epochs = options.stage2_epochs;
  core::OvsTrainer trainer(&model, tc);
  RETURN_IF_ERROR(trainer.TrainVolumeSpeed(state->train).status());
  RETURN_IF_ERROR(trainer.TrainTodVolume(state->train).status());

  auto snapshot = std::make_shared<CitySnapshot>();
  snapshot->weights = SnapshotWeights(model);
  snapshot->version = 1;
  state->snapshot = std::move(snapshot);

  std::lock_guard<std::mutex> lock(mu_);
  if (cities_.count(city) > 0) {
    return Status::FailedPrecondition("city already registered: " + city);
  }
  cities_.emplace(city, std::move(state));
  obs::SetGaugeDynamic("serve.snapshot_version." + city, 1.0);
  return Status::Ok();
}

StatusOr<SnapshotRegistry::CityRef> SnapshotRegistry::Get(
    const std::string& city) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cities_.find(city);
  if (it == cities_.end()) {
    return Status::NotFound("unknown city: " + city);
  }
  CityRef ref;
  ref.dataset = &it->second->dataset;
  ref.train = &it->second->train;
  ref.config = it->second->config;
  ref.snapshot = it->second->snapshot;
  return ref;
}

StatusOr<uint64_t> SnapshotRegistry::Reload(const std::string& city,
                                            const std::string& path) {
  // Stage the whole file in memory first: validation must finish before any
  // serving state is touched, and the fault drill corrupts these bytes to
  // prove that a failed validation leaves the old snapshot serving.
  auto fail = [](Status s) -> StatusOr<uint64_t> {
    OVS_COUNTER_INC("serve.reload.failure");
    return s;
  };
  std::shared_ptr<const CitySnapshot> current;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cities_.find(city);
    if (it == cities_.end()) return fail(Status::NotFound("unknown city: " + city));
    current = it->second->snapshot;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return fail(Status::NotFound("cannot open for read: " + path));
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = std::move(buf).str();
  if (!in.good() && !in.eof()) {
    return fail(Status::DataLoss("read failed: " + path));
  }
  if (faults_ != nullptr && faults_->TakeCorruptReload()) {
    faults_->CorruptBytes(&bytes);
  }

  std::map<std::string, nn::Tensor> loaded;
  std::istringstream is(bytes);
  Status parsed = nn::LoadNamedTensors(is, path,
                                       static_cast<int64_t>(bytes.size()),
                                       &loaded);
  if (!parsed.ok()) return fail(std::move(parsed));

  // The staged weights must describe the same architecture the city serves:
  // same parameter names, same shapes. Anything else is a config mixup the
  // server must refuse, not adopt.
  if (loaded.size() != current->weights.size()) {
    return fail(Status::InvalidArgument(
        "parameter count mismatch reloading " + city + " from " + path));
  }
  for (const auto& [name, t] : current->weights) {
    auto it = loaded.find(name);
    if (it == loaded.end()) {
      return fail(Status::InvalidArgument("missing parameter " + name +
                                          " reloading " + city));
    }
    if (!it->second.SameShape(t)) {
      return fail(Status::InvalidArgument("shape mismatch for " + name +
                                          " reloading " + city));
    }
  }

  auto snapshot = std::make_shared<CitySnapshot>();
  snapshot->weights = std::move(loaded);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cities_.find(city);
    if (it == cities_.end()) return fail(Status::NotFound("unknown city: " + city));
    snapshot->version = it->second->snapshot->version + 1;
    it->second->snapshot = snapshot;
  }
  OVS_COUNTER_INC("serve.reload.success");
  obs::SetGaugeDynamic("serve.snapshot_version." + city,
                       static_cast<double>(snapshot->version));
  return snapshot->version;
}

Status SnapshotRegistry::SaveSnapshot(const std::string& city,
                                      const std::string& path) const {
  std::shared_ptr<const CitySnapshot> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cities_.find(city);
    if (it == cities_.end()) return Status::NotFound("unknown city: " + city);
    snapshot = it->second->snapshot;
  }
  AtomicFileWriter writer(path);
  RETURN_IF_ERROR(writer.status());
  std::vector<std::pair<std::string, const nn::Tensor*>> tensors;
  tensors.reserve(snapshot->weights.size());
  for (const auto& [name, t] : snapshot->weights) {
    tensors.emplace_back(name, &t);
  }
  nn::WriteNamedTensors(writer.stream(), tensors);
  return writer.Commit();
}

std::vector<std::string> SnapshotRegistry::Cities() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(cities_.size());
  for (const auto& [name, state] : cities_) out.push_back(name);
  return out;
}

StatusOr<uint64_t> SnapshotRegistry::Version(const std::string& city) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cities_.find(city);
  if (it == cities_.end()) return Status::NotFound("unknown city: " + city);
  return it->second->snapshot->version;
}

}  // namespace ovs::serve
