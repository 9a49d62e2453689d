#ifndef OVS_SERVE_SNAPSHOT_REGISTRY_H_
#define OVS_SERVE_SNAPSHOT_REGISTRY_H_

// Per-city registry of frozen module-2/3 weights served as copy-on-write
// snapshots. Request handlers grab a shared_ptr to the current snapshot and
// keep computing against it even while a hot-reload swaps in a newer one;
// the old weights die with their last reader. Hot-reload is all-or-nothing:
// the staged file is read fully into memory, CRC-validated record by record
// (nn/serialize), and shape-checked against the serving snapshot before the
// pointer swap — a corrupt, torn, or mismatched checkpoint leaves the
// previous snapshot serving and only bumps serve.reload.failure.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ovs_config.h"
#include "core/training_data.h"
#include "data/dataset.h"
#include "nn/tensor.h"
#include "serve/fault_injection.h"
#include "util/status.h"

namespace ovs::serve {

/// Immutable weight set: every named parameter of an OvsModel (the frozen
/// tod_volume.* / volume_speed.* mappings plus the tod_generation.* starting
/// point handlers fine-tune from).
struct CitySnapshot {
  std::map<std::string, nn::Tensor> weights;
  uint64_t version = 0;
};

/// How RegisterCity builds and trains a city entry. Epoch counts default to
/// the fast-bench scale; raise them for real deployments.
struct CityOptions {
  data::DatasetConfig dataset;
  core::OvsConfig model;  ///< scales are overwritten from the training data
  int train_samples = 6;
  int stage1_epochs = 8;
  int stage2_epochs = 8;
  uint32_t train_seed = 7;
};

class SnapshotRegistry {
 public:
  /// `faults` (optional, not owned) corrupts staged reload bytes when the
  /// drill arms it — upstream of CRC validation, exactly where bit rot or a
  /// concurrent truncation would land.
  explicit SnapshotRegistry(FaultInjector* faults = nullptr)
      : faults_(faults) {}

  /// Builds the dataset and simulator training data, trains modules 2/3,
  /// and installs snapshot version 1. FailedPrecondition on duplicates,
  /// InvalidArgument when `options.train_samples` < 1.
  Status RegisterCity(const std::string& city, const CityOptions& options);

  /// Immutable request-scoped view. `dataset`/`train` stay valid for the
  /// registry's lifetime; `snapshot` pins the weights current at call time.
  struct CityRef {
    const data::Dataset* dataset = nullptr;
    const core::TrainingData* train = nullptr;
    core::OvsConfig config;
    std::shared_ptr<const CitySnapshot> snapshot;
  };
  StatusOr<CityRef> Get(const std::string& city) const;

  /// Atomic hot-reload from an OVSM weights file (written by SaveSnapshot or
  /// nn::Module::Save). Returns the new snapshot version on success. On ANY
  /// failure the previous snapshot keeps serving untouched.
  StatusOr<uint64_t> Reload(const std::string& city, const std::string& path);

  /// Writes the city's current snapshot as an OVSM v2 file (atomic, CRC'd),
  /// suitable for a later Reload.
  Status SaveSnapshot(const std::string& city, const std::string& path) const;

  std::vector<std::string> Cities() const;
  StatusOr<uint64_t> Version(const std::string& city) const;

 private:
  struct CityState {
    data::Dataset dataset;
    core::TrainingData train;
    core::OvsConfig config;
    std::shared_ptr<const CitySnapshot> snapshot;  // guarded by mu_
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<CityState>> cities_;
  FaultInjector* faults_ = nullptr;
};

}  // namespace ovs::serve

#endif  // OVS_SERVE_SNAPSHOT_REGISTRY_H_
