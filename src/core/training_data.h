#ifndef OVS_CORE_TRAINING_DATA_H_
#define OVS_CORE_TRAINING_DATA_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "od/tod_tensor.h"
#include "util/mat.h"

namespace ovs::core {

/// One simulator-generated triple (paper §V-D): a TOD tensor and the volume
/// and speed tensors the simulator produced from it.
struct TrainingSample {
  od::TodTensor tod;  ///< [N_od x T]
  DMat volume;        ///< [M x T]
  DMat speed;         ///< [M x T], m/s
};

/// A generated training set plus the normalization scales derived from it.
struct TrainingData {
  std::vector<TrainingSample> samples;
  double tod_scale = 1.0;
  double volume_norm = 1.0;
  double speed_scale = 1.0;
};

/// Implements the paper's data-preprocess protocol (Fig. 7, training stage):
/// generate `num_samples` TOD tensors (each 20% slice follows one of the
/// five patterns, scaled to the dataset's demand level), push each through
/// the microscopic simulator, and collect (TOD, volume, speed). The
/// simulations run concurrently on the global pool; sample i is always
/// SimulateTod(dataset, tod_i, seed + 1000 + i), bitwise, at any pool size.
TrainingData GenerateTrainingData(const data::Dataset& dataset, int num_samples,
                                  uint64_t seed);

/// The paper's testing-stage protocol: simulate the ground-truth TOD and
/// return its (volume, speed) as the hidden ground truth.
TrainingSample SimulateGroundTruth(const data::Dataset& dataset, uint64_t seed);

/// Simulates an arbitrary TOD tensor on the dataset's network — the
/// `TOD -> (volume, speed)` oracle used for evaluation and search baselines.
TrainingSample SimulateTod(const data::Dataset& dataset,
                           const od::TodTensor& tod, uint64_t seed,
                           const std::vector<sim::RoadWork>& works = {});

}  // namespace ovs::core

#endif  // OVS_CORE_TRAINING_DATA_H_
