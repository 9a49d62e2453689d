#include "sim/sensor_faults.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "util/parse.h"
#include "util/rng.h"

namespace ovs::sim {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Per-model stream tags: each fault model gets an independent Rng so that
/// enabling or disabling one model never shifts another's random pattern.
enum StreamTag : uint64_t {
  kStuckStream = 1,
  kNoiseStream = 2,
  kSpikeStream = 3,
  kDropoutStream = 4,
  kBlackoutStream = 5,
  kPoisonStream = 6,
};

Rng StreamRng(const SensorFaultConfig& config, StreamTag tag) {
  return Rng(config.seed * 0x9E3779B97F4A7C15ULL + tag);
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

std::string SensorFaultConfig::ToString() const {
  std::string out;
  auto append = [&out](const char* key, double v) {
    if (v <= 0.0) return;
    if (!out.empty()) out += ",";
    out += key;
    out += ":";
    out += FormatValue(v);
  };
  append("dropout", dropout);
  append("blackout", blackout);
  append("stuck", stuck);
  append("noise", noise);
  append("spike", spike);
  append("nan", nan_poison);
  if (out.empty()) out = "none";
  return out;
}

StatusOr<SensorFaultConfig> ParseSensorFaultSpec(std::string_view spec) {
  SensorFaultConfig config;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("sensor fault entry '" +
                                     std::string(entry) +
                                     "' is not key:value");
    }
    const std::string_view key = entry.substr(0, colon);
    const std::string_view value = entry.substr(colon + 1);
    if (key == "seed") {
      ASSIGN_OR_RETURN(const int seed, ParseInt(value, "sensor_fault.seed"));
      if (seed < 0) {
        return Status::InvalidArgument("sensor_fault.seed must be >= 0");
      }
      config.seed = static_cast<uint64_t>(seed);
      continue;
    }
    ASSIGN_OR_RETURN(const double v,
                     ParseDouble(value, "sensor_fault." + std::string(key)));
    double* target = nullptr;
    bool probability = true;
    if (key == "dropout") {
      target = &config.dropout;
    } else if (key == "blackout") {
      target = &config.blackout;
    } else if (key == "stuck") {
      target = &config.stuck;
    } else if (key == "noise") {
      target = &config.noise;
      probability = false;
    } else if (key == "spike") {
      target = &config.spike;
    } else if (key == "spike_mag") {
      target = &config.spike_magnitude;
      probability = false;
    } else if (key == "nan") {
      target = &config.nan_poison;
    } else {
      return Status::InvalidArgument("unknown sensor fault key '" +
                                     std::string(key) + "'");
    }
    // ParseDouble accepts "nan" and "inf"; neither is a usable setting.
    if (!std::isfinite(v) || v < 0.0 || (probability && v > 1.0)) {
      return Status::InvalidArgument(
          "sensor_fault." + std::string(key) + "=" + std::string(value) +
          (probability ? " is not a probability in [0, 1]"
                       : " must be finite and >= 0"));
    }
    *target = v;
  }
  return config;
}

void ApplySensorFaults(const SensorFaultConfig& config, DMat* speed,
                       DMat* volume) {
  CHECK(speed != nullptr);
  if (volume != nullptr) {
    CHECK_EQ(volume->rows(), speed->rows());
    CHECK_EQ(volume->cols(), speed->cols());
  }
  if (!config.any()) return;
  const int links = speed->rows();
  const int intervals = speed->cols();

  // Value-altering models first, missing-data models last, so noise and
  // spikes never operate on NaN cells. Every sweep is serial and in fixed
  // (link, interval) order — the determinism contract.
  if (config.stuck > 0.0 && intervals > 1) {
    Rng rng = StreamRng(config, kStuckStream);
    for (int l = 0; l < links; ++l) {
      const bool frozen = rng.Bernoulli(config.stuck);
      const int freeze = rng.UniformInt(1, intervals - 1);
      if (!frozen) continue;
      const double held = speed->at(l, freeze - 1);
      for (int t = freeze; t < intervals; ++t) speed->at(l, t) = held;
    }
  }
  if (config.noise > 0.0) {
    Rng rng = StreamRng(config, kNoiseStream);
    for (int l = 0; l < links; ++l) {
      for (int t = 0; t < intervals; ++t) {
        speed->at(l, t) =
            std::max(0.0, speed->at(l, t) + rng.Gaussian(0.0, config.noise));
      }
    }
  }
  if (config.spike > 0.0) {
    Rng rng = StreamRng(config, kSpikeStream);
    for (int l = 0; l < links; ++l) {
      for (int t = 0; t < intervals; ++t) {
        if (rng.Bernoulli(config.spike)) {
          speed->at(l, t) *= config.spike_magnitude;
        }
      }
    }
  }
  if (config.dropout > 0.0) {
    Rng rng = StreamRng(config, kDropoutStream);
    for (int l = 0; l < links; ++l) {
      for (int t = 0; t < intervals; ++t) {
        if (rng.Bernoulli(config.dropout)) {
          speed->at(l, t) = kNan;
          if (volume != nullptr) volume->at(l, t) = kNan;
        }
      }
    }
  }
  if (config.blackout > 0.0) {
    Rng rng = StreamRng(config, kBlackoutStream);
    for (int l = 0; l < links; ++l) {
      if (!rng.Bernoulli(config.blackout)) continue;
      for (int t = 0; t < intervals; ++t) {
        speed->at(l, t) = kNan;
        if (volume != nullptr) volume->at(l, t) = kNan;
      }
    }
  }
  if (config.nan_poison > 0.0) {
    Rng rng = StreamRng(config, kPoisonStream);
    for (int l = 0; l < links; ++l) {
      for (int t = 0; t < intervals; ++t) {
        if (rng.Bernoulli(config.nan_poison)) {
          speed->at(l, t) = kNan;
          if (volume != nullptr) volume->at(l, t) = kNan;
        }
      }
    }
  }
}

DMat ObservationMask(const DMat& observed) {
  DMat mask(observed.rows(), observed.cols());
  for (int r = 0; r < observed.rows(); ++r) {
    for (int c = 0; c < observed.cols(); ++c) {
      mask.at(r, c) = std::isfinite(observed.at(r, c)) ? 1.0 : 0.0;
    }
  }
  return mask;
}

int CountInvalidCells(const DMat& observed) {
  int invalid = 0;
  for (int r = 0; r < observed.rows(); ++r) {
    for (int c = 0; c < observed.cols(); ++c) {
      if (!std::isfinite(observed.at(r, c))) ++invalid;
    }
  }
  return invalid;
}

DMat FillInvalidCells(const DMat& observed, double fill) {
  DMat out = observed;
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      if (!std::isfinite(out.at(r, c))) out.at(r, c) = fill;
    }
  }
  return out;
}

}  // namespace ovs::sim
