#ifndef OVS_UTIL_RNG_H_
#define OVS_UTIL_RNG_H_

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "util/logging.h"
#include "util/status.h"

namespace ovs {

/// Deterministic random number generator used everywhere in the library so
/// that experiments are reproducible from a single seed. Wraps
/// std::mt19937_64 with the distributions this project needs.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) {
    CHECK_LE(lo, hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int UniformInt(int lo, int hi) {
    CHECK_LE(lo, hi);
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian sample with the given mean and standard deviation. Scales a
  /// unit draw because callers pass stddev 0 (a noiseless sensor), which
  /// std::normal_distribution forbids; for stddev > 0 the result is bitwise
  /// the z * stddev + mean that libstdc++'s distribution computes itself.
  double Gaussian(double mean, double stddev) {
    const double z = std::normal_distribution<double>(0.0, 1.0)(engine_);
    return mean + stddev * z;
  }

  /// Poisson sample with the given rate.
  int Poisson(double lambda) {
    CHECK_GE(lambda, 0.0);
    if (lambda == 0.0) return 0;
    return std::poisson_distribution<int>(lambda)(engine_);
  }

  /// Bernoulli sample with probability p of true.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// All weights must be non-negative and at least one positive.
  int Categorical(const std::vector<double>& weights) {
    CHECK(!weights.empty());
    return std::discrete_distribution<int>(weights.begin(), weights.end())(engine_);
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      size_t j = static_cast<size_t>(UniformInt(0, static_cast<int>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Forks a child generator with an independent stream derived from this
  /// generator's state plus `stream_id`, for per-module reproducibility.
  Rng Fork(uint64_t stream_id) {
    uint64_t s = engine_() ^ (stream_id * 0x9E3779B97F4A7C15ULL);
    return Rng(s);
  }

  std::mt19937_64& engine() { return engine_; }

  /// Serializes the engine state (the standard textual mt19937_64 dump) so
  /// checkpoints can resume the exact random stream mid-run.
  std::string SaveState() const {
    std::ostringstream ss;
    ss << engine_;
    return ss.str();
  }

  /// Restores a state produced by SaveState. On failure the engine is left
  /// unspecified and the caller must reseed.
  [[nodiscard]] Status LoadState(const std::string& state) {
    std::istringstream ss(state);
    ss >> engine_;
    if (ss.fail()) return Status::DataLoss("corrupt RNG state string");
    return Status::Ok();
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace ovs

#endif  // OVS_UTIL_RNG_H_
