#include "stats.h"

#include <algorithm>
#include <cmath>

namespace ovsbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> ReportablePercentile(std::vector<double> values,
                                           double q, int min_beyond) {
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  // ceil() on q * n with a tolerance, so 0.99 * 1000 is rank 990, not 991.
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)));
  if (n - rank < min_beyond) return std::nullopt;
  std::sort(values.begin(), values.end());
  return values[static_cast<size_t>(rank - 1)];
}

std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    int count) {
  uint64_t state = seed;
  auto next_uniform = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    // 53 random bits in [0, 1).
    return static_cast<double>(z >> 11) * 0x1.0p-53;
  };
  std::vector<double> arrivals;
  arrivals.reserve(static_cast<size_t>(std::max(count, 0)));
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += -std::log1p(-next_uniform()) / rate_per_s;
    arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace ovsbench
