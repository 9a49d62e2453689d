#ifndef OVSBENCH_STATS_H_
#define OVSBENCH_STATS_H_

// Statistics the benchmark reports with, kept free of OVS dependencies so
// the self-test links nothing else.

#include <cstdint>
#include <optional>
#include <vector>

namespace ovsbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty vector.
double Median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1) of `values`, reported only when at
/// least `min_beyond` samples lie beyond its rank: with n samples the rank
/// is ceil(q * n) and n - rank samples lie beyond it. p99 therefore needs
/// n >= 1000. Returns nullopt when the rule is not met.
std::optional<double> ReportablePercentile(std::vector<double> values,
                                           double q, int min_beyond = 10);

/// Arrival offsets, in seconds from the phase start, of `count` requests
/// whose gaps are exponential with mean 1 / `rate_per_s` (a Poisson
/// process). The generator is splitmix64 with inversion sampling, so the
/// schedule depends only on (seed, rate, count) on every platform.
std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                    int count);

}  // namespace ovsbench

#endif  // OVSBENCH_STATS_H_
