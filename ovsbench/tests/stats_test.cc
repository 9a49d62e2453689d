// Self-test of the benchmark's statistics: the percentile rule, the median,
// and the reproducible Poisson schedule. Exits nonzero on the first failure.
//
//   cmake --build .bench_build/ovsbench --target ovsbench_tests
//   .bench_build/ovsbench/ovsbench_tests

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentileNeedsTenBeyond() {
  // 1000 samples: rank 990, exactly 10 beyond -> reportable.
  auto p99 = ovsbench::ReportablePercentile(OneTo(1000), 0.99);
  Expect(p99.has_value(), "p99 of 1000 samples is reportable");
  Expect(p99 && *p99 == 990.0, "p99 of 1..1000 is the 990th value");
  // 999 samples: rank 990, 9 beyond -> withheld.
  Expect(!ovsbench::ReportablePercentile(OneTo(999), 0.99).has_value(),
         "p99 of 999 samples is withheld");
  // p50 of 20 samples: rank 10, 10 beyond -> reportable.
  auto p50 = ovsbench::ReportablePercentile(OneTo(20), 0.5);
  Expect(p50 && *p50 == 10.0, "p50 of 1..20 is 10");
  Expect(!ovsbench::ReportablePercentile(OneTo(19), 0.5).has_value(),
         "p50 of 19 samples is withheld");
  Expect(!ovsbench::ReportablePercentile({}, 0.5).has_value(),
         "empty sample set is withheld");
  Expect(ovsbench::ReportablePercentile(OneTo(30), 0.5, 0).has_value(),
         "min_beyond 0 always reports");
}

void TestMedian() {
  Expect(ovsbench::Median({3, 1, 2}) == 2.0, "odd median");
  Expect(ovsbench::Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(ovsbench::Median({}) == 0.0, "empty median");
}

void TestPoissonScheduleReproducible() {
  const auto a = ovsbench::PoissonSchedule(42, 100.0, 5000);
  const auto b = ovsbench::PoissonSchedule(42, 100.0, 5000);
  const auto c = ovsbench::PoissonSchedule(43, 100.0, 5000);
  Expect(a == b, "same seed gives the same schedule");
  Expect(a != c, "another seed gives another schedule");
  Expect(a.size() == 5000, "schedule has the requested length");
  bool increasing = true;
  for (size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  Expect(increasing, "arrivals strictly increase");
  // Mean gap 1/rate: 5000 arrivals at 100/s span ~50 s (sd ~0.7 s).
  Expect(std::fabs(a.back() - 50.0) < 4.0, "span matches the rate");
  // Pinned values: a change to the generator would silently change every
  // workload's schedule, so it must show here first.
  const auto pinned = ovsbench::PoissonSchedule(1, 1.0, 3);
  Expect(std::fabs(pinned[0] - 0.83600553477035922) < 1e-12 &&
             std::fabs(pinned[1] - 2.205567692279863) < 1e-12 &&
             std::fabs(pinned[2] - 5.7461220970525186) < 1e-12,
         "schedule of seed 1 is pinned");
}

}  // namespace

int main() {
  TestPercentileNeedsTenBeyond();
  TestMedian();
  TestPoissonScheduleReproducible();
  if (g_failures == 0) std::printf("ovsbench_tests: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
