#ifndef OVS_TOOLS_PERFDIFF_PERFDIFF_H_
#define OVS_TOOLS_PERFDIFF_PERFDIFF_H_

// perfdiff: a comparator for ovs.run_report.v1 documents (emitted by bench
// binaries via --report_out=). It reads reports with the repo's JSON codec
// (util/json) and accepts only the tag obs::RunReport::kSchema, so the
// report writer and the gate share one parser and one schema constant. It
// diffs a fresh report against a checked-in baseline under bench/baselines/
// and flags
//
//   * work-counter growth   — a deterministic counter (vehicle steps, GEMM
//     flops, epochs, restarts) exceeding baseline * ratio + slack. Counters
//     are bitwise-stable at any thread count, so this gate is immune to the
//     wall-clock noise that makes timing-based perf gates flaky on shared CI
//     runners;
//   * accuracy regressions  — a bench-declared result row (all rows are
//     lower-is-better errors) exceeding baseline * ratio;
//   * missing metrics       — a baseline counter or result absent from the
//     current report, which usually means instrumentation or a table row was
//     dropped.
//
// New metrics that only exist in the current report are reported as
// informational (they become gated once the baseline is refreshed). Wall
// time, gauges, threadpool.* metrics, and the phase tree are never compared.
//
// Mirrors tools/lint: a library (linked by tests/report_test.cc) plus a thin
// CLI. Exit codes (Run): 0 = within tolerance, 1 = regression, 2 = usage,
// tolerance, or I/O/parse error.

#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ovs::perfdiff {

// ---------------------------------------------------------------------------
// Run-report model.

/// The compared slice of a run report. `results` preserves declaration
/// order; non-finite values arrive as NaN (the writer emits them as null).
struct Report {
  std::string schema;
  std::string binary;
  std::string bench_scale;
  double threads = 0.0;
  std::map<std::string, double> counters;
  std::vector<std::pair<std::string, double>> results;
};

/// Parses a run-report document into `out`. Fails on malformed JSON, a
/// missing/mismatched schema tag, or missing counters/results sections.
[[nodiscard]] bool ParseReportJson(const std::string& text, Report* out,
                                   std::string* error);

/// Reads and parses the report at `path`.
[[nodiscard]] bool LoadReport(const std::string& path, Report* out,
                              std::string* error);

// ---------------------------------------------------------------------------
// Comparison.

/// Regression thresholds. A metric regresses when
///   current > baseline * ratio + slack
/// with ratio taken from `per_metric` when the metric name has an override.
/// The counter slack absorbs small absolute wobble in tiny counters (e.g. a
/// divergence-restart count shifting by a couple under a different libm);
/// the multiplicative ratio carries the gate for large ones. Every value
/// must be finite and non-negative: a NaN or infinite limit would pass any
/// report, so Run rejects such tolerances as a usage error.
struct Tolerances {
  double counter_ratio = 1.5;
  double counter_slack = 16.0;
  double result_ratio = 1.2;
  double result_slack = 0.0;
  std::map<std::string, double> per_metric;
};

/// One comparison outcome worth surfacing.
struct Finding {
  enum class Kind {
    kCounterRegression,
    kResultRegression,
    kMissingMetric,
    kNewMetric,  // informational only
  };
  Kind kind = Kind::kNewMetric;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double limit = 0.0;
  std::string message;

  bool IsRegression() const { return kind != Kind::kNewMetric; }
};

/// Diffs `current` against `baseline`: every baseline counter and result is
/// checked (missing => kMissingMetric, above threshold => regression);
/// metrics only present in `current` yield kNewMetric. Regressions sort
/// first, each group in metric-name order.
[[nodiscard]] std::vector<Finding> Compare(const Report& baseline,
                                           const Report& current,
                                           const Tolerances& tolerances);

/// True if any finding is a regression.
bool HasRegression(const std::vector<Finding>& findings);

/// "perfdiff: error: [counter-regression] name: ..." — canonical plain
/// format.
std::string FormatFinding(const Finding& finding);

/// "::error title=perfdiff::..." — GitHub Actions annotation, surfaced on
/// the workflow run by the perf-gate job.
std::string FormatFindingGithub(const Finding& finding);

struct RunOptions {
  enum class Format { kPlain, kGithub };
  Format format = Format::kPlain;
  Tolerances tolerances;
};

/// Validates the tolerances, loads both reports, compares, and prints
/// findings plus a one-line summary. Returns the process exit code
/// documented above.
[[nodiscard]] int Run(const std::string& baseline_path,
                      const std::string& current_path, std::ostream& out,
                      std::ostream& err, const RunOptions& options = {});

}  // namespace ovs::perfdiff

#endif  // OVS_TOOLS_PERFDIFF_PERFDIFF_H_
