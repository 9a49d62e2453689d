#include "perfdiff.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "obs/report.h"
#include "util/json.h"

namespace ovs::perfdiff {

namespace {

/// Numbers in findings: full precision for counters, no exponent churn for
/// the magnitudes reports actually contain.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "non-finite";
  std::ostringstream os;
  os << std::setprecision(15) << value;
  return os.str();
}

const char* KindLabel(Finding::Kind kind) {
  switch (kind) {
    case Finding::Kind::kCounterRegression: return "counter-regression";
    case Finding::Kind::kResultRegression: return "accuracy-regression";
    case Finding::Kind::kMissingMetric: return "missing-metric";
    case Finding::Kind::kNewMetric: return "new-metric";
  }
  return "unknown";
}

double RatioFor(const Tolerances& tolerances, const std::string& metric,
                double fallback) {
  const auto it = tolerances.per_metric.find(metric);
  return it == tolerances.per_metric.end() ? fallback : it->second;
}

Finding MakeFinding(Finding::Kind kind, const std::string& metric,
                    double baseline, double current, double limit,
                    std::string message) {
  Finding finding;
  finding.kind = kind;
  finding.metric = metric;
  finding.baseline = baseline;
  finding.current = current;
  finding.limit = limit;
  finding.message = std::move(message);
  return finding;
}

/// Shared gate for counters and result rows (both lower-is-better).
void CompareMetric(Finding::Kind regression_kind, const std::string& metric,
                   double baseline, const double* current, double ratio,
                   double slack, std::vector<Finding>* findings) {
  if (current == nullptr) {
    findings->push_back(MakeFinding(
        Finding::Kind::kMissingMetric, metric, baseline,
        std::nan(""), 0.0,
        metric + ": present in baseline but missing from the current report "
                 "(instrumentation or a table row was dropped)"));
    return;
  }
  if (!std::isfinite(baseline)) {
    findings->push_back(MakeFinding(
        Finding::Kind::kNewMetric, metric, baseline, *current, 0.0,
        metric + ": baseline value is non-finite; not gated (refresh the "
                 "baseline)"));
    return;
  }
  const double limit = baseline * ratio + slack;
  if (!std::isfinite(*current) || *current > limit) {
    std::ostringstream os;
    os << metric << ": baseline " << FormatNumber(baseline) << " -> current "
       << FormatNumber(*current) << " exceeds limit " << FormatNumber(limit)
       << " (ratio " << FormatNumber(ratio) << ", slack "
       << FormatNumber(slack) << ")";
    findings->push_back(MakeFinding(regression_kind, metric, baseline,
                                    *current, limit, os.str()));
  }
}

}  // namespace

bool ParseReportJson(const std::string& text, Report* out,
                     std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  const StatusOr<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok()) return fail(parsed.status().message());
  const JsonValue& root = *parsed;
  if (root.kind != JsonValue::Kind::kObject) {
    return fail("report root is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString) {
    return fail("report is missing the \"schema\" tag");
  }
  if (schema->string_value != obs::RunReport::kSchema) {
    return fail("unsupported report schema \"" + schema->string_value +
                "\" (expected " + obs::RunReport::kSchema + ")");
  }
  out->schema = schema->string_value;
  if (const JsonValue* binary = root.Find("binary");
      binary != nullptr && binary->kind == JsonValue::Kind::kString) {
    out->binary = binary->string_value;
  }
  if (const JsonValue* scale = root.Find("bench_scale");
      scale != nullptr && scale->kind == JsonValue::Kind::kString) {
    out->bench_scale = scale->string_value;
  }
  if (const JsonValue* threads = root.Find("threads");
      threads != nullptr && threads->kind == JsonValue::Kind::kNumber) {
    out->threads = threads->number_value;
  }
  const JsonValue* counters = root.Find("counters");
  if (counters == nullptr || counters->kind != JsonValue::Kind::kObject) {
    return fail("report is missing the \"counters\" object");
  }
  out->counters.clear();
  for (const auto& [name, value] : counters->object) {
    if (value.kind != JsonValue::Kind::kNumber) {
      return fail("counter \"" + name + "\" is not a number");
    }
    out->counters[name] = value.number_value;
  }
  const JsonValue* results = root.Find("results");
  if (results == nullptr || results->kind != JsonValue::Kind::kArray) {
    return fail("report is missing the \"results\" array");
  }
  out->results.clear();
  for (const JsonValue& row : results->array) {
    const JsonValue* name = row.Find("name");
    const JsonValue* value = row.Find("value");
    if (name == nullptr || name->kind != JsonValue::Kind::kString ||
        value == nullptr) {
      return fail("result row is missing \"name\" or \"value\"");
    }
    // The report writer serializes non-finite values as null.
    const double v = value->kind == JsonValue::Kind::kNumber
                         ? value->number_value
                         : std::nan("");
    out->results.emplace_back(name->string_value, v);
  }
  return true;
}

bool LoadReport(const std::string& path, Report* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  if (!ParseReportJson(buffer.str(), out, &parse_error)) {
    if (error != nullptr) *error = path + ": " + parse_error;
    return false;
  }
  return true;
}

std::vector<Finding> Compare(const Report& baseline, const Report& current,
                             const Tolerances& tolerances) {
  std::vector<Finding> findings;

  for (const auto& [name, base_value] : baseline.counters) {
    const auto it = current.counters.find(name);
    const double* cur = it == current.counters.end() ? nullptr : &it->second;
    CompareMetric(Finding::Kind::kCounterRegression, name, base_value, cur,
                  RatioFor(tolerances, name, tolerances.counter_ratio),
                  tolerances.counter_slack, &findings);
  }
  for (const auto& [name, cur_value] : current.counters) {
    if (baseline.counters.find(name) != baseline.counters.end()) continue;
    findings.push_back(MakeFinding(
        Finding::Kind::kNewMetric, name, std::nan(""), cur_value, 0.0,
        name + ": new counter (" + FormatNumber(cur_value) +
            "), not in the baseline; gated after the next baseline refresh"));
  }

  std::map<std::string, double> current_results;
  for (const auto& [name, value] : current.results) {
    current_results.emplace(name, value);
  }
  std::map<std::string, double> baseline_results;
  for (const auto& [name, value] : baseline.results) {
    baseline_results.emplace(name, value);
  }
  for (const auto& [name, base_value] : baseline_results) {
    const auto it = current_results.find(name);
    const double* cur = it == current_results.end() ? nullptr : &it->second;
    CompareMetric(Finding::Kind::kResultRegression, name, base_value, cur,
                  RatioFor(tolerances, name, tolerances.result_ratio),
                  tolerances.result_slack, &findings);
  }
  for (const auto& [name, cur_value] : current_results) {
    if (baseline_results.find(name) != baseline_results.end()) continue;
    findings.push_back(MakeFinding(
        Finding::Kind::kNewMetric, name, std::nan(""), cur_value, 0.0,
        name + ": new result row (" + FormatNumber(cur_value) +
            "), not in the baseline; gated after the next baseline refresh"));
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.IsRegression() != b.IsRegression()) {
                       return a.IsRegression();
                     }
                     return a.metric < b.metric;
                   });
  return findings;
}

bool HasRegression(const std::vector<Finding>& findings) {
  for (const Finding& finding : findings) {
    if (finding.IsRegression()) return true;
  }
  return false;
}

std::string FormatFinding(const Finding& finding) {
  std::ostringstream os;
  os << "perfdiff: " << (finding.IsRegression() ? "error" : "note") << ": ["
     << KindLabel(finding.kind) << "] " << finding.message;
  return os.str();
}

std::string FormatFindingGithub(const Finding& finding) {
  std::ostringstream os;
  os << (finding.IsRegression() ? "::error" : "::notice")
     << " title=perfdiff " << KindLabel(finding.kind) << "::"
     << finding.message;
  return os.str();
}

int Run(const std::string& baseline_path, const std::string& current_path,
        std::ostream& out, std::ostream& err, const RunOptions& options) {
  const Tolerances& tol = options.tolerances;
  std::vector<std::pair<std::string, double>> limits = {
      {"counter_ratio", tol.counter_ratio},
      {"counter_slack", tol.counter_slack},
      {"result_ratio", tol.result_ratio},
      {"result_slack", tol.result_slack}};
  for (const auto& [name, ratio] : tol.per_metric) {
    limits.emplace_back("tol " + name, ratio);
  }
  for (const auto& [name, value] : limits) {
    if (!std::isfinite(value) || value < 0.0) {
      err << "perfdiff: tolerance " << name << " = " << FormatNumber(value)
          << " must be finite and non-negative\n";
      return 2;
    }
  }
  Report baseline;
  Report current;
  std::string error;
  if (!LoadReport(baseline_path, &baseline, &error)) {
    err << "perfdiff: " << error << "\n";
    return 2;
  }
  if (!LoadReport(current_path, &current, &error)) {
    err << "perfdiff: " << error << "\n";
    return 2;
  }
  if (!baseline.binary.empty() && !current.binary.empty() &&
      baseline.binary != current.binary) {
    out << "perfdiff: note: comparing different binaries (baseline "
        << baseline.binary << ", current " << current.binary << ")\n";
  }
  if (baseline.bench_scale != current.bench_scale) {
    err << "perfdiff: bench scale mismatch (baseline \""
        << baseline.bench_scale << "\", current \"" << current.bench_scale
        << "\"); work counters are only comparable at the same scale\n";
    return 2;
  }

  const std::vector<Finding> findings =
      Compare(baseline, current, options.tolerances);
  int regressions = 0;
  int notes = 0;
  for (const Finding& finding : findings) {
    if (finding.IsRegression()) {
      ++regressions;
    } else {
      ++notes;
    }
    out << (options.format == RunOptions::Format::kGithub
                ? FormatFindingGithub(finding)
                : FormatFinding(finding))
        << "\n";
  }
  out << "perfdiff: " << current_path << " vs baseline " << baseline_path
      << ": " << baseline.counters.size() << " counters and "
      << baseline.results.size() << " results gated; " << regressions
      << " regression(s), " << notes << " note(s)\n";
  return regressions > 0 ? 1 : 0;
}

}  // namespace ovs::perfdiff
