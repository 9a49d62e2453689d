#include "obs/report.h"

#include <cstdlib>
#include <iomanip>
#include <mutex>
#include <utility>

#include "obs/metrics.h"
#include "util/bench_config.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace ovs::obs {

namespace {

struct ResultStore {
  std::mutex mu;
  std::vector<ResultRow> rows;
};

ResultStore& Results() {
  static ResultStore store;
  return store;
}

bool HasPrefix(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string GitShaFromEnv() {
  for (const char* var : {"OVS_GIT_SHA", "GITHUB_SHA"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && value[0] != '\0') return value;
  }
  return "";
}

void WritePhaseNode(const PhaseNode& node, int indent, std::ostream& os) {
  const std::string pad(static_cast<size_t>(indent), ' ');
  os << pad << "{\"name\":\"" << JsonEscape(node.name)
     << "\",\"count\":" << node.count << ",\"total_ns\":" << node.total_ns
     << ",\"self_ns\":" << node.self_ns << ",\"children\":[";
  if (!node.children.empty()) {
    os << "\n";
    for (size_t i = 0; i < node.children.size(); ++i) {
      WritePhaseNode(node.children[i], indent + 2, os);
      if (i + 1 < node.children.size()) os << ",";
      os << "\n";
    }
    os << pad;
  }
  os << "]}";
}

void PrintPhaseLines(const std::vector<PhaseNode>& phases, int depth,
                     std::ostream& os) {
  for (const PhaseNode& node : phases) {
    os << "[profile] " << std::setw(9)
       << static_cast<double>(node.total_ns) / 1e9 << "s " << std::setw(9)
       << static_cast<double>(node.self_ns) / 1e9 << "s " << std::setw(7)
       << node.count << "  ";
    for (int i = 0; i < depth; ++i) os << "  ";
    os << node.name << "\n";
    PrintPhaseLines(node.children, depth + 1, os);
  }
}

}  // namespace

void ReportResult(const std::string& name, double value) {
  ResultStore& store = Results();
  std::lock_guard<std::mutex> lock(store.mu);
  store.rows.push_back({name, value});
}

void ClearReportedResults() {
  ResultStore& store = Results();
  std::lock_guard<std::mutex> lock(store.mu);
  store.rows.clear();
}

std::vector<ResultRow> ReportedResults() {
  ResultStore& store = Results();
  std::lock_guard<std::mutex> lock(store.mu);
  return store.rows;
}

RunReport BuildRunReport(const std::string& binary_name, double wall_seconds) {
  RunReport report;
  report.binary = Basename(binary_name);
  report.git_sha = GitShaFromEnv();
  report.bench_scale =
      GetBenchScale() == BenchScale::kFull ? "full" : "fast";
  report.threads = GlobalThreadCount();
  report.wall_seconds = wall_seconds;

  // threadpool.* metrics are machine/thread-count dependent by nature, so
  // they are fenced into the informational pool section; everything else in
  // the registry is deterministic work (counters) or headline state (gauges).
  const std::string kPoolPrefix = "threadpool.";
  for (const MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
    switch (s.kind) {
      case MetricSnapshot::Kind::kCounter:
        if (HasPrefix(s.name, kPoolPrefix)) {
          report.pool[s.name] = s.counter_value;
        } else {
          report.counters[s.name] = s.counter_value;
        }
        break;
      case MetricSnapshot::Kind::kGauge:
        if (HasPrefix(s.name, kPoolPrefix)) {
          report.pool[s.name] = static_cast<uint64_t>(s.gauge_value);
        } else {
          report.gauges[s.name] = s.gauge_value;
        }
        break;
      case MetricSnapshot::Kind::kHistogram:
        // Histograms stay in the --metrics_out export; the report keeps to
        // scalars perfdiff can gate on.
        break;
    }
  }

  report.results = ReportedResults();
  report.phases = BuildPhaseProfile();
  return report;
}

Status WriteRunReportJson(const RunReport& report, std::ostream& os) {
  os << "{\n";
  os << "  \"schema\": \"" << RunReport::kSchema << "\",\n";
  os << "  \"binary\": \"" << JsonEscape(report.binary) << "\",\n";
  os << "  \"git_sha\": \"" << JsonEscape(report.git_sha) << "\",\n";
  os << "  \"bench_scale\": \"" << JsonEscape(report.bench_scale) << "\",\n";
  os << "  \"threads\": " << report.threads << ",\n";
  os << "  \"wall_seconds\": " << JsonNumber(report.wall_seconds) << ",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : report.counters) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : report.gauges) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << JsonNumber(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"pool\": {";
  first = true;
  for (const auto& [name, value] : report.pool) {
    os << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
       << "\": " << value;
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";

  os << "  \"results\": [";
  for (size_t i = 0; i < report.results.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << JsonEscape(report.results[i].name)
       << "\", \"value\": " << JsonNumber(report.results[i].value) << "}";
  }
  os << (report.results.empty() ? "" : "\n  ") << "],\n";

  os << "  \"phases\": [";
  if (!report.phases.empty()) {
    os << "\n";
    for (size_t i = 0; i < report.phases.size(); ++i) {
      WritePhaseNode(report.phases[i], 4, os);
      if (i + 1 < report.phases.size()) os << ",";
      os << "\n";
    }
    os << "  ";
  }
  os << "]\n";
  os << "}\n";
  if (!os.good()) {
    return Status::DataLoss("run report stream write failed");
  }
  return Status::Ok();
}

void PrintPhaseProfile(const std::vector<PhaseNode>& phases,
                       std::ostream& os) {
  if (phases.empty()) {
    os << "[profile] no spans recorded\n";
    return;
  }
  const std::ios_base::fmtflags flags = os.flags();
  const std::streamsize precision = os.precision();
  os << std::fixed << std::setprecision(3);
  os << "[profile]     total      self   count  span\n";
  PrintPhaseLines(phases, 0, os);
  os.flags(flags);
  os.precision(precision);
}

}  // namespace ovs::obs
