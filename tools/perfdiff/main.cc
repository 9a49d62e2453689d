// CLI for perfdiff. Usage:
//   ovs_perfdiff [options] --baseline=<file> --current=<file>
//   ovs_perfdiff [options] <baseline> <current>
// Options:
//   --counter_ratio=R   work-counter growth limit (default 1.5)
//   --counter_slack=S   absolute counter slack (default 16)
//   --result_ratio=R    result-row growth limit (default 1.2)
//   --result_slack=S    absolute result slack (default 0)
//   --tol=NAME=R        per-metric ratio override (repeatable)
//   --format=plain|github
// Exit code: 0 within tolerance, 1 regression, 2 usage or I/O error (a
// NaN, infinite, or negative tolerance is a usage error).

#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "perfdiff.h"
#include "util/parse.h"

int main(int argc, char** argv) {
  std::string baseline;
  std::string current;
  std::vector<std::string> positional;
  ovs::perfdiff::RunOptions options;
  ovs::perfdiff::Tolerances& tol = options.tolerances;
  const std::pair<std::string, double*> number_flags[] = {
      {"--counter_ratio=", &tol.counter_ratio},
      {"--counter_slack=", &tol.counter_slack},
      {"--result_ratio=", &tol.result_ratio},
      {"--result_slack=", &tol.result_slack},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&arg](size_t prefix) {
      return arg.substr(prefix);
    };
    if (arg == "--help" || arg == "-h") {
      std::cout
          << "usage: ovs_perfdiff [options] <baseline.json> <current.json>\n"
          << "Diffs an ovs.run_report.v1 document against a baseline and\n"
          << "exits nonzero on work-counter or accuracy regressions.\n"
          << "  --baseline=FILE --current=FILE   explicit operands\n"
          << "  --counter_ratio=R (1.5)  --counter_slack=S (16)\n"
          << "  --result_ratio=R  (1.2)  --result_slack=S  (0)\n"
          << "  --tol=NAME=R             per-metric ratio override\n"
          << "  --format=plain|github\n";
      return 0;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline = value_of(11);
      continue;
    }
    if (arg.rfind("--current=", 0) == 0) {
      current = value_of(10);
      continue;
    }
    bool number_flag = false;
    for (const auto& [prefix, target] : number_flags) {
      if (arg.rfind(prefix, 0) != 0) continue;
      const ovs::StatusOr<double> value =
          ovs::ParseDouble(value_of(prefix.size()), arg);
      if (!value.ok()) {
        std::cerr << "ovs_perfdiff: bad number in '" << arg << "'\n";
        return 2;
      }
      *target = *value;
      number_flag = true;
    }
    if (number_flag) continue;
    if (arg.rfind("--tol=", 0) == 0) {
      const std::string spec = value_of(6);
      const size_t eq = spec.rfind('=');
      const ovs::StatusOr<double> ratio = ovs::ParseDouble(
          eq == std::string::npos ? "" : spec.substr(eq + 1), arg);
      if (eq == std::string::npos || eq == 0 || !ratio.ok()) {
        std::cerr << "ovs_perfdiff: expected --tol=NAME=RATIO, got '" << arg
                  << "'\n";
        return 2;
      }
      tol.per_metric[spec.substr(0, eq)] = *ratio;
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      const std::string fmt = value_of(9);
      if (fmt == "plain") {
        options.format = ovs::perfdiff::RunOptions::Format::kPlain;
      } else if (fmt == "github") {
        options.format = ovs::perfdiff::RunOptions::Format::kGithub;
      } else {
        std::cerr << "ovs_perfdiff: unknown format '" << fmt
                  << "' (expected plain or github)\n";
        return 2;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "ovs_perfdiff: unknown option '" << arg << "'\n";
      return 2;
    }
    positional.push_back(arg);
  }
  if (baseline.empty() && positional.size() >= 1) {
    baseline = positional[0];
    positional.erase(positional.begin());
  }
  if (current.empty() && positional.size() >= 1) {
    current = positional[0];
    positional.erase(positional.begin());
  }
  if (baseline.empty() || current.empty() || !positional.empty()) {
    std::cerr << "ovs_perfdiff: expected exactly a baseline and a current "
                 "report (see --help)\n";
    return 2;
  }
  return ovs::perfdiff::Run(baseline, current, std::cout, std::cerr, options);
}
