#include "util/bench_config.h"

#include <cstdlib>
#include <cstring>

#include "util/parse.h"

namespace ovs {

BenchScale GetBenchScale() {
  static const BenchScale scale = [] {
    const char* env = std::getenv("OVS_BENCH_SCALE");
    if (env != nullptr && std::strcmp(env, "full") == 0) return BenchScale::kFull;
    return BenchScale::kFast;
  }();
  return scale;
}

int ScaledIters(int fast, int full) {
  return GetBenchScale() == BenchScale::kFull ? full : fast;
}

namespace {

constexpr const char* kTrace = "--trace_out=";
constexpr const char* kMetrics = "--metrics_out=";
constexpr const char* kReport = "--report_out=";
constexpr const char* kCkptDir = "--checkpoint_dir=";
constexpr const char* kCkptEvery = "--checkpoint_every=";
constexpr const char* kSensorFault = "--sensor_fault=";

bool HasPrefix(const std::string& arg, const char* prefix) {
  return arg.rfind(prefix, 0) == 0;
}

}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (HasPrefix(arg, kTrace)) {
      args.trace_out = arg.substr(std::strlen(kTrace));
    } else if (HasPrefix(arg, kMetrics)) {
      args.metrics_out = arg.substr(std::strlen(kMetrics));
    } else if (HasPrefix(arg, kReport)) {
      args.report_out = arg.substr(std::strlen(kReport));
    } else if (HasPrefix(arg, kCkptDir)) {
      args.checkpoint_dir = arg.substr(std::strlen(kCkptDir));
    } else if (HasPrefix(arg, kCkptEvery)) {
      StatusOr<int> every = ParseInt(arg.substr(std::strlen(kCkptEvery)),
                                     "--checkpoint_every");
      if (every.ok()) args.checkpoint_every = *every;
    } else if (HasPrefix(arg, kSensorFault)) {
      args.sensor_fault = arg.substr(std::strlen(kSensorFault));
    } else if (arg == "--profile") {
      args.profile = true;
    } else if (arg == "--resume") {
      args.resume = true;
    }
  }
  return args;
}

bool IsBenchArg(const std::string& arg) {
  return HasPrefix(arg, kTrace) || HasPrefix(arg, kMetrics) ||
         HasPrefix(arg, kReport) || HasPrefix(arg, kCkptDir) ||
         HasPrefix(arg, kCkptEvery) || HasPrefix(arg, kSensorFault) ||
         arg == "--profile" || arg == "--resume";
}

}  // namespace ovs
