#ifndef OVS_UTIL_BENCH_CONFIG_H_
#define OVS_UTIL_BENCH_CONFIG_H_

#include <string>

namespace ovs {

/// Global scale knob for the experiment benches. The default ("fast") sizes
/// every experiment so the whole suite completes in minutes on one core;
/// setting the environment variable OVS_BENCH_SCALE=full switches to the
/// heavier configuration (more training epochs, larger populations) closer to
/// the paper's settings.
enum class BenchScale { kFast, kFull };

/// Reads OVS_BENCH_SCALE from the environment once and caches the result.
BenchScale GetBenchScale();

/// Scales an iteration count: returns `fast` under kFast, `full` under kFull.
int ScaledIters(int fast, int full);

/// Command-line knobs shared by the bench/eval binaries. Deliberately
/// string-only so ovs_util stays free of any obs dependency; the binaries
/// hand the paths to an ovs::obs::Session.
struct BenchArgs {
  /// Chrome-trace JSON output (--trace_out=PATH); empty = tracing off.
  std::string trace_out;
  /// Metrics export (--metrics_out=PATH, ".csv" selects CSV over JSONL);
  /// empty = no export.
  std::string metrics_out;
  /// Structured run-report JSON (--report_out=PATH); empty = no report.
  /// See obs/report.h for the schema and tools/perfdiff for the consumer.
  std::string report_out;
  /// Print the phase-profile summary at session close (--profile).
  bool profile = false;
  /// Trainer checkpoint directory (--checkpoint_dir=PATH); empty = off.
  std::string checkpoint_dir;
  /// Epochs between stage checkpoints (--checkpoint_every=N).
  int checkpoint_every = 10;
  /// Resume from existing checkpoints (--resume).
  bool resume = false;
  /// Sensor-fault spec (--sensor_fault=dropout:0.3,noise:1.0); empty = no
  /// faults. String-only here (ovs_util cannot depend on ovs_sim); benches
  /// hand it to sim::ParseSensorFaultSpec.
  std::string sensor_fault;
};

/// Parses --trace_out= / --metrics_out= / --report_out= / --profile /
/// --checkpoint_dir= / --checkpoint_every= / --resume / --sensor_fault=
/// from argv. Unrecognized arguments are ignored (benches own any extra
/// flags); a recognized flag missing or with a malformed value keeps the
/// default.
BenchArgs ParseBenchArgs(int argc, char** argv);

/// True when `arg` is one of the flags ParseBenchArgs understands. The
/// google-benchmark mains use this to strip shared flags from argv before
/// handing the remainder to benchmark::Initialize (which rejects unknowns).
bool IsBenchArg(const std::string& arg);

}  // namespace ovs

#endif  // OVS_UTIL_BENCH_CONFIG_H_
