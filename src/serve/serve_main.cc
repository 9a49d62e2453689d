// ovs_served — the recovery server binary.
//
//   ovs_served --cities=synthetic3x3             # JSONL over stdin/stdout
//   ovs_served --cities=synthetic3x3 --port=7431 # TCP on 127.0.0.1:7431
//
// Serving knobs: --queue_capacity, --workers, --epochs (default recovery
// epochs per request), --restarts, --drain_ms, --train_epochs,
// --train_samples, --snapshot_dir=DIR (writes each city's initial OVSM
// snapshot there, so hot-reload drills have a file to feed back), and
// --fault=SPEC (serve/fault_injection.h). Telemetry flags (--metrics_out,
// --report_out, --trace_out, --profile) are shared with the benches. An
// integer knob that does not parse or is out of range is a usage error:
// exit 2, before any city is built.
//
// SIGINT/SIGTERM shuts down gracefully: stop admission, drain in-flight up
// to --drain_ms, flush telemetry, exit 0.

#include <csignal>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "data/cities.h"
#include "obs/session.h"
#include "serve/fault_injection.h"
#include "serve/io.h"
#include "serve/server.h"
#include "util/bench_config.h"
#include "util/logging.h"
#include "util/parse.h"

namespace {

std::atomic<bool> g_shutdown{false};

void HandleSignal(int) { g_shutdown.store(true, std::memory_order_relaxed); }

bool FlagValue(const std::string& arg, const std::string& name,
               std::string* out) {
  const std::string prefix = "--" + name + "=";
  if (arg.compare(0, prefix.size(), prefix) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

struct ServeFlags {
  std::vector<std::string> cities = {"synthetic3x3"};
  int port = -1;  // -1 = stdio
  int queue_capacity = 8;
  int workers = 2;
  int epochs = 12;
  int restarts = 1;
  int drain_ms = 2000;
  int train_epochs = 8;
  int train_samples = 6;
  std::string snapshot_dir;
  std::string fault_spec;
};

constexpr char kUsage[] =
    "usage: ovs_served [--cities=NAME,...] [--port=N] [--queue_capacity=N]\n"
    "                  [--workers=N] [--epochs=N] [--restarts=N]\n"
    "                  [--drain_ms=N] [--train_epochs=N] [--train_samples=N]\n"
    "                  [--snapshot_dir=DIR] [--fault=SPEC]\n";

/// An integer flag and the closed range of values it accepts.
struct IntFlag {
  const char* name;
  int* value;
  int min;
  int max;
};

/// Fills `flags` from argv. A malformed or out-of-range integer prints a
/// usage error and returns false; the caller exits 2.
bool ParseServeFlags(int argc, char** argv, ServeFlags* flags) {
  const ovs::serve::ServerOptions limits;
  constexpr int kMax = std::numeric_limits<int>::max();
  const IntFlag int_flags[] = {
      {"port", &flags->port, 1, 65535},
      {"queue_capacity", &flags->queue_capacity, 1, kMax},
      {"workers", &flags->workers, 1, kMax},
      {"epochs", &flags->epochs, 1, limits.max_recovery_epochs},
      {"restarts", &flags->restarts, 1, limits.max_restarts},
      {"drain_ms", &flags->drain_ms, 0, kMax},
      {"train_epochs", &flags->train_epochs, 1, kMax},
      {"train_samples", &flags->train_samples, 1, kMax},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (FlagValue(arg, "cities", &value)) {
      flags->cities.clear();
      size_t pos = 0;
      while (pos <= value.size()) {
        size_t comma = value.find(',', pos);
        if (comma == std::string::npos) comma = value.size();
        if (comma > pos) {
          flags->cities.push_back(value.substr(pos, comma - pos));
        }
        pos = comma + 1;
      }
    } else if (FlagValue(arg, "snapshot_dir", &value)) {
      flags->snapshot_dir = value;
    } else if (FlagValue(arg, "fault", &value)) {
      flags->fault_spec = value;
    }
    for (const IntFlag& flag : int_flags) {
      if (!FlagValue(arg, flag.name, &value)) continue;
      const ovs::StatusOr<int> parsed = ovs::ParseInt(value, flag.name);
      if (!parsed.ok() || *parsed < flag.min || *parsed > flag.max) {
        std::cerr << "ovs_served: --" << flag.name << " wants an integer in ["
                  << flag.min << ", " << flag.max << "], got '" << value
                  << "'\n"
                  << kUsage;
        return false;
      }
      *flag.value = *parsed;
    }
  }
  return true;
}

bool CityConfigByName(const std::string& name, ovs::data::DatasetConfig* out) {
  if (name == "synthetic3x3") {
    *out = ovs::data::Synthetic3x3Config();
  } else if (name == "statecollege") {
    *out = ovs::data::StateCollegeConfig();
  } else if (name == "hangzhou") {
    *out = ovs::data::HangzhouConfig();
  } else if (name == "porto") {
    *out = ovs::data::PortoConfig();
  } else if (name == "manhattan") {
    *out = ovs::data::ManhattanConfig();
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ovs::BenchArgs bench_args = ovs::ParseBenchArgs(argc, argv);
  ovs::obs::Session session(
      ovs::obs::MakeBenchSessionOptions(bench_args, argv[0]));
  ServeFlags flags;
  if (!ParseServeFlags(argc, argv, &flags)) return 2;

  ovs::StatusOr<ovs::serve::FaultPlan> plan =
      ovs::serve::FaultInjector::ParseSpec(flags.fault_spec);
  if (!plan.ok()) {
    std::cerr << "bad --fault spec: " << plan.status().ToString() << "\n";
    return 2;
  }
  ovs::serve::FaultInjector faults(*plan);

  ovs::serve::ServerOptions options;
  options.admission.queue_capacity = flags.queue_capacity;
  options.admission.workers_per_shard = flags.workers;
  options.default_recovery_epochs = flags.epochs;
  options.default_restarts = flags.restarts;
  options.drain_ms = flags.drain_ms;
  ovs::serve::RecoveryServer server(options, &faults);

  for (const std::string& city : flags.cities) {
    ovs::serve::CityOptions copts;
    if (!CityConfigByName(city, &copts.dataset)) {
      std::cerr << "unknown city preset: " << city << "\n";
      return 2;
    }
    copts.stage1_epochs = flags.train_epochs;
    copts.stage2_epochs = flags.train_epochs;
    copts.train_samples = flags.train_samples;
    const ovs::Status registered = server.RegisterCity(city, copts);
    if (!registered.ok()) {
      std::cerr << "cannot register " << city << ": " << registered.ToString()
                << "\n";
      return 2;
    }
    if (!flags.snapshot_dir.empty()) {
      const std::string path = flags.snapshot_dir + "/" + city + ".ovsm";
      const ovs::Status saved = server.registry().SaveSnapshot(city, path);
      if (!saved.ok()) {
        std::cerr << "cannot save snapshot for " << city << ": "
                  << saved.ToString() << "\n";
        return 2;
      }
      LOG(INFO) << "saved snapshot " << path;
    }
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  // A dead client closing its pipe mid-response must surface as a write
  // error (cancellation), not kill the process.
  std::signal(SIGPIPE, SIG_IGN);

  LOG(INFO) << "ovs_served ready ("
            << (flags.port >= 0 ? "tcp:" + std::to_string(flags.port)
                                : std::string("stdio"))
            << ", " << flags.cities.size() << " cities)";
  if (flags.port >= 0) {
    const ovs::Status served =
        ovs::serve::RunTcpServer(server, flags.port, &g_shutdown);
    if (!served.ok()) {
      std::cerr << "tcp server failed: " << served.ToString() << "\n";
      server.Shutdown();
      return 1;
    }
  } else {
    ovs::serve::RunConnection(server, /*in_fd=*/0, /*out_fd=*/1, &g_shutdown);
  }

  // Graceful exit: stop admission, drain, flush telemetry.
  server.Shutdown();
  return session.Close() ? 0 : 1;
}
