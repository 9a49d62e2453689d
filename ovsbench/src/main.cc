// ovsbench — the repo benchmark binary. ovsbench/run.py builds and runs it;
// see ovsbench/README.md.
//
//   ovsbench --workload serve_open --seed 1 --seconds 10 --trace 0
//            [--workdir DIR]
//
// The pool has one thread per core. Prints one JSON line: {"correct",
// "attempted", "failed", "metrics"} with every end-to-end metric
// (--trace 0) or every per-layer metric (--trace 1).
// Exit codes: 0 ok, 1 an output check failed, 2 usage or set-up error,
// 3 the open-loop schedule was not honoured (the run is not recorded).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "util/parse.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",      "peak_rss_mb",        "error_frac",
    "serve_p50_ms", "serve_p99_ms",       "serve_capacity_rps",
    "recover_s",    "recover_tod_rmse",   "simulate_s",
};

const std::vector<std::string> kPerLayer = {
    "serve.parse_us",        "serve.serialize_us",   "serve.service_ms",
    "serve.request_self_ms", "serve.queue_wait_ms",  "serve.worker_busy_frac",
    "serve.reload_ms",       "serve.shed",           "serve.failed",
    "serve.gen_late_p99_ms", "serve.queue_depth_max",
    "core.recover_epoch_ms", "core.prime_prior_ms",  "core.stage1_epoch_ms",
    "core.stage2_epoch_ms",  "core.datagen_s",       "core.guard_retries",
    "core.diverged_restarts", "core.recover_speedup",
    "nn.forward_ms",         "nn.backward_ms",       "nn.gemm_flops",
    "nn.gflops",             "nn.volume_speed_ms",   "nn.tod_volume_ms",
    "sim.run_ms",            "sim.vehicle_steps",    "sim.vehicle_steps_per_s",
    "sim.unspawned_trips",   "sim.speedup",          "od.demand_ms",
    "data.build_ms",         "pool.idle_frac",       "pool.parallel_fors",
    "pool.chunks",           "obs.trace_overhead_frac",
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ovsbench: %s\nusage: ovsbench --workload "
               "{serve_open|recover_batch|simulate_city} --seed N --seconds S "
               "--trace {0|1} [--workdir DIR]\n",
               why);
  std::exit(2);
}

int IntFlag(const std::string& name, const std::string& value) {
  ovs::StatusOr<int> v = ovs::ParseInt(value, name);
  if (!v.ok() || *v < 0) Usage(("bad value for --" + name).c_str());
  return *v;
}

}  // namespace

int main(int argc, char** argv) {
  ovsbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint64_t>(IntFlag("seed", value));
    } else if (flag == "--seconds") {
      args.seconds = static_cast<int>(IntFlag("seconds", value));
    } else if (flag == "--trace") {
      args.trace = IntFlag("trace", value) != 0;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) Usage("flags come in --name value pairs");
  if (args.seconds < 1) Usage("--seconds must be >= 1");
  ovs::SetGlobalThreads(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency())));

  ovsbench::Report report;
  if (args.workload == "serve_open") {
    ovsbench::RunServeOpen(args, &report);
  } else if (args.workload == "recover_batch") {
    ovsbench::RunRecoverBatch(args, &report);
  } else if (args.workload == "simulate_city") {
    ovsbench::RunSimulateCity(args, &report);
  } else {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  const std::vector<std::string>& names = args.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "ovsbench: %s did not produce metric %s\n",
                   args.workload.c_str(), name.c_str());
      return 2;
    }
  }
  if (!report.valid()) return 3;
  std::printf("%s\n", report.Json(names).c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
