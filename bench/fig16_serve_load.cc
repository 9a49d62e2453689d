// Serving-layer load figure (no paper analogue — systems study): N in-process
// clients hammer the recovery server's synthetic3x3 shard and we report
// sustained request throughput plus p50/p99 latency. Latency and req/s are
// wall-clock and land in gauges (perfdiff never gates gauges); the
// deterministic drill outcomes — byte-identity of a repeated request, schema
// validity of every response line — land in results where the gate watches
// them.
//
// `--soak` switches to the fault drill CI runs: a saturated 1-worker shard,
// seeded slow handlers and mid-fit worker failures, one corrupted hot-reload
// (the previous snapshot must keep serving), and deadline-doomed requests.
// Every response must stay schema-valid and every error structured+classified;
// success prints "[fig16] SOAK OK".

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/training_data.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "serve/fault_injection.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/bench_config.h"
#include "util/json.h"

namespace {

using Clock = std::chrono::steady_clock;
using namespace ovs;

serve::CityOptions BenchCity(bool full) {
  serve::CityOptions copts;
  copts.dataset = data::Synthetic3x3Config();
  copts.model.lstm_hidden = 8;
  copts.model.speed_head_hidden = 8;
  copts.train_samples = full ? 6 : 3;
  copts.stage1_epochs = full ? 20 : 4;
  copts.stage2_epochs = full ? 20 : 4;
  return copts;
}

serve::Request RecoverRequest(const std::string& id, uint32_t seed,
                              const DMat& observed) {
  serve::Request req;
  req.id = id;
  req.method = serve::Method::kRecover;
  req.city = "synthetic3x3";
  req.seed = seed;
  req.observed_speed = observed;
  return req;
}

double Quantile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Sorting doubles: equal keys are interchangeable for a quantile.
  std::sort(sorted.begin(), sorted.end());  // ovs-lint: allow(nonstable-sort)
  const size_t idx = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct ClientTally {
  std::vector<double> latencies_ms;
  int ok = 0;
  int shed = 0;
  int deadline = 0;
  int failed = 0;     // INTERNAL (injected worker failures)
  int other_err = 0;  // anything outside the structured taxonomy = drill FAIL
  int schema_bad = 0;
};

/// One client: `requests` synchronous recover calls, tallying latency and
/// the structured-error taxonomy. Every response line must re-parse as JSON.
ClientTally RunClient(serve::RecoveryServer& server, int client, int requests,
                      int epochs, int deadline_ms, const DMat& observed) {
  ClientTally tally;
  for (int i = 0; i < requests; ++i) {
    // Separate appends sidestep GCC 12's operator+ -Wrestrict false
    // positive (PR105651), matching the repo-wide convention.
    std::string req_id = "c";
    req_id += std::to_string(client);
    req_id += "-r";
    req_id += std::to_string(i);
    serve::Request req = RecoverRequest(
        req_id, static_cast<uint32_t>(client * 1000 + i), observed);
    req.recovery_epochs = epochs;
    req.deadline_ms = deadline_ms;
    const Clock::time_point start = Clock::now();
    serve::Response r = server.Handle(req);
    tally.latencies_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count());
    if (!ovs::ParseJson(serve::SerializeResponse(r)).ok()) ++tally.schema_bad;
    if (r.status.ok()) {
      ++tally.ok;
      continue;
    }
    switch (r.status.code()) {
      case StatusCode::kResourceExhausted:
        ++tally.shed;
        break;
      case StatusCode::kDeadlineExceeded:
        ++tally.deadline;
        break;
      case StatusCode::kInternal:
        ++tally.failed;
        break;
      case StatusCode::kUnavailable:
        ++tally.shed;  // drain-time flush: same retry-with-backoff advice
        break;
      default:
        ++tally.other_err;
        break;
    }
    if (!serve::IsRetryable(r.status.code())) ++tally.other_err;
  }
  return tally;
}

int RunLoad(obs::Session& session, bool full) {
  const int clients = full ? 16 : 4;
  const int per_client = full ? 20 : 6;
  const int epochs = full ? 12 : 3;

  serve::ServerOptions options;
  options.admission.queue_capacity = 2 * clients * per_client;  // no shedding
  options.admission.workers_per_shard = full ? 4 : 2;
  serve::RecoveryServer server(options);
  const Status registered =
      server.RegisterCity("synthetic3x3", BenchCity(full));
  if (!registered.ok()) {
    std::fprintf(stderr, "[fig16] register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }
  data::Dataset dataset = data::BuildDataset(data::Synthetic3x3Config());
  const DMat observed = core::SimulateGroundTruth(dataset, 4242).speed;

  const Clock::time_point start = Clock::now();
  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      tallies[static_cast<size_t>(c)] = RunClient(
          server, c, per_client, epochs, /*deadline_ms=*/0, observed);
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - start).count();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.ok += t.ok;
    total.shed += t.shed;
    total.deadline += t.deadline;
    total.failed += t.failed;
    total.other_err += t.other_err;
    total.schema_bad += t.schema_bad;
    total.latencies_ms.insert(total.latencies_ms.end(), t.latencies_ms.begin(),
                              t.latencies_ms.end());
  }
  const double p50 = Quantile(total.latencies_ms, 0.50);
  const double p99 = Quantile(total.latencies_ms, 0.99);
  const double req_s = static_cast<double>(clients * per_client) / wall_s;

  // Determinism drill: the same (seed, snapshot) request twice, after the
  // load, must serialize to identical bytes.
  const std::string once = serve::SerializeResponse(
      server.Handle(RecoverRequest("det", 7, observed)));
  const std::string twice = serve::SerializeResponse(
      server.Handle(RecoverRequest("det", 7, observed)));
  const bool deterministic = once == twice;
  server.Shutdown();

  std::printf(
      "[fig16] load clients %d requests %d ok %d p50 %.1f ms p99 %.1f ms "
      "%.1f req/s deterministic %s\n",
      clients, clients * per_client, total.ok, p50, p99, req_s,
      deterministic ? "yes" : "NO");
  OVS_GAUGE_SET("fig16.p50_ms", p50);
  OVS_GAUGE_SET("fig16.p99_ms", p99);
  OVS_GAUGE_SET("fig16.req_per_s", req_s);
  obs::ReportResult("fig16.requests", clients * per_client);
  obs::ReportResult("fig16.completed", total.ok);
  obs::ReportResult("fig16.deterministic", deterministic ? 1.0 : 0.0);
  obs::ReportResult("fig16.schema_violations", total.schema_bad);

  const bool finite = std::isfinite(p50) && std::isfinite(p99) && p50 > 0.0;
  if (!finite || !deterministic || total.schema_bad > 0 ||
      total.other_err > 0 || total.ok != clients * per_client) {
    std::fprintf(stderr, "[fig16] LOAD FAILED\n");
    return 1;
  }
  return session.Close() ? 0 : 1;
}

int RunSoak(obs::Session& session, bool full) {
  const int clients = full ? 12 : 6;
  const int per_client = full ? 12 : 5;

  serve::FaultPlan plan;
  plan.seed = 1;
  plan.slow_prob = 0.3;
  plan.slow_ms = 20;
  plan.fail_prob = 0.25;
  plan.fail_epoch = 1;
  serve::FaultInjector faults(plan);

  serve::ServerOptions options;
  options.admission.queue_capacity = 2;  // guarantees saturation shedding
  options.admission.workers_per_shard = 1;
  options.default_recovery_epochs = 3;
  serve::RecoveryServer server(options, &faults);
  const Status registered =
      server.RegisterCity("synthetic3x3", BenchCity(false));
  if (!registered.ok()) {
    std::fprintf(stderr, "[fig16] register failed: %s\n",
                 registered.ToString().c_str());
    return 1;
  }
  data::Dataset dataset = data::BuildDataset(data::Synthetic3x3Config());
  const DMat observed = core::SimulateGroundTruth(dataset, 4242).speed;

  // Snapshot file for the hot-reload drill.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("ovs_fig16_soak_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string snapshot_path = (dir / "synthetic3x3.ovsm").string();
  const Status saved =
      server.registry().SaveSnapshot("synthetic3x3", snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "[fig16] snapshot save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }

  std::vector<ClientTally> tallies(static_cast<size_t>(clients));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      tallies[static_cast<size_t>(c)] =
          RunClient(server, c, per_client, /*epochs=*/3,
                    /*deadline_ms=*/c == 0 ? 1 : 0, observed);
    });
  }

  // Mid-load: a corrupted hot-reload must fail structurally and leave the
  // previous snapshot serving; the clean retry must succeed.
  faults.ArmCorruptReloads(1);
  const StatusOr<uint64_t> corrupt =
      server.registry().Reload("synthetic3x3", snapshot_path);
  const StatusOr<uint64_t> clean =
      server.registry().Reload("synthetic3x3", snapshot_path);
  for (std::thread& t : threads) t.join();

  ClientTally total;
  for (const ClientTally& t : tallies) {
    total.ok += t.ok;
    total.shed += t.shed;
    total.deadline += t.deadline;
    total.failed += t.failed;
    total.other_err += t.other_err;
    total.schema_bad += t.schema_bad;
  }

  // Post-churn determinism: identical requests against the settled snapshot.
  const std::string once = serve::SerializeResponse(
      server.Handle(RecoverRequest("soak-det", 7, observed)));
  const std::string twice = serve::SerializeResponse(
      server.Handle(RecoverRequest("soak-det", 7, observed)));
  const bool deterministic = once == twice;
  server.Shutdown();
  std::filesystem::remove_all(dir);

  const bool reload_drill_ok = !corrupt.ok() && clean.ok();
  std::printf(
      "[fig16] soak ok %d shed %d deadline %d injected-fail %d "
      "unstructured %d schema-bad %d reload-drill %s deterministic %s\n",
      total.ok, total.shed, total.deadline, total.failed, total.other_err,
      total.schema_bad, reload_drill_ok ? "pass" : "FAIL",
      deterministic ? "yes" : "NO");
  obs::ReportResult("fig16.soak.requests", clients * per_client);
  obs::ReportResult("fig16.soak.deterministic", deterministic ? 1.0 : 0.0);
  obs::ReportResult("fig16.soak.schema_violations", total.schema_bad);
  obs::ReportResult("fig16.soak.unstructured_errors", total.other_err);
  OVS_GAUGE_SET("fig16.soak.shed", total.shed);
  OVS_GAUGE_SET("fig16.soak.deadline_exceeded", total.deadline);
  OVS_GAUGE_SET("fig16.soak.injected_failures", total.failed);

  const bool pass = total.other_err == 0 && total.schema_bad == 0 &&
                    reload_drill_ok && deterministic &&
                    total.ok + total.shed + total.deadline + total.failed ==
                        clients * per_client;
  if (!pass) {
    std::fprintf(stderr, "[fig16] SOAK FAILED\n");
    return 1;
  }
  std::printf("[fig16] SOAK OK\n");
  return session.Close() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  obs::Session session(obs::MakeBenchSessionOptions(args, argv[0]));
  const bool full = GetBenchScale() == BenchScale::kFull;
  bool soak = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--soak") soak = true;
  }
  return soak ? RunSoak(session, full) : RunLoad(session, full);
}
