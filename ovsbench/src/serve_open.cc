// serve_open: JSONL recover requests through serve::RunConnection, the path
// ovs_served clients use, on the small synthetic3x3 city where per-request
// fixed costs dominate. Also home of the serve and recovery probes the
// other workloads run on the same city.

#include <algorithm>
#include <cmath>
#include <memory>

#include "serve/protocol.h"
#include "stats.h"
#include "workloads.h"

namespace ovsbench {

using namespace ovs;

namespace {

// Open-loop arrival rate: about half the serve capacity bench/fig16_serve_load
// measured before this benchmark existed (4 closed-loop clients on 4 cores:
// 314.6 req/s), and a quarter of this workload's closed-loop capacity.
constexpr double kOpenRatePerS = 150.0;
// Open-loop requests per round: at least 1000, so that ten samples lie
// beyond each round's p99. serve_p99_ms is the lowest of the rounds' p99s:
// a host stall of a few hundred ms, or a slow stretch of the shared host,
// raises the p99 of every round it covers, and one clean round is enough.
// Then closed-loop requests, 4 in flight, per measured second.
constexpr int kMinOpenPerRound = 1000;
constexpr double kOpenRequestsPerS = 160.0;
constexpr double kClosedRequestsPerS = 250.0;
constexpr int kRounds = 4;
constexpr int kSetupRepeats = 5;  // see RepeatSetupAfter
// The serve probe: three connections, each an open loop of 100 requests
// at kOpenRatePerS, then a closed loop of 1000, ten beyond its p99.
constexpr int kProbeConnections = 3;
constexpr int kProbeOpenRequests = 100;
constexpr int kProbeClosedRequests = 1000;
// Probe sizes per measured second: offline recoveries, and scenarios of
// the simulation probe.
constexpr double kProbeRecoveriesPerS = 60.0;
constexpr double kProbeScenariosPerS = 3.0;
// Closed-loop requests that warm the server before anything is recorded.
constexpr int kWarmupRequests = 100;

/// Per-layer serve metrics of one load phase and its traced segment.
void ReportServeLayers(const LoadResult& load,
                       const std::vector<obs::PhaseNode>& profile,
                       uint64_t shed, uint64_t failed, const TrainedCity& city,
                       uint64_t seed, Report* report) {
  FoldLayerSpans(profile, report);
  const SpanAgg requests = FoldSpan(profile, "serve.request");
  double latency_sum = 0.0;
  for (double ms : load.send_latency_ms) latency_sum += ms;
  const double mean_latency =
      load.send_latency_ms.empty() ? 0.0
                                   : latency_sum / load.send_latency_ms.size();
  report->SetDefault("serve.queue_wait_ms", mean_latency - requests.mean_ms(),
                     "ms");
  report->SetDefault("serve.worker_busy_frac",
                     requests.total_ms / (kServeWorkers * load.measured_s * 1e3),
                     "frac");
  report->SetDefault("serve.reload_ms", Median(load.reload_ms), "ms");
  report->SetDefault("serve.shed", static_cast<double>(shed), "count");
  report->SetDefault("serve.failed", static_cast<double>(failed), "count");
  report->SetDefault(
      "serve.gen_late_p99_ms",
      ReportablePercentile(load.gen_late_ms, 0.99, 0).value_or(0.0), "ms");
  report->SetDefault(
      "serve.queue_depth_max",
      load.queue_depths.empty()
          ? 0.0
          : *std::max_element(load.queue_depths.begin(), load.queue_depths.end()),
      "count");

  // Protocol costs, timed on this run's own request lines and on a
  // response to one of them.
  {
    Timed t("bench.serve.parse_request");
    size_t parsed = 0;
    for (const std::string& line : load.sent_lines) {
      parsed += serve::ParseRequest(line.substr(0, line.size() - 1)).ok();
    }
    report->SetDefault("serve.parse_us", t.ms() * 1e3 / load.sent_lines.size(),
                       "us");
    if (parsed != load.sent_lines.size()) {
      report->Fail("a sent request line does not parse");
    }
  }
  const DMat observed = ObservedSpeeds(*city.dataset, seed, 1, 0.0)[0];
  const RecoveryRun run =
      Recover(city, observed, static_cast<uint32_t>(seed), kServeEpochs, 1);
  serve::Response response;
  response.id = "q0";
  response.city = kServeCity;
  response.snapshot_version = 1;
  response.loss = run.loss;
  response.tod = run.tod;
  response.has_tod = true;
  constexpr int kSerializeReps = 500;
  size_t bytes = 0;
  Timed t("bench.serve.serialize_response");
  for (int i = 0; i < kSerializeReps; ++i) {
    bytes += serve::SerializeResponse(response).size();
  }
  report->SetDefault("serve.serialize_us", t.ms() * 1e3 / kSerializeReps, "us");
  if (bytes == 0) report->Fail("empty serialized response");
}

/// In-process recover request, for the tracing-overhead probe.
serve::Request OverheadRequest(const DMat& observed, uint64_t seed) {
  serve::Request request;
  request.id = "overhead";
  request.city = kServeCity;
  request.seed = static_cast<uint32_t>(seed);
  request.recovery_epochs = kServeEpochs;
  request.restarts = 1;
  request.observed_speed = observed;
  return request;
}

int PerRound(double per_s, const Args& args, int rounds) {
  return std::max(
      1, static_cast<int>(std::lround(per_s * args.seconds / rounds)));
}

std::string List(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

}  // namespace

ServeSeries::ServeSeries(const Args& args, serve::RecoveryServer* s,
                         Report* report)
    : server(s), city(CityFromRegistry(*s, kServeCity)),
      inputs(MakeServeInputs(*city.dataset, args.seed)),
      reload_path(args.workdir + "/serve_city.ovsm") {
  const Status saved = server->registry().SaveSnapshot(kServeCity, reload_path);
  if (!saved.ok()) {
    report->Fail("SaveSnapshot: " + saved.ToString());
    reload_path.clear();
  }
  LoadPlan warmup;
  warmup.closed_requests = kWarmupRequests;
  RunLoad(*server, inputs, warmup, args.seed * 977 + 1, report);
}

void ServeSeries::Run(const Args& args, int open_requests,
                      double open_rate_per_s, int closed_requests,
                      Report* report) {
  LoadPlan plan;
  plan.open_requests = open_requests;
  plan.open_rate_per_s = open_rate_per_s;
  plan.closed_requests = closed_requests;
  plan.reload_path = reload_path;
  const uint64_t shed0 = CounterValue("serve.requests.shed");
  const uint64_t failed0 = CounterValue("serve.requests.failed");
  const uint64_t slice_seed = args.seed * 977 + load.send_latency_ms.size();
  LoadResult slice;
  const std::vector<obs::PhaseNode> profile = TraceSegment(args.trace, [&] {
    slice = RunLoad(*server, inputs, plan, slice_seed, report);
  });
  if (args.trace) {
    ReportServeLayers(slice, profile,
                      CounterValue("serve.requests.shed") - shed0,
                      CounterValue("serve.requests.failed") - failed0, city,
                      args.seed, report);
  }
  auto keep = [](std::optional<double> value, std::vector<double>* to) {
    if (value) to->push_back(*value);
  };
  keep(ReportablePercentile(slice.open_latency_ms, 0.5), &open_p50_ms);
  keep(ReportablePercentile(slice.open_latency_ms, 0.99), &open_p99_ms);
  keep(ReportablePercentile(slice.closed_latency_ms, 0.99), &closed_p99_ms);
  if (slice.closed_done > 0) closed_rps.push_back(slice.capacity_rps());
  load.Append(slice);
}

RecoverySeries ServeCityRecoveries(const Args& args, const TrainedCity& city) {
  RecoverySeries series;
  series.city = &city;
  series.observed = ObservedSpeeds(*city.dataset, args.seed, 4, 0.0);
  series.epochs = kServeEpochs;
  series.restarts = 1;
  return series;
}

void ServeSeries::Probe(const Args& args, int round, int rounds,
                        Report* report) {
  for (int i = Slice(kProbeConnections, round, rounds); i > 0; --i) {
    Run(args, kProbeOpenRequests, kOpenRatePerS, kProbeClosedRequests, report);
  }
}

int RecoveryProbeCalls(const Args& args, int rounds) {
  return PerRound(kProbeRecoveriesPerS, args, rounds);
}

void ReportServe(const ServeSeries& serve, bool open_loop_p99,
                 Report* report) {
  const std::vector<double>& p99s =
      open_loop_p99 ? serve.open_p99_ms : serve.closed_p99_ms;
  Progress("serve: " + std::to_string(serve.load.open_latency_ms.size()) +
           " open-loop requests at " + std::to_string(kOpenRatePerS) +
           " req/s and " +
           std::to_string(serve.load.closed_latency_ms.size()) +
           " closed-loop; per connection: open-loop p50 (ms)" +
           List(serve.open_p50_ms) +
           (open_loop_p99 ? "; open-loop p99 (ms)" : "; closed-loop p99 (ms)") +
           List(p99s) + "; closed-loop rate (1/s)" + List(serve.closed_rps));
  report->RequireSamples("serve_p50_ms", serve.open_p50_ms.size());
  report->RequireSamples("serve_p99_ms", p99s.size());
  report->RequireSamples("serve_capacity_rps", serve.closed_rps.size());
  report->RequireSamples("recover_tod_rmse",
                         static_cast<size_t>(serve.load.served_rmse_count));
  report->SetDefault("serve_p50_ms", Lowest(serve.open_p50_ms), "ms");
  report->SetDefault("serve_p99_ms", Lowest(p99s), "ms");
  report->SetDefault("serve_capacity_rps", Highest(serve.closed_rps), "1/s");
  report->SetDefault("recover_tod_rmse", serve.load.served_rmse(), "trips");
}

void RunServeOpen(const Args& args, Report* report) {
  // Set-up: register the city on a fresh server. Repeats (see
  // RepeatSetupAfter) register it on a server that is shut down again.
  std::vector<double> setups;
  auto start_server = [&] {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<serve::RecoveryServer> started = StartServeCity();
    setups.push_back(MsSince(t0) * 1e-3);
    return started;
  };
  std::unique_ptr<serve::RecoveryServer> server;
  const std::vector<obs::PhaseNode> setup_profile =
      TraceSegment(args.trace, [&] { server = start_server(); });
  if (args.trace) FoldLayerSpans(setup_profile, report);

  ServeSeries serve(args, server.get(), report);
  const data::Dataset& dataset = *serve.city.dataset;
  RecoverySeries recoveries = ServeCityRecoveries(args, serve.city);
  ScenarioSeries scenarios;
  scenarios.dataset = &dataset;
  scenarios.tods = PatternTods(dataset, args.seed);
  scenarios.works.resize(scenarios.tods.size());

  // Measured rounds: the open loop then the closed loop on one connection,
  // then the cross-path probes on the same city (offline recoveries of the
  // request shape, and its five pattern scenarios).
  const int rounds = Rounds(args, kRounds);
  const int open_per_round = std::max(
      kMinOpenPerRound,
      static_cast<int>(std::lround(kOpenRequestsPerS * args.seconds / rounds)));
  const int closed_total =
      static_cast<int>(std::lround(kClosedRequestsPerS * args.seconds));
  const int recoveries_per_round = RecoveryProbeCalls(args, rounds);
  const int scenarios_per_round = PerRound(kProbeScenariosPerS, args, rounds);
  for (int r = 0; r < rounds; ++r) {
    const PoolDelta pool;
    serve.Run(args, open_per_round, kOpenRatePerS,
              Slice(closed_total, r, rounds), report);
    if (args.trace) ReportPool(pool, report);
    recoveries.Run(args, recoveries_per_round, report);
    scenarios.Run(args, scenarios_per_round, report);
    if (RepeatSetupAfter(args, kSetupRepeats, r, rounds)) {
      start_server()->Shutdown();
    }
  }
  report->Set("setup_s", Median(setups), "s");
  // Latency is the open loop's, timed from each request's scheduled send
  // time; capacity is the closed loop's.
  ReportServe(serve, /*open_loop_p99=*/true, report);
  recoveries.Finish(args, report);
  scenarios.Finish(args, report);

  if (args.trace) {
    const serve::CityOptions options = ServeCityOptions();
    TimeOnboardingLayers(options.dataset, options.train_samples,
                         options.train_seed, report);
    const serve::Request request = OverheadRequest(
        ObservedSpeeds(dataset, args.seed, 1, 0.0)[0], args.seed);
    MeasureTraceOverhead([&] { server->Handle(request); }, 60, report);
  }
  server->Shutdown();
  FinishRun(report);
}

}  // namespace ovsbench
