#ifndef OVSBENCH_WORKLOADS_H_
#define OVSBENCH_WORKLOADS_H_

#include <functional>
#include <string>
#include <vector>

#include "common.h"

namespace ovsbench {

/// The three workloads. Each fills every end-to-end metric (untraced run)
/// or every per-layer metric (traced run) into `report`.
void RunServeOpen(const Args& args, Report* report);
void RunRecoverBatch(const Args& args, Report* report);
void RunSimulateCity(const Args& args, Report* report);

// --- Measured phases --------------------------------------------------------
// Every run reports every end-to-end metric. A workload whose own path does
// not produce one also runs a small fixed probe of that path. Untraced runs
// interleave all phases in rounds (see Rounds), so every metric samples the
// whole run rather than one stretch of a shared machine's changing speed;
// a traced run makes one round, so each phase is its own traced segment.

/// Interleaving rounds: `untraced` normally, 1 in a traced run.
inline int Rounds(const Args& args, int untraced) {
  return args.trace ? 1 : untraced;
}

/// The share of `total` that round `round` of `rounds` runs.
inline int Slice(int total, int round, int rounds) {
  return total * (round + 1) / rounds - total * round / rounds;
}

/// An untraced run times `repeats` set-ups: one before the measured rounds,
/// the rest after evenly spaced rounds, so that setup_s, their median,
/// samples the whole run as the other metrics do. Whether one more set-up
/// is timed after round `round` of `rounds`.
inline bool RepeatSetupAfter(const Args& args, int repeats, int round,
                             int rounds) {
  const int extra = repeats - 1;
  return !args.trace && (round + 1) * extra / rounds != round * extra / rounds;
}

/// Offline OvsTrainer::RecoverTod calls on one city, cycling through
/// `observed`, each checked finite.
struct RecoverySeries {
  const TrainedCity* city = nullptr;
  std::vector<ovs::DMat> observed;
  int epochs = 0;
  int restarts = 1;
  std::vector<RecoveryRun> runs;

  void Run(const Args& args, int calls, Report* report);
  /// recover_s (the fastest call) and the pool-1 check: a short recovery
  /// must give bitwise the same TOD and loss on one thread. Traced:
  /// core.prime_prior_ms, core.recover_speedup (first call repeated on one
  /// thread) and the nn.* timings on the city's shapes.
  void Finish(const Args& args, Report* report) const;
};

/// 2-hour scenarios on one city: a fresh od::DemandGenerator per draw, then
/// the simulator, cycling through `tods` (each with its road work).
struct ScenarioSeries {
  const ovs::data::Dataset* dataset = nullptr;
  std::vector<ovs::od::TodTensor> tods;
  std::vector<std::vector<ovs::sim::RoadWork>> works;
  std::vector<ScenarioRun> runs;

  void Run(const Args& args, int count, Report* report);
  /// simulate_s (each draw's fastest run, averaged) and the pool-1 check: the first draw's
  /// volume and speed must match bitwise on one thread. Traced: sim.*,
  /// od.demand_ms.
  void Finish(const Args& args, Report* report) const;
};

/// JSONL load through serve::RunConnection on the serve city, with reloads
/// of the city's own saved snapshot.
///
/// The serve metrics are those of the run's best connection (its lowest
/// latency percentiles, its highest closed-loop rate): each connection is a
/// stretch of several seconds, and a slow spell of a shared host raises the
/// latencies of every connection it covers (see README, "Best stretches").
struct ServeSeries {
  ovs::serve::RecoveryServer* server = nullptr;
  TrainedCity city;
  ServeInputs inputs;
  std::string reload_path;
  LoadResult load;  ///< every connection's load, folded
  /// Per connection, each kept only when reportable (>= 10 samples beyond
  /// it): p50 and p99 of the open loop, p99 of the closed loop; and the
  /// closed-loop rate.
  std::vector<double> open_p50_ms, open_p99_ms, closed_p99_ms, closed_rps;

  /// Saves the reload snapshot and warms the server and the connection
  /// path with a short closed loop that is checked but not recorded.
  ServeSeries(const Args& args, ovs::serve::RecoveryServer* server,
              Report* report);
  /// One more connection: an open-loop phase at `open_rate_per_s`, then a
  /// closed-loop phase. Traced: the serve.* layers and the spans under them.
  void Run(const Args& args, int open_requests, double open_rate_per_s,
           int closed_requests, Report* report);
  /// Round `round` of `rounds` of the serve probe: the probe's connections
  /// are spread evenly over the rounds, all of them in a single round. Each
  /// is a short open loop at serve_open's rate, then a closed loop of 1000
  /// requests, enough for its own p99.
  void Probe(const Args& args, int round, int rounds, Report* report);
};

/// Offline recoveries of the serve request shape on the serve city.
RecoverySeries ServeCityRecoveries(const Args& args, const TrainedCity& city);

/// Offline recoveries per round of the recovery probe, for a run of
/// `rounds` rounds.
int RecoveryProbeCalls(const Args& args, int rounds);

/// Sets serve_p50_ms (open loop), serve_p99_ms (of the open loop, or else
/// of the closed loop) and serve_capacity_rps (closed loop), each from the
/// best connection of `serve`, and recover_tod_rmse (SetDefault: a
/// workload's own path wins).
void ReportServe(const ServeSeries& serve, bool open_loop_p99, Report* report);

/// The lowest and the highest of `values`; 0 for none, which
/// Report::RequireSamples turns into a failure.
double Lowest(const std::vector<double>& values);
double Highest(const std::vector<double>& values);

/// Traced run only: times BuildDataset and GenerateTrainingData directly
/// (data.build_ms, core.datagen_s) for a city onboarded elsewhere.
void TimeOnboardingLayers(const ovs::data::DatasetConfig& config, int samples,
                          uint64_t seed, Report* report);

/// Traced run only: obs.trace_overhead_frac from `op` run `reps` times with
/// tracing off and on, alternating, as median(on) / median(off) - 1.
void MeasureTraceOverhead(const std::function<void()>& op, int reps,
                          Report* report);

/// Traced run only: pool.idle_frac, pool.parallel_fors and pool.chunks of
/// the measured region `pool` started at.
void ReportPool(const PoolDelta& pool, Report* report);

/// Sets peak_rss_mb and error_frac; every workload calls it last.
void FinishRun(Report* report);

}  // namespace ovsbench

#endif  // OVSBENCH_WORKLOADS_H_
