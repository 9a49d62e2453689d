#ifndef OVSBENCH_COMMON_H_
#define OVSBENCH_COMMON_H_

// Pieces the three workloads share: the result sink, span/counter readers,
// seeded input generation, offline recovery, scenario simulation, and the
// JSONL load generator that drives serve::RunConnection over a socketpair.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ovs_config.h"
#include "core/training_data.h"
#include "data/dataset.h"
#include "nn/tensor.h"
#include "obs/trace.h"
#include "od/tod_tensor.h"
#include "serve/server.h"
#include "sim/engine.h"
#include "util/mat.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace ovsbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Progress line on stderr, stamped with seconds since the process began.
void Progress(const std::string& message);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".";  ///< scratch files (reload snapshots)
};

/// Collects the run's metrics and operation tally, printed as one JSON line.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Sets the metric unless an earlier phase of the run already did: the
  /// workload's own path reports first, its cross-path probes fill gaps.
  void SetDefault(const std::string& name, double value,
                  const std::string& unit) {
    if (!Has(name)) Set(name, value, unit);
  }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  void Attempt(int64_t n = 1) { attempted_ += n; }
  /// An operation failed, was refused, or failed an output check. Every
  /// workload is built so that none does, so a failure also marks the run
  /// incorrect.
  void Fail(const std::string& why);
  /// A metric computed from no samples says nothing; that fails the run.
  void RequireSamples(const std::string& metric, size_t samples) {
    if (samples == 0) Fail(metric + " has no samples");
  }
  /// Open-loop validity: the schedule was not honoured, so the numbers do
  /// not describe the configured load.
  void Invalid(const std::string& why);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0; }
  bool valid() const { return invalid_reasons_.empty(); }

  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` with exactly
  /// the metrics named in `names`, in that order.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> invalid_reasons_;
};

/// (failed + 1/2) / (attempted + 1): the Jeffreys estimate of the failure
/// rate. It reads above zero on a clean run, so its run-to-run spread is
/// defined, and one failure in a run moves it threefold.
double ErrorFrac(int64_t attempted, int64_t failed);

/// Peak resident set of this process, MiB.
double PeakRssMb();

/// Every span named `name` in the folded phase tree, wherever it nests.
struct SpanAgg {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double mean_ms() const { return count > 0 ? total_ms / count : 0.0; }
  double mean_self_ms() const { return count > 0 ? self_ms / count : 0.0; }
};
SpanAgg FoldSpan(const std::vector<ovs::obs::PhaseNode>& roots,
                 const std::string& name);

/// Current value of an obs counter (0 when never registered).
uint64_t CounterValue(const std::string& name);

/// Runs `fn`, with tracing on when `trace` is set, and returns the phase
/// tree of that segment alone (empty when untraced).
std::vector<ovs::obs::PhaseNode> TraceSegment(bool trace,
                                              const std::function<void()>& fn);

/// Per-layer metrics the program's own spans give: recovery and training
/// epochs, module forward self times, served requests.
/// Each is set only when the segment holds its span (see SetDefault).
void FoldLayerSpans(const std::vector<ovs::obs::PhaseNode>& profile,
                    Report* report);

/// Wall-clock timer that also records an obs span (a no-op when tracing
/// is off), so the benchmark's own calls show up in the phase tree.
class Timed {
 public:
  explicit Timed(const char* span) : span_(span), start_(Clock::now()) {}
  double ms() const { return MsSince(start_); }

 private:
  ovs::obs::ScopedSpan span_;
  Clock::time_point start_;
};

/// Deltas of the global pool's activity counters over a region.
struct PoolDelta {
  ovs::ThreadPool::Stats start;
  Clock::time_point t0;
  PoolDelta();
  /// idle_frac = worker idle time over worker wall time.
  void Finish(double* idle_frac, uint64_t* parallel_fors,
              uint64_t* chunks) const;
};

// --- Inputs -------------------------------------------------------------

/// The small city the serve path registers (synthetic3x3 at the
/// fast-bench training budget).
ovs::serve::CityOptions ServeCityOptions();

/// `count` observed-speed tensors of the dataset's hidden ground-truth TOD,
/// each simulated with its own seed; with `dropout` > 0 that share of
/// cells is dark (NaN), as a failed sensor reports it.
std::vector<ovs::DMat> ObservedSpeeds(const ovs::data::Dataset& dataset,
                                      uint64_t seed, int count,
                                      double dropout);

/// Trips per interval scaled to the dataset's demand, as the training-data
/// generator scales the paper's five patterns.
std::vector<ovs::od::TodTensor> PatternTods(const ovs::data::Dataset& dataset,
                                            uint64_t seed);

// --- Offline recovery ---------------------------------------------------

/// A trained city: everything a recovery needs, as the server pins it.
struct TrainedCity {
  const ovs::data::Dataset* dataset = nullptr;
  const ovs::core::TrainingData* train = nullptr;
  ovs::core::OvsConfig config;
  std::map<std::string, ovs::nn::Tensor> weights;
};

struct RecoveryRun {
  ovs::Status status;
  ovs::DMat tod;
  double loss = 0.0;
  double prime_ms = 0.0;
  double recover_ms = 0.0;
};

/// One offline recovery the way the server materialises it: a fresh model
/// seeded from `seed` with the city's weights copied in, the prior primed
/// from the training data, then OvsTrainer::RecoverTod.
RecoveryRun Recover(const TrainedCity& city, const ovs::DMat& observed,
                    uint32_t seed, int epochs, int restarts);

/// Forward chain (generator, batched TOD->volume, batched volume->speed)
/// and Variable::Backward of one recovery epoch on the city's shapes with
/// `blocks` stacked restarts. Medians over `reps` repetitions.
struct NnTiming {
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  double gemm_flops = 0.0;  ///< per forward+backward
};
NnTiming TimeNn(const TrainedCity& city, int blocks, int reps);

// --- Simulation ---------------------------------------------------------

struct ScenarioRun {
  double demand_ms = 0.0;  ///< DemandGenerator::Generate, incl. routing
  double run_ms = 0.0;     ///< engine build + trips + Run
  int spawned = 0;
  int completed = 0;
  int active = 0;
  int unspawned = 0;
  uint64_t vehicle_steps = 0;  ///< the engine's sim.vehicle_steps counter
  uint64_t checksum = 0;  ///< FNV-1a over the volume and speed bits
};

/// The steps core::SimulateTod takes: a fresh DemandGenerator turns `tod`
/// into trips, and a fresh engine simulates them.
ScenarioRun RunScenario(const ovs::data::Dataset& dataset,
                        const ovs::od::TodTensor& tod, uint64_t seed,
                        const std::vector<ovs::sim::RoadWork>& works = {});

// --- Serve load generator ----------------------------------------------

// The serve city, its shard workers, and the shape of every recover request
// the benchmark sends it.
inline constexpr char kServeCity[] = "synthetic3x3";
inline constexpr int kServeWorkers = 2;
inline constexpr int kServeEpochs = 2;

/// One connection's traffic: an open-loop Poisson phase, then a
/// closed-loop phase with 4 requests in flight; a reload of `reload_path`
/// every second and a health probe every 100 ms throughout.
struct LoadPlan {
  int open_requests = 0;
  double open_rate_per_s = 0.0;
  int closed_requests = 0;
  std::string reload_path;  ///< empty: no reloads
};

struct LoadResult {
  std::vector<double> open_latency_ms;    ///< from scheduled send time
  std::vector<double> closed_latency_ms;  ///< from actual send time
  std::vector<double> send_latency_ms;    ///< every request, from send
  std::vector<double> gen_late_ms;  ///< send time minus due time
  std::vector<int> queue_depths;    ///< health samples, in send order
  std::vector<double> reload_ms;
  int closed_done = 0;    ///< closed-loop requests answered ok
  double closed_s = 0.0;  ///< closed-loop wall time
  double served_rmse_sum = 0.0;  ///< clean single-restart responses vs truth
  int served_rmse_count = 0;
  double measured_s = 0.0;  ///< wall time of both phases
  std::vector<std::string> sent_lines;  ///< request lines of the first load

  double capacity_rps() const {
    return closed_s > 0 ? closed_done / closed_s : 0;
  }
  double served_rmse() const {
    return served_rmse_count > 0 ? served_rmse_sum / served_rmse_count : 0;
  }
  /// Folds a later load on the same server into this one.
  void Append(const LoadResult& other);
};

/// The request payloads of one run: 4 clean and 4 dark (30% null cells)
/// observations of `dataset`'s ground truth, as JSON matrices.
struct ServeInputs {
  const ovs::data::Dataset* dataset = nullptr;
  std::vector<std::string> clean_json;
  std::vector<std::string> dark_json;
};
ServeInputs MakeServeInputs(const ovs::data::Dataset& dataset, uint64_t seed);

/// Runs `plan` against `server` through serve::RunConnection on a
/// socketpair: this thread both sends the requests and reads the responses
/// (no second client thread). Output checks (every line parses; recover
/// and reload answer ok; repeated (seed, snapshot) requests return
/// byte-identical loss and tod) are tallied into `report`.
LoadResult RunLoad(ovs::serve::RecoveryServer& server,
                   const ServeInputs& inputs, const LoadPlan& plan,
                   uint64_t seed, Report* report);

/// A server with kServeWorkers shard workers and the serve city registered
/// on it (RecoveryServer::RegisterCity trains the city).
std::unique_ptr<ovs::serve::RecoveryServer> StartServeCity();

/// TrainedCity view of a registered city (weights of its current snapshot).
TrainedCity CityFromRegistry(ovs::serve::RecoveryServer& server,
                             const std::string& city);

}  // namespace ovsbench

#endif  // OVSBENCH_COMMON_H_
