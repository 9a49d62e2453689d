#include "common.h"

#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "data/cities.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "od/demand.h"
#include "od/patterns.h"
#include "serve/io.h"
#include "serve/protocol.h"
#include "sim/sensor_faults.h"
#include "stats.h"
#include "util/rng.h"

namespace ovsbench {

using namespace ovs;

namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

void Progress(const std::string& message) {
  std::fprintf(stderr, "[ovsbench %7.2fs] %s\n",
               MsSince(g_process_start) * 1e-3, message.c_str());
}

// --- Report ---------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "[ovsbench] failed: %s\n", why.c_str());
}

void Report::Invalid(const std::string& why) {
  invalid_reasons_.push_back(why);
  std::fprintf(stderr, "[ovsbench] invalid run: %s\n", why.c_str());
}

std::string Report::Json(const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    const Value& v = metrics_.at(names[i]);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", v.value);
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + number + ", \"unit\": \"" +
           v.unit + "\"}";
  }
  out += "}}";
  return out;
}

double ErrorFrac(int64_t attempted, int64_t failed) {
  return (static_cast<double>(failed) + 0.5) /
         (static_cast<double>(attempted) + 1.0);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

void FoldInto(const std::vector<obs::PhaseNode>& nodes, const std::string& name,
              SpanAgg* agg) {
  for (const obs::PhaseNode& node : nodes) {
    if (node.name == name) {
      agg->count += node.count;
      agg->total_ms += static_cast<double>(node.total_ns) * 1e-6;
      agg->self_ms += static_cast<double>(node.self_ns) * 1e-6;
    }
    FoldInto(node.children, name, agg);
  }
}

}  // namespace

SpanAgg FoldSpan(const std::vector<obs::PhaseNode>& roots,
                 const std::string& name) {
  SpanAgg agg;
  FoldInto(roots, name, &agg);
  return agg;
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::MetricSnapshot& m : obs::MetricsRegistry::Global().Snapshot()) {
    if (m.name == name && m.kind == obs::MetricSnapshot::Kind::kCounter) {
      return m.counter_value;
    }
  }
  return 0;
}

std::vector<obs::PhaseNode> TraceSegment(bool trace,
                                         const std::function<void()>& fn) {
  if (!trace) {
    fn();
    return {};
  }
  obs::StartTracing();
  fn();
  obs::StopTracing();
  return obs::BuildPhaseProfile();
}

void FoldLayerSpans(const std::vector<obs::PhaseNode>& profile,
                    Report* report) {
  auto mean = [&](const char* metric, const char* span, bool self) {
    const SpanAgg agg = FoldSpan(profile, span);
    if (agg.count > 0) {
      report->SetDefault(metric, self ? agg.mean_self_ms() : agg.mean_ms(),
                         "ms");
    }
  };
  mean("core.recover_epoch_ms", "trainer.recover.batched_epoch", false);
  mean("core.stage1_epoch_ms", "trainer.stage1.epoch", false);
  mean("core.stage2_epoch_ms", "trainer.stage2.epoch", false);
  mean("nn.volume_speed_ms", "volume_speed.forward", true);
  mean("nn.tod_volume_ms", "tod_volume.forward", true);
  mean("serve.service_ms", "serve.request", false);
  mean("serve.request_self_ms", "serve.request", true);
}

PoolDelta::PoolDelta() : start(GlobalThreadPool()->stats()), t0(Clock::now()) {}

void PoolDelta::Finish(double* idle_frac, uint64_t* parallel_fors,
                       uint64_t* chunks) const {
  const ThreadPool::Stats end = GlobalThreadPool()->stats();
  const double wall_ns = MsSince(t0) * 1e6;
  const int workers = GlobalThreadCount() - 1;
  // A worker books its wait when it wakes, so a wait begun before the
  // region can push the ratio past 1.
  *idle_frac = workers > 0 ? std::min(1.0, static_cast<double>(
                                               end.idle_ns - start.idle_ns) /
                                               (wall_ns * workers))
                           : 0.0;
  *parallel_fors = end.parallel_fors - start.parallel_fors;
  *chunks = end.chunks_run - start.chunks_run;
}

// --- Inputs -----------------------------------------------------------------

serve::CityOptions ServeCityOptions() {
  serve::CityOptions options;
  options.dataset = data::Synthetic3x3Config();
  options.model.lstm_hidden = 8;
  options.model.speed_head_hidden = 8;
  options.train_samples = 4;
  options.stage1_epochs = 6;
  options.stage2_epochs = 6;
  return options;
}

std::vector<DMat> ObservedSpeeds(const data::Dataset& dataset, uint64_t seed,
                                 int count, double dropout) {
  std::vector<DMat> out;
  for (int i = 0; i < count; ++i) {
    const uint64_t sim_seed = seed * 7919 + static_cast<uint64_t>(i);
    DMat speed =
        core::SimulateTod(dataset, dataset.ground_truth_tod, sim_seed).speed;
    if (dropout > 0.0) {
      sim::SensorFaultConfig faults;
      faults.dropout = dropout;
      faults.seed = sim_seed;
      sim::ApplySensorFaults(faults, &speed, nullptr);
    }
    out.push_back(std::move(speed));
  }
  return out;
}

std::vector<od::TodTensor> PatternTods(const data::Dataset& dataset,
                                       uint64_t seed) {
  od::PatternConfig pc;
  pc.interval_minutes = dataset.config.interval_s / 60.0;
  pc.rate_scale = dataset.config.mean_trips_per_od_interval *
                  dataset.config.training_demand_multiplier /
                  (10.0 * pc.interval_minutes);
  Rng rng(seed);
  std::vector<od::TodTensor> tods;
  for (od::TodPattern pattern : od::AllTodPatterns()) {
    tods.push_back(od::GenerateTodPattern(pattern, dataset.num_od(),
                                          dataset.num_intervals(), pc, &rng));
  }
  return tods;
}

// --- Offline recovery ---------------------------------------------------------

namespace {

std::unique_ptr<core::OvsModel> Materialize(const TrainedCity& city,
                                            Rng* rng) {
  const data::Dataset& ds = *city.dataset;
  auto model = std::make_unique<core::OvsModel>(
      ds.num_od(), ds.num_links(), ds.num_intervals(), ds.incidence,
      city.config, rng);
  for (auto& [name, v] : model->NamedParameters()) {
    auto it = city.weights.find(name);
    if (it != city.weights.end() && it->second.SameShape(v.value())) {
      v.mutable_value() = it->second;
    }
  }
  return model;
}

}  // namespace

RecoveryRun Recover(const TrainedCity& city, const DMat& observed,
                    uint32_t seed, int epochs, int restarts) {
  RecoveryRun run;
  Rng rng(seed * 2654435761u + 3);
  std::unique_ptr<core::OvsModel> model = Materialize(city, &rng);
  core::TrainerConfig tc;
  tc.recovery_epochs = epochs;
  tc.recovery_restarts = restarts;
  core::OvsTrainer trainer(model.get(), tc);
  {
    Timed t("bench.core.prime_recovery_prior");
    trainer.PrimeRecoveryPrior(*city.train);
    run.prime_ms = t.ms();
  }
  Timed t("bench.core.recover_tod");
  StatusOr<od::TodTensor> tod = trainer.RecoverTod(observed, nullptr, &rng);
  run.recover_ms = t.ms();
  run.status = tod.status();
  if (tod.ok()) {
    run.tod = tod->mat();
    run.loss = trainer.last_recovery_loss();
  }
  return run;
}

NnTiming TimeNn(const TrainedCity& city, int blocks, int reps) {
  Rng rng(17);
  std::unique_ptr<core::OvsModel> model = Materialize(city, &rng);
  model->tod_volume().SetTrainable(false);
  model->volume_speed().SetTrainable(false);
  const nn::Tensor target = nn::Tensor::Zeros(
      {blocks * model->num_links(), model->num_intervals()});
  std::vector<double> forward, backward;
  NnTiming out;
  for (int rep = 0; rep < reps; ++rep) {
    const uint64_t flops0 = CounterValue("nn.gemm_flops");
    Timed f("bench.nn.forward");
    nn::Variable g = model->GenerateTod();
    nn::Variable g_all =
        blocks == 1 ? g : nn::ConcatRows(std::vector<nn::Variable>(blocks, g));
    nn::Variable q = model->VolumeFromTodBatched(g_all, blocks);
    nn::Variable v = model->SpeedFromVolumeBatched(q, blocks);
    nn::Variable loss = nn::MseLoss(v, target);
    forward.push_back(f.ms());
    Timed b("bench.nn.backward");
    loss.Backward();
    backward.push_back(b.ms());
    out.gemm_flops =
        static_cast<double>(CounterValue("nn.gemm_flops") - flops0);
  }
  out.forward_ms = Median(forward);
  out.backward_ms = Median(backward);
  return out;
}

// --- Simulation ---------------------------------------------------------------

ScenarioRun RunScenario(const data::Dataset& dataset, const od::TodTensor& tod,
                        uint64_t seed, const std::vector<sim::RoadWork>& works) {
  ScenarioRun out;
  Rng rng(seed);
  std::vector<sim::TripRequest> trips;
  {
    Timed t("bench.od.demand");
    od::DemandGenerator demand(&dataset.net, &dataset.regions,
                               &dataset.od_set, dataset.config.interval_s);
    trips = demand.Generate(tod, &rng);
    out.demand_ms = t.ms();
  }
  const uint64_t steps0 = CounterValue("sim.vehicle_steps");
  Timed t("bench.sim.simulate");
  sim::Engine engine(&dataset.net, dataset.engine_config);
  engine.ApplyRoadWork(works);
  for (const sim::TripRequest& trip : trips) engine.AddTrip(trip);
  sim::SensorData sensors = engine.Run();
  out.run_ms = t.ms();
  out.vehicle_steps = CounterValue("sim.vehicle_steps") - steps0;
  out.spawned = sensors.spawned_trips;
  out.completed = sensors.completed_trips;
  out.active = engine.active_vehicles();
  out.unspawned = sensors.unspawned_trips;
  uint64_t h = 1469598103934665603ull;
  for (const DMat* m : {&sensors.volume, &sensors.speed}) {
    for (int i = 0; i < m->numel(); ++i) {
      uint64_t bits;
      std::memcpy(&bits, m->data() + i, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  out.checksum = h;
  return out;
}

// --- Serve --------------------------------------------------------------------

std::unique_ptr<serve::RecoveryServer> StartServeCity() {
  serve::ServerOptions options;
  options.admission.workers_per_shard = kServeWorkers;
  // Deep enough that a Poisson burst at the open-loop rate never sheds.
  options.admission.queue_capacity = 256;
  auto server = std::make_unique<serve::RecoveryServer>(options);
  const Status status = server->RegisterCity(kServeCity, ServeCityOptions());
  if (!status.ok()) {
    std::fprintf(stderr, "[ovsbench] RegisterCity: %s\n",
                 status.ToString().c_str());
    std::exit(2);
  }
  return server;
}

TrainedCity CityFromRegistry(serve::RecoveryServer& server,
                             const std::string& city) {
  StatusOr<serve::SnapshotRegistry::CityRef> ref = server.registry().Get(city);
  CHECK(ref.ok());
  TrainedCity out;
  out.dataset = ref->dataset;
  out.train = ref->train;
  out.config = ref->config;
  out.weights = ref->snapshot->weights;
  return out;
}

namespace {

constexpr int kOutstanding = 4;  ///< closed-loop requests in flight
constexpr std::chrono::milliseconds kReloadEvery{1000};
constexpr std::chrono::milliseconds kHealthEvery{100};

enum class Kind { kClean, kDark, kRestarts };

struct Spec {
  Kind kind = Kind::kClean;
  int obs = 0;
  uint32_t seed = 0;
  int dup_of = -1;  ///< index of the request this one repeats
};

std::string MatrixJson(const DMat& m) {
  std::string out = "[";
  char number[40];
  for (int r = 0; r < m.rows(); ++r) {
    out += r > 0 ? ",[" : "[";
    for (int c = 0; c < m.cols(); ++c) {
      if (c > 0) out += ",";
      const double v = m.at(r, c);
      if (std::isfinite(v)) {
        std::snprintf(number, sizeof(number), "%.17g", v);
        out += number;
      } else {
        out += "null";
      }
    }
    out += "]";
  }
  return out + "]";
}

/// The receiving half of the load generator. The generator thread itself
/// reads the response lines between sends, so one thread both sends and
/// receives: no hand-off to a second thread sits in any timed path.
class Receiver {
 public:
  explicit Receiver(int fd) : fd_(fd) {}

  struct Line {
    std::string text;
    Clock::time_point at;  ///< when the read that completed it returned
  };

  /// Waits until response bytes arrive or `deadline` passes, and takes
  /// every line they complete. Returns false once the peer has hung up.
  bool Poll(Clock::time_point deadline) {
    if (eof_) return false;
    const auto wait = std::max(Clock::duration::zero(), deadline - Clock::now());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    struct timespec timeout;
    timeout.tv_sec = static_cast<time_t>(ns / 1000000000);
    timeout.tv_nsec = static_cast<long>(ns % 1000000000);
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int ready = ::ppoll(&pfd, 1, &timeout, nullptr);
    if (ready <= 0) return true;  // timed out, or EINTR: the caller re-checks
    char chunk[65536];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      eof_ = errno != EINTR && errno != EAGAIN;
      return !eof_;
    }
    if (n == 0) {
      eof_ = true;
      return false;
    }
    const Clock::time_point now = Clock::now();
    buffer_.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = buffer_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      std::string text = buffer_.substr(start, nl - start);
      // Everything but health and reload answers a recover request (a
      // request the server cannot parse is answered with an empty id).
      if (text.rfind("{\"id\":\"h", 0) != 0 &&
          text.rfind("{\"id\":\"r", 0) != 0) {
        ++recover_done_;
        last_recover_at_ = now;
      }
      lines_.push_back(Line{std::move(text), now});
    }
    buffer_.erase(0, start);
    return true;
  }

  bool eof() const { return eof_; }
  int recover_done() const { return recover_done_; }
  Clock::time_point last_recover_at() const { return last_recover_at_; }
  std::vector<Line> TakeLines() { return std::move(lines_); }

 private:
  int fd_;
  bool eof_ = false;
  std::string buffer_;
  std::vector<Line> lines_;
  int recover_done_ = 0;
  Clock::time_point last_recover_at_;
};

bool WriteAll(int fd, const std::string& line) {
  size_t done = 0;
  while (done < line.size()) {
    const ssize_t n = ::write(fd, line.data() + done, line.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Request id: a kind letter (q recover, h health, r reload) and a number.
/// Built by appending, which sidesteps GCC 12's operator+ -Wrestrict false
/// positive (PR105651), as elsewhere in the repo.
std::string Id(char kind, int n) {
  std::string id(1, kind);
  id += std::to_string(n);
  return id;
}

std::string IdOf(const std::string& line) {
  const std::string prefix = "{\"id\":\"";
  if (line.rfind(prefix, 0) != 0) return "";
  const size_t end = line.find('"', prefix.size());
  return end == std::string::npos
             ? ""
             : line.substr(prefix.size(), end - prefix.size());
}

}  // namespace

ServeInputs MakeServeInputs(const data::Dataset& dataset, uint64_t seed) {
  ServeInputs inputs;
  inputs.dataset = &dataset;
  for (const DMat& m : ObservedSpeeds(dataset, seed, 4, 0.0)) {
    inputs.clean_json.push_back(MatrixJson(m));
  }
  for (const DMat& m : ObservedSpeeds(dataset, seed + 1, 4, 0.3)) {
    inputs.dark_json.push_back(MatrixJson(m));
  }
  return inputs;
}

void LoadResult::Append(const LoadResult& o) {
  auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
    a->insert(a->end(), b.begin(), b.end());
  };
  cat(&open_latency_ms, o.open_latency_ms);
  cat(&closed_latency_ms, o.closed_latency_ms);
  cat(&send_latency_ms, o.send_latency_ms);
  cat(&gen_late_ms, o.gen_late_ms);
  cat(&reload_ms, o.reload_ms);
  queue_depths.insert(queue_depths.end(), o.queue_depths.begin(),
                      o.queue_depths.end());
  closed_done += o.closed_done;
  closed_s += o.closed_s;
  served_rmse_sum += o.served_rmse_sum;
  served_rmse_count += o.served_rmse_count;
  measured_s += o.measured_s;
  if (sent_lines.empty()) sent_lines = o.sent_lines;
}

LoadResult RunLoad(serve::RecoveryServer& server, const ServeInputs& inputs,
                   const LoadPlan& plan, uint64_t seed, Report* report) {
  LoadResult result;
  const data::Dataset& dataset = *inputs.dataset;
  const std::vector<std::string>& clean_json = inputs.clean_json;
  const std::vector<std::string>& dark_json = inputs.dark_json;
  const int total = plan.open_requests + plan.closed_requests;

  // The request mix: 80% clean single-restart, 15% dark, 5% restarts:4 in
  // seeded order; every 20th request repeats an earlier clean one. The
  // shares are exact, not drawn, because the restarts:4 requests set the
  // p99 and a drawn count would move it from seed to seed.
  Rng rng(seed * 31 + 7);
  const int fresh = total - total / 20;
  std::vector<Kind> kinds(static_cast<size_t>(fresh), Kind::kClean);
  std::fill_n(kinds.begin(), fresh / 20, Kind::kRestarts);
  std::fill_n(kinds.begin() + fresh / 20, fresh * 3 / 20, Kind::kDark);
  rng.Shuffle(&kinds);
  std::vector<Spec> specs(static_cast<size_t>(total));
  std::vector<int> clean_ids;
  size_t next_kind = 0;
  for (int i = 0; i < total; ++i) {
    Spec& s = specs[static_cast<size_t>(i)];
    if (i % 20 == 19 && !clean_ids.empty()) {
      const int j =
          clean_ids[rng.UniformInt(0, static_cast<int>(clean_ids.size()) - 1)];
      s = specs[static_cast<size_t>(j)];
      s.dup_of = j;
      continue;
    }
    s.kind = next_kind < kinds.size() ? kinds[next_kind++] : Kind::kClean;
    s.obs = rng.UniformInt(0, 3);
    s.seed = static_cast<uint32_t>(rng.UniformInt(0, 999999));
    if (s.kind == Kind::kClean) clean_ids.push_back(i);
  }

  std::vector<std::string> lines(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const Spec& s = specs[static_cast<size_t>(i)];
    std::string& line = lines[static_cast<size_t>(i)];
    line = "{\"id\":\"";
    line += Id('q', i);
    line += "\",\"method\":\"recover\",\"city\":\"";
    line += kServeCity;
    line += "\",\"seed\":" + std::to_string(s.seed);
    line += ",\"recovery_epochs\":" + std::to_string(kServeEpochs);
    line += s.kind == Kind::kRestarts ? ",\"restarts\":4" : ",\"restarts\":1";
    line += ",\"observed_speed\":";
    line += (s.kind == Kind::kDark ? dark_json
                                   : clean_json)[static_cast<size_t>(s.obs)];
    line += "}\n";
  }
  result.sent_lines = lines;

  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    std::fprintf(stderr, "[ovsbench] socketpair: %s\n", std::strerror(errno));
    std::exit(2);
  }
  const int client = fds[0], server_fd = fds[1];
  std::atomic<bool> stop{false}, connection_done{false};
  std::thread connection([&] {
    serve::RunConnection(server, server_fd, server_fd, &stop);
    connection_done.store(true);
  });
  Receiver receiver(client);

  std::vector<Clock::time_point> due(static_cast<size_t>(total)),
      sent(static_cast<size_t>(total));
  std::map<std::string, Clock::time_point> aux_sent;  // reload/health ids
  int reloads = 0, healths = 0;
  const Clock::time_point start = Clock::now();
  Clock::time_point next_reload =
      plan.reload_path.empty() ? Clock::time_point::max() : start + kReloadEvery;
  Clock::time_point next_health = start;
  auto send_aux_due = [&](Clock::time_point now) {
    while (next_health <= now) {
      const std::string id = Id('h', healths++);
      aux_sent[id] = Clock::now();
      WriteAll(client, "{\"id\":\"" + id + "\",\"method\":\"health\"}\n");
      next_health += kHealthEvery;
    }
    while (next_reload <= now) {
      const std::string id = Id('r', reloads++);
      aux_sent[id] = Clock::now();
      std::string line = "{\"id\":\"" + id + "\",\"method\":\"reload\",\"city\":\"";
      line += kServeCity;
      line += "\",\"path\":\"" + plan.reload_path + "\"}\n";
      WriteAll(client, line);
      report->Attempt();
      next_reload += kReloadEvery;
    }
  };

  // Reads responses, and sends the health and reload requests that fall
  // due, until `done(recover responses so far)` holds; false if `give_up`
  // passes first.
  auto wait_until = [&](auto done, Clock::time_point give_up) {
    while (!done(receiver.recover_done())) {
      const Clock::time_point now = Clock::now();
      if (now >= give_up || receiver.eof()) return false;
      send_aux_due(now);
      receiver.Poll(std::min(give_up, std::min(next_health, next_reload)));
    }
    return true;
  };

  // Open loop: send each request at its scheduled time, whatever the
  // server is doing.
  const std::vector<double> schedule =
      PoissonSchedule(seed ^ 0x5DEECE66Dull, plan.open_rate_per_s,
                      plan.open_requests);
  for (int i = 0; i < plan.open_requests; ++i) {
    const Clock::time_point when =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[static_cast<size_t>(i)]));
    for (Clock::time_point now = Clock::now(); now < when; now = Clock::now()) {
      send_aux_due(now);
      receiver.Poll(std::min(when, std::min(next_health, next_reload)));
    }
    due[static_cast<size_t>(i)] = when;
    sent[static_cast<size_t>(i)] = Clock::now();
    WriteAll(client, lines[static_cast<size_t>(i)]);
    result.gen_late_ms.push_back(MsBetween(when, sent[static_cast<size_t>(i)]));
    report->Attempt();
  }
  const int open_health = healths;
  const auto drain = std::chrono::milliseconds(60000);
  const int open_n = plan.open_requests;
  if (!wait_until([&](int done) { return done >= open_n; },
                  Clock::now() + drain)) {
    report->Fail("open-loop responses did not drain");
  }

  // Closed loop: keep `outstanding` recover requests in flight.
  const Clock::time_point closed_start = Clock::now();
  for (int i = plan.open_requests; i < total; ++i) {
    const int in_flight_cap = kOutstanding;
    auto has_room = [&](int done) { return i - done < in_flight_cap; };
    const bool waited = !has_room(receiver.recover_done());
    wait_until(has_room, Clock::now() + drain);
    const Clock::time_point now = Clock::now();
    send_aux_due(now);
    const Clock::time_point freed = receiver.last_recover_at();
    due[static_cast<size_t>(i)] = now;
    sent[static_cast<size_t>(i)] = Clock::now();
    WriteAll(client, lines[static_cast<size_t>(i)]);
    report->Attempt();
    if (i - plan.open_requests >= in_flight_cap || waited) {
      result.gen_late_ms.push_back(
          std::max(0.0, MsBetween(freed, sent[static_cast<size_t>(i)])));
    }
  }
  if (!wait_until([&](int done) { return done >= total; },
                  Clock::now() + drain)) {
    report->Fail("closed-loop responses did not drain");
  }
  const Clock::time_point end = Clock::now();
  result.measured_s = MsBetween(start, end) * 1e-3;

  // Hang up. The server answers everything it has read before its
  // connection loop returns; keep reading meanwhile, then read to EOF.
  ::shutdown(client, SHUT_WR);
  while (!connection_done.load()) {
    receiver.Poll(Clock::now() + std::chrono::milliseconds(5));
  }
  connection.join();
  ::shutdown(server_fd, SHUT_RDWR);
  const Clock::time_point hung_up = Clock::now() + std::chrono::seconds(5);
  while (receiver.Poll(hung_up) && Clock::now() < hung_up) {
  }
  ::close(server_fd);
  ::close(client);

  // --- Output checks ------------------------------------------------------
  std::vector<Receiver::Line> received = receiver.TakeLines();
  std::map<std::string, const Receiver::Line*> by_id;
  for (const Receiver::Line& line : received) {
    if (!serve::ParseJson(line.text).ok()) {
      report->Fail("response line does not parse: " +
                          line.text.substr(0, 80));
      continue;
    }
    by_id[IdOf(line.text)] = &line;
  }
  auto ok_line = [](const std::string& text) {
    return text.find("\"ok\":true") != std::string::npos;
  };
  auto payload = [](const std::string& text) {
    const size_t at = text.find(",\"loss\":");
    return at == std::string::npos ? std::string() : text.substr(at);
  };
  Clock::time_point last_closed = closed_start;
  for (int i = 0; i < total; ++i) {
    auto it = by_id.find(Id('q', i));
    if (it == by_id.end()) {
      report->Fail("no response to request " + Id('q', i));
      continue;
    }
    const Receiver::Line& line = *it->second;
    if (!ok_line(line.text)) {
      report->Fail(Id('q', i) + ": " + line.text.substr(0, 160));
      continue;
    }
    const size_t si = static_cast<size_t>(i);
    result.send_latency_ms.push_back(MsBetween(sent[si], line.at));
    if (i < plan.open_requests) {
      result.open_latency_ms.push_back(MsBetween(due[si], line.at));
    } else {
      result.closed_latency_ms.push_back(MsBetween(sent[si], line.at));
      last_closed = std::max(last_closed, line.at);
    }
    const Spec& s = specs[si];
    if (s.dup_of >= 0) {
      auto orig = by_id.find(Id('q', s.dup_of));
      if (orig != by_id.end() &&
          payload(orig->second->text) != payload(line.text)) {
        report->Fail("repeated request " + Id('q', i) + " differs from " +
                            Id('q', s.dup_of));
      }
    } else if (s.kind == Kind::kClean) {
      StatusOr<serve::JsonValue> doc = serve::ParseJson(line.text);
      const serve::JsonValue* tod = doc.ok() ? doc->Find("tod") : nullptr;
      const DMat& truth = dataset.ground_truth_tod.mat();
      if (tod == nullptr ||
          static_cast<int>(tod->array.size()) != truth.rows()) {
        report->Fail(Id('q', i) + " has no tod matrix");
        continue;
      }
      DMat got(truth.rows(), truth.cols());
      for (int r = 0; r < truth.rows(); ++r) {
        const auto& row = tod->array[static_cast<size_t>(r)].array;
        for (int c = 0; c < truth.cols() && c < static_cast<int>(row.size()); ++c) {
          got.at(r, c) = row[static_cast<size_t>(c)].number_value;
        }
      }
      result.served_rmse_sum += Rmse(got, truth);
      ++result.served_rmse_count;
    }
  }
  if (plan.closed_requests > 0) {
    result.closed_done = static_cast<int>(result.closed_latency_ms.size());
    result.closed_s = MsBetween(closed_start, last_closed) * 1e-3;
  }
  std::vector<int> depths;
  for (int k = 0; k < healths; ++k) {
    auto it = by_id.find(Id('h', k));
    if (it == by_id.end()) continue;
    StatusOr<serve::JsonValue> doc = serve::ParseJson(it->second->text);
    const serve::JsonValue* cities = doc.ok() ? doc->Find("cities") : nullptr;
    if (cities == nullptr || cities->array.empty()) continue;
    const serve::JsonValue* depth = cities->array[0].Find("queue_depth");
    if (depth != nullptr) depths.push_back(static_cast<int>(depth->number_value));
  }
  result.queue_depths = depths;
  for (int k = 0; k < reloads; ++k) {
    const std::string id = Id('r', k);
    auto it = by_id.find(id);
    if (it == by_id.end() || !ok_line(it->second->text)) {
      report->Fail("reload " + id + " failed");
      continue;
    }
    result.reload_ms.push_back(MsBetween(aux_sent[id], it->second->at));
  }

  // Open-loop honesty: the numbers describe the configured rate only when
  // the generator kept to its schedule and the backlog stayed bounded.
  // Medians, so a host stall of a few hundred ms (shared VMs have them)
  // does not void a run, while a generator that cannot keep up, or a rate
  // above capacity (the queue grows without bound), does.
  if (plan.open_requests > 0) {
    const std::vector<double> open_late(
        result.gen_late_ms.begin(),
        result.gen_late_ms.begin() + plan.open_requests);
    if (Median(open_late) > 5.0) {
      report->Invalid("generator fell behind its schedule (median send " +
                      std::to_string(Median(open_late)) + " ms late)");
    }
    const std::vector<double> open_depths(
        depths.begin(),
        depths.begin() + std::min<size_t>(open_health, depths.size()));
    if (Median(open_depths) > 8.0) {
      report->Invalid("backlog kept growing (median queue depth " +
                      std::to_string(Median(open_depths)) + ")");
    }
  }
  return result;
}

}  // namespace ovsbench
