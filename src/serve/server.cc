#include "serve/server.h"

#include <condition_variable>
#include <thread>
#include <utility>

#include "core/ovs_model.h"
#include "core/run_control.h"
#include "core/trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace ovs::serve {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Injected handler delay, sliced so cancellation and shutdown still bite
/// within ~10ms even mid-sleep.
void InterruptibleSleep(int ms, const CancelToken* cancel,
                        const std::atomic<bool>& abort_flag) {
  const Clock::time_point until = Clock::now() + std::chrono::milliseconds(ms);
  while (Clock::now() < until) {
    if (abort_flag.load(std::memory_order_relaxed)) return;
    if (cancel != nullptr &&
        cancel->cancelled.load(std::memory_order_relaxed)) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

}  // namespace

RecoveryServer::RecoveryServer(ServerOptions options, FaultInjector* faults)
    : options_(std::move(options)), faults_(faults), registry_(faults) {}

RecoveryServer::~RecoveryServer() { Shutdown(); }

Status RecoveryServer::RegisterCity(const std::string& city,
                                    const CityOptions& options) {
  RETURN_IF_ERROR(registry_.RegisterCity(city, options));
  std::lock_guard<std::mutex> lock(shards_mu_);
  if (shut_down_) return Status::Unavailable("server is shut down");
  shards_.emplace(city, std::make_unique<ShardQueue>(
                            city, options_.admission,
                            [this](Job job) { RunJob(std::move(job)); }));
  return Status::Ok();
}

void RecoveryServer::Submit(Request request,
                            std::shared_ptr<CancelToken> cancel,
                            std::function<void(Response)> done) {
  auto reply = [&](Status status) {
    Response r;
    r.id = request.id;
    r.status = std::move(status);
    done(std::move(r));
  };
  if (!accepting()) {
    OVS_COUNTER_INC("serve.requests.rejected");
    reply(Status::Unavailable("server is shutting down"));
    return;
  }
  switch (request.method) {
    case Method::kHealth:
      done(HandleHealth(request));
      return;
    case Method::kListCities:
      done(HandleListCities(request));
      return;
    case Method::kReload:
      done(HandleReload(request));
      return;
    case Method::kRecover:
      break;
  }

  ShardQueue* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    auto it = shards_.find(request.city);
    if (it != shards_.end()) shard = it->second.get();
  }
  if (shard == nullptr) {
    reply(Status::NotFound("unknown city: " + request.city));
    return;
  }

  Job job;
  job.cancel = std::move(cancel);
  job.enqueued_at = Clock::now();
  job.has_deadline = request.deadline_ms > 0;
  if (job.has_deadline) {
    job.deadline =
        job.enqueued_at + std::chrono::milliseconds(request.deadline_ms);
  }
  job.done = std::move(done);
  job.request = std::move(request);
  // Kept across the move so a shed request can still be answered.
  const std::string id = job.request.id;
  const std::function<void(Response)> respond = job.done;
  Status admitted = shard->TryEnqueue(std::move(job));
  if (!admitted.ok()) {
    if (admitted.code() == StatusCode::kResourceExhausted) {
      OVS_COUNTER_INC("serve.requests.shed");
    } else {
      OVS_COUNTER_INC("serve.requests.rejected");
    }
    Response r;
    r.id = id;
    r.status = std::move(admitted);
    respond(std::move(r));
    return;
  }
  OVS_COUNTER_INC("serve.requests.admitted");
}

void RecoveryServer::RunJob(Job job) {
  OVS_TRACE_SCOPE("serve.request");
  Response r;
  r.id = job.request.id;
  const CancelToken* cancel = job.cancel.get();
  if (cancel != nullptr && cancel->cancelled.load(std::memory_order_acquire)) {
    r.status = Status::Cancelled("client disconnected before the fit started");
    OVS_COUNTER_INC("serve.requests.cancelled");
  } else if (job.has_deadline && Clock::now() >= job.deadline) {
    // Expired while queued: answer without burning a single epoch.
    r.status = Status::DeadlineExceeded("deadline expired in queue");
    OVS_COUNTER_INC("serve.deadline_exceeded");
  } else {
    if (faults_ != nullptr) {
      const FaultInjector::RequestFaults f =
          faults_->ForRequest(job.request.id);
      if (f.slow_ms > 0) {
        OVS_COUNTER_INC("serve.faults.slow_handler");
        InterruptibleSleep(f.slow_ms, cancel, abort_inflight_);
      }
    }
    r = HandleRecover(job.request, cancel, job.deadline, job.has_deadline);
  }

  if (r.status.ok()) {
    OVS_COUNTER_INC("serve.requests.completed");
  } else {
    OVS_COUNTER_INC("serve.requests.failed");
    if (r.status.code() == StatusCode::kDeadlineExceeded) {
      OVS_COUNTER_INC("serve.deadline_exceeded");
    } else if (r.status.code() == StatusCode::kCancelled) {
      OVS_COUNTER_INC("serve.requests.cancelled");
    }
  }
  OVS_HISTOGRAM_OBSERVE("serve.request_latency_ms", MsSince(job.enqueued_at),
                        1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                        10000, 30000);
  if (job.done) job.done(std::move(r));
}

Response RecoveryServer::HandleRecover(const Request& request,
                                       const CancelToken* cancel,
                                       Clock::time_point deadline,
                                       bool has_deadline) {
  Response r;
  r.id = request.id;
  auto city = registry_.Get(request.city);
  if (!city.ok()) {
    r.status = city.status();
    return r;
  }
  const data::Dataset& ds = *city->dataset;
  if (request.observed_speed.rows() != ds.num_links() ||
      request.observed_speed.cols() != ds.num_intervals()) {
    r.status = Status::InvalidArgument(
        "observed_speed must be [" + std::to_string(ds.num_links()) + " x " +
        std::to_string(ds.num_intervals()) + "] for city " + request.city +
        ", got [" + std::to_string(request.observed_speed.rows()) + " x " +
        std::to_string(request.observed_speed.cols()) + "]");
    return r;
  }
  const int epochs = request.recovery_epochs > 0
                         ? request.recovery_epochs
                         : options_.default_recovery_epochs;
  const int restarts =
      request.restarts > 0 ? request.restarts : options_.default_restarts;
  if (epochs > options_.max_recovery_epochs) {
    r.status = Status::InvalidArgument(
        "recovery_epochs above server cap " +
        std::to_string(options_.max_recovery_epochs));
    return r;
  }
  if (restarts > options_.max_restarts) {
    r.status = Status::InvalidArgument("restarts above server cap " +
                                       std::to_string(options_.max_restarts));
    return r;
  }

  // Fresh per-request model: init order and every weight are functions of
  // (seed, snapshot) only, so repeated requests are byte-identical and
  // concurrent requests share nothing mutable.
  Rng rng(request.seed * 2654435761u + 3);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, city->config, &rng);
  for (auto& [name, v] : model.NamedParameters()) {
    auto it = city->snapshot->weights.find(name);
    if (it != city->snapshot->weights.end() &&
        it->second.SameShape(v.value())) {
      v.mutable_value() = it->second;
    }
  }

  int fail_at_epoch = -1;
  if (faults_ != nullptr) {
    fail_at_epoch = faults_->ForRequest(request.id).fail_at_epoch;
  }
  std::atomic<int> polls{0};
  core::RunControl control;
  control.poll = [this, cancel, deadline, has_deadline, fail_at_epoch,
                  &polls]() -> Status {
    const int poll = polls.fetch_add(1, std::memory_order_relaxed);
    if (abort_inflight_.load(std::memory_order_relaxed)) {
      return Status::Unavailable("server shut down mid-request");
    }
    if (cancel != nullptr &&
        cancel->cancelled.load(std::memory_order_relaxed)) {
      return Status::Cancelled("client disconnected");
    }
    if (has_deadline && Clock::now() >= deadline) {
      return Status::DeadlineExceeded("deadline expired during recovery");
    }
    if (fail_at_epoch >= 0 && poll == fail_at_epoch) {
      OVS_COUNTER_INC("serve.faults.worker_failure");
      return Status::Internal("injected worker failure at epoch " +
                              std::to_string(fail_at_epoch));
    }
    return Status::Ok();
  };

  core::TrainerConfig tc;
  tc.recovery_epochs = epochs;
  tc.recovery_restarts = restarts;
  tc.run_control = &control;
  core::OvsTrainer trainer(&model, tc);
  trainer.PrimeRecoveryPrior(*city->train);
  StatusOr<od::TodTensor> recovered =
      trainer.RecoverTod(request.observed_speed, /*aux=*/nullptr, &rng);
  if (!recovered.ok()) {
    r.status = recovered.status();
    return r;
  }
  r.city = request.city;
  r.snapshot_version = city->snapshot->version;
  r.loss = trainer.last_recovery_loss();
  r.tod = recovered->mat();
  r.has_tod = true;
  return r;
}

Response RecoveryServer::HandleHealth(const Request& request) const {
  Response r;
  r.id = request.id;
  r.has_health = true;
  r.accepting = accepting();
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (const auto& [city, shard] : shards_) {
    CityHealth h;
    h.city = city;
    StatusOr<uint64_t> version = registry_.Version(city);
    h.snapshot_version = version.ok() ? *version : 0;
    h.queue_depth = shard->depth();
    h.queue_capacity = shard->capacity();
    r.health.push_back(std::move(h));
  }
  return r;
}

Response RecoveryServer::HandleReload(const Request& request) {
  Response r;
  r.id = request.id;
  StatusOr<uint64_t> version = registry_.Reload(request.city, request.path);
  if (!version.ok()) {
    r.status = version.status();
    return r;
  }
  r.city = request.city;
  r.snapshot_version = *version;
  return r;
}

Response RecoveryServer::HandleListCities(const Request& request) const {
  Response r;
  r.id = request.id;
  r.has_cities = true;
  r.cities = registry_.Cities();
  return r;
}

Response RecoveryServer::Handle(const Request& request,
                                std::shared_ptr<CancelToken> cancel) {
  std::mutex mu;
  std::condition_variable cv;
  bool ready = false;
  Response out;
  Submit(request, std::move(cancel), [&](Response r) {
    // Notify under the lock: once `ready` is visible this frame may return
    // and destroy `cv`, so the notify must be done before the unlock.
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(r);
    ready = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  while (!ready) {
    cv.wait_for(lock, std::chrono::milliseconds(50), [&] { return ready; });
  }
  return out;
}

void RecoveryServer::Shutdown() {
  accepting_.store(false, std::memory_order_release);
  std::vector<ShardQueue*> shards;
  {
    std::lock_guard<std::mutex> lock(shards_mu_);
    if (shut_down_) return;
    shut_down_ = true;
    for (auto& [city, shard] : shards_) shards.push_back(shard.get());
  }
  for (ShardQueue* shard : shards) shard->StopAdmission();

  // Drain: give queued + running requests up to drain_ms to finish cleanly.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_ms);
  for (;;) {
    bool idle = true;
    for (ShardQueue* shard : shards) idle = idle && shard->Idle();
    if (idle || Clock::now() >= drain_deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Past the drain budget: abort in-flight fits at their next epoch poll
  // and flush whatever never started. Every admitted request still gets
  // exactly one (structured) response.
  abort_inflight_.store(true, std::memory_order_release);
  for (ShardQueue* shard : shards) shard->FlushQueue();
  for (ShardQueue* shard : shards) shard->JoinWorkers();
}

}  // namespace ovs::serve
