// Tests for the serving stack (src/serve): protocol parse/serialize, the
// seeded fault injector, snapshot hot-reload atomicity, bounded admission
// with structured shedding, deadlines and cancellation through the trainer's
// RunControl hook, graceful shutdown, and the byte-identity contract for
// repeated (seed, snapshot) requests.

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/training_data.h"
#include "data/cities.h"
#include "data/dataset.h"
#include "serve/admission.h"
#include "serve/fault_injection.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/io.h"
#include "serve/snapshot_registry.h"
#include "util/rng.h"

namespace ovs::serve {
namespace {

using std::chrono::steady_clock;

// ---------------------------------------------------------------- protocol --

constexpr const char* kRecoverLine =
    R"({"id":"r1","method":"recover","city":"x","seed":7,"deadline_ms":250,)"
    R"("recovery_epochs":4,"restarts":2,"observed_speed":[[1,null],[3,4]]})";

/// Lines ParseRequest must reject, each for one reason.
const std::vector<std::string>& MalformedRequestLines() {
  static const std::vector<std::string> lines = {
      R"({"method":"health"})",                       // missing id
      R"({"id":"a","method":"destroy"})",             // unknown method
      R"({"id":"a","method":"recover","city":"x"})",  // no matrix
      R"({"id":"a","method":"recover","city":"x",)"
      R"("observed_speed":[[1,2],[3]]})",             // ragged matrix
      "recover please",                               // not JSON
      R"({"id":"a","method":"health"} extra)",        // trailing garbage
  };
  return lines;
}

TEST(ServeProtocolTest, ParsesRecoverRequest) {
  auto req = ParseRequest(kRecoverLine);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->method, Method::kRecover);
  EXPECT_EQ(req->city, "x");
  EXPECT_EQ(req->seed, 7u);
  EXPECT_EQ(req->deadline_ms, 250);
  EXPECT_EQ(req->recovery_epochs, 4);
  EXPECT_EQ(req->restarts, 2);
  ASSERT_EQ(req->observed_speed.rows(), 2);
  ASSERT_EQ(req->observed_speed.cols(), 2);
  EXPECT_EQ(req->observed_speed.at(0, 0), 1.0);
  EXPECT_TRUE(std::isnan(req->observed_speed.at(0, 1)));  // dark sensor
  EXPECT_EQ(req->observed_speed.at(1, 1), 4.0);
}

TEST(ServeProtocolTest, RejectsMalformedRequests) {
  for (const std::string& line : MalformedRequestLines()) {
    const StatusOr<Request> req = ParseRequest(line);
    EXPECT_EQ(req.status().code(), StatusCode::kInvalidArgument) << line;
  }
}

// Seeded mutation run over the request lines above plus a checked-in run
// report: byte flips, truncation at every prefix, and splices of the tokens
// that open nesting, strings, escapes, literals and lists. Whatever the
// bytes, both the JSON codec and the request validator must answer OK or
// InvalidArgument: never crash, hang, or report another error class.
TEST(ServeProtocolTest, MutatedInputsAnswerOkOrInvalidArgument) {
  std::vector<std::string> corpus = MalformedRequestLines();
  corpus.push_back(kRecoverLine);
  corpus.push_back(R"({"id":"h","method":"health"})");
  corpus.push_back(R"({"id":"l","method":"list_cities"})");
  corpus.push_back(
      R"({"id":"w","method":"reload","city":"x","path":"/tmp/w"})");
  std::ifstream baseline(OVS_SOURCE_DIR "/bench/baselines/micro_sim.json");
  ASSERT_TRUE(baseline.good());
  corpus.emplace_back(std::istreambuf_iterator<char>(baseline),
                      std::istreambuf_iterator<char>());

  const std::vector<std::string> splices = {"{", "[", "\"", "\\u", "null",
                                            ","};
  Rng rng(20211);
  int parsed_ok = 0;
  int mutants = 0;
  const auto check = [&](const std::string& mutant) {
    ++mutants;
    const StatusOr<JsonValue> doc = ParseJson(mutant);
    if (doc.ok()) ++parsed_ok;
    const StatusOr<Request> req = ParseRequest(mutant);
    return (doc.ok() ||
            doc.status().code() == StatusCode::kInvalidArgument) &&
           (req.ok() || req.status().code() == StatusCode::kInvalidArgument);
  };
  for (const std::string& seed : corpus) {
    for (size_t len = 0; len < seed.size(); ++len) {
      ASSERT_TRUE(check(seed.substr(0, len))) << seed.substr(0, len);
    }
    for (int round = 0; round < 400; ++round) {
      std::string mutant = seed;
      const int edits = rng.UniformInt(1, 4);
      for (int e = 0; e < edits; ++e) {
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(mutant.size())));
        if (rng.Bernoulli(0.5) && at < mutant.size()) {
          mutant[at] = static_cast<char>(mutant[at] ^ rng.UniformInt(1, 255));
        } else {
          mutant.insert(at, splices[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int>(splices.size()) - 1))]);
        }
      }
      ASSERT_TRUE(check(mutant)) << mutant;
    }
  }
  // The run exercised both outcomes, not just the error path.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, mutants);
}

TEST(ServeProtocolTest, ErrorResponseCarriesRetryableClassification) {
  Response shed;
  shed.id = "r9";
  shed.status = Status::ResourceExhausted("queue full");
  const std::string line = SerializeResponse(shed);
  auto doc = ParseJson(line);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("id")->string_value, "r9");
  EXPECT_FALSE(doc->Find("ok")->bool_value);
  const JsonValue* error = doc->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->string_value, "RESOURCE_EXHAUSTED");
  EXPECT_TRUE(error->Find("retryable")->bool_value);

  Response bad;
  bad.id = "r10";
  bad.status = Status::InvalidArgument("no such field");
  auto bad_doc = ParseJson(SerializeResponse(bad));
  ASSERT_TRUE(bad_doc.ok());
  EXPECT_FALSE(bad_doc->Find("error")->Find("retryable")->bool_value);
}

TEST(ServeProtocolTest, RetryableCodesMatchBackoffPolicy) {
  EXPECT_TRUE(IsRetryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(IsRetryable(StatusCode::kUnavailable));
  EXPECT_TRUE(IsRetryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(IsRetryable(StatusCode::kInternal));
  EXPECT_FALSE(IsRetryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(IsRetryable(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryable(StatusCode::kCancelled));
  EXPECT_FALSE(IsRetryable(StatusCode::kDataLoss));
}

TEST(ServeProtocolTest, SuccessResponseRoundTripsThroughJson) {
  Response r;
  r.id = "ok1";
  r.city = "x";
  r.snapshot_version = 3;
  r.loss = 0.5;
  r.has_tod = true;
  r.tod = DMat(2, 2);
  r.tod.at(0, 0) = 1.25;
  r.tod.at(1, 1) = -2.0;
  auto doc = ParseJson(SerializeResponse(r));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->Find("ok")->bool_value);
  EXPECT_EQ(doc->Find("snapshot_version")->number_value, 3.0);
  EXPECT_EQ(doc->Find("loss")->number_value, 0.5);
  const JsonValue* tod = doc->Find("tod");
  ASSERT_NE(tod, nullptr);
  ASSERT_EQ(tod->array.size(), 2u);
  EXPECT_EQ(tod->array[0].array[0].number_value, 1.25);
  EXPECT_EQ(tod->array[1].array[1].number_value, -2.0);
}

// -------------------------------------------------------------- connection --

// A client that never sends '\n' must not grow server memory without bound:
// a line past the cap answers one parse error before the line even ends,
// the rest of it up to the newline is skipped, and the next line is served
// normally.
TEST(ServeConnectionTest, OverlongLineAnswersOneParseErrorThenResyncs) {
  RecoveryServer server(ServerOptions{});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ConnectionStats stats;
  std::thread connection(
      [&] { stats = RunConnection(server, fds[1], fds[1], nullptr); });

  const auto send = [&](const std::string& bytes) {
    for (size_t sent = 0; sent < bytes.size();) {
      const ssize_t n =
          ::write(fds[0], bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return;
      sent += static_cast<size_t>(n);
    }
  };
  std::string output;
  const auto lines = [&] {
    return std::count(output.begin(), output.end(), '\n');
  };
  const auto await_lines = [&](long want) {
    while (lines() < want) {
      struct pollfd pfd = {fds[0], POLLIN, 0};
      if (::poll(&pfd, 1, /*timeout_ms=*/10000) <= 0) return;
      char chunk[4096];
      const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
      if (n <= 0) return;
      output.append(chunk, static_cast<size_t>(n));
    }
  };

  send(std::string(kMaxRequestLineBytes + 1, 'x'));
  await_lines(1);
  EXPECT_EQ(lines(), 1) << "no answer before the over-long line ended";
  send("\n{\"id\":\"h\",\"method\":\"health\"}\n");
  await_lines(2);
  ::shutdown(fds[0], SHUT_WR);
  connection.join();
  ::close(fds[0]);
  ::close(fds[1]);

  EXPECT_EQ(stats.parse_errors, 1);
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.responses, 1);
  ASSERT_EQ(lines(), 2) << output;
  const size_t nl = output.find('\n');
  const StatusOr<JsonValue> error = ParseJson(output.substr(0, nl));
  ASSERT_TRUE(error.ok()) << output;
  EXPECT_EQ(error->Find("error")->Find("code")->string_value,
            "INVALID_ARGUMENT");
  EXPECT_FALSE(error->Find("error")->Find("retryable")->bool_value);
  EXPECT_EQ(output.substr(nl + 1).rfind(R"({"id":"h","ok":true,)", 0), 0u)
      << output;
}

// --------------------------------------------------------- fault injection --

TEST(ServeFaultInjectionTest, SpecParsesAndDecisionsAreDeterministic) {
  auto plan = FaultInjector::ParseSpec(
      "seed=9,slow_prob=1.0,slow_ms=25,fail_prob=1.0,fail_epoch=3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->seed, 9u);
  FaultInjector faults(*plan);
  const auto a = faults.ForRequest("req-1");
  const auto b = faults.ForRequest("req-1");
  EXPECT_EQ(a.slow_ms, b.slow_ms);
  EXPECT_EQ(a.fail_at_epoch, b.fail_at_epoch);
  EXPECT_EQ(a.slow_ms, 25);      // slow_prob=1 -> always slow
  EXPECT_EQ(a.fail_at_epoch, 3); // fail_prob=1 -> always fails at epoch 3

  EXPECT_FALSE(FaultInjector::ParseSpec("slow_probability=1").ok());
  EXPECT_FALSE(FaultInjector::ParseSpec("slow_prob=fast").ok());
}

TEST(ServeFaultInjectionTest, CorruptReloadArmingIsConsumedOnce) {
  FaultInjector faults;
  EXPECT_FALSE(faults.TakeCorruptReload());
  faults.ArmCorruptReloads(2);
  EXPECT_TRUE(faults.TakeCorruptReload());
  EXPECT_TRUE(faults.TakeCorruptReload());
  EXPECT_FALSE(faults.TakeCorruptReload());
}

TEST(ServeFaultInjectionTest, CorruptBytesFlipsExactlyOneBytePastHeader) {
  FaultInjector faults;
  std::string bytes(256, '\0');
  std::string corrupted = bytes;
  faults.CorruptBytes(&corrupted);
  ASSERT_EQ(corrupted.size(), bytes.size());
  int diffs = 0;
  size_t diff_at = 0;
  for (size_t i = 0; i < bytes.size(); ++i) {
    if (corrupted[i] != bytes[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  EXPECT_EQ(diffs, 1);
  EXPECT_GE(diff_at, 16u);  // header words stay intact: CRC must catch it
}

// ----------------------------------------------------------- shared server --

/// Small-but-real city: dataset + simulator training data + modules 2/3
/// trained at fast-bench scale. Built once; the server is shared by every
/// test that only reads it.
CityOptions FastCity() {
  CityOptions copts;
  copts.dataset = data::Synthetic3x3Config();
  copts.model.lstm_hidden = 8;
  copts.model.speed_head_hidden = 8;
  copts.train_samples = 3;
  copts.stage1_epochs = 4;
  copts.stage2_epochs = 4;
  return copts;
}

DMat ObservedSpeed(const data::Dataset& ds, uint64_t seed) {
  return core::SimulateGroundTruth(ds, seed).speed;
}

class SharedServer {
 public:
  SharedServer() {
    ServerOptions options;
    options.admission.queue_capacity = 8;
    options.admission.workers_per_shard = 2;
    options.default_recovery_epochs = 3;
    server = std::make_unique<RecoveryServer>(options);
    const Status registered = server->RegisterCity("synthetic3x3", FastCity());
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    dataset = data::BuildDataset(data::Synthetic3x3Config());
  }

  static SharedServer& Get() {
    // Leaked on purpose: trained once, shared across tests, dies with the
    // process (a static value would order-race other static teardown).
    static SharedServer* instance =
        new SharedServer();  // ovs-lint: allow(naked-new)
    return *instance;
  }

  Request Recover(const std::string& id, uint32_t seed) const {
    Request req;
    req.id = id;
    req.method = Method::kRecover;
    req.city = "synthetic3x3";
    req.seed = seed;
    req.observed_speed = ObservedSpeed(dataset, 4242);
    return req;
  }

  std::unique_ptr<RecoveryServer> server;
  data::Dataset dataset;
};

TEST(ServeServerTest, RecoverReturnsTodAgainstSnapshotV1) {
  SharedServer& s = SharedServer::Get();
  Response r = s.server->Handle(s.Recover("basic", 11));
  ASSERT_TRUE(r.status.ok()) << r.status.ToString();
  EXPECT_EQ(r.city, "synthetic3x3");
  EXPECT_EQ(r.snapshot_version, 1u);
  ASSERT_TRUE(r.has_tod);
  EXPECT_EQ(r.tod.rows(), s.dataset.num_od());
  EXPECT_EQ(r.tod.cols(), s.dataset.num_intervals());
  EXPECT_GE(r.tod.Min(), 0.0);
  EXPECT_TRUE(std::isfinite(r.loss));
}

TEST(ServeServerTest, RepeatedRequestIsByteIdentical) {
  SharedServer& s = SharedServer::Get();
  const std::string first = SerializeResponse(s.server->Handle(s.Recover("det", 5)));
  const std::string second =
      SerializeResponse(s.server->Handle(s.Recover("det", 5)));
  EXPECT_EQ(first, second);
  // A different seed must explore a different restart path.
  const std::string other =
      SerializeResponse(s.server->Handle(s.Recover("det", 6)));
  EXPECT_NE(first, other);
}

TEST(ServeServerTest, ValidationErrorsAreStructuredAndFinal) {
  SharedServer& s = SharedServer::Get();
  Request unknown_city = s.Recover("vc", 1);
  unknown_city.city = "atlantis";
  EXPECT_EQ(s.server->Handle(unknown_city).status.code(),
            StatusCode::kNotFound);

  Request bad_shape = s.Recover("vs", 1);
  bad_shape.observed_speed = DMat(2, 2);
  Response r = s.server->Handle(bad_shape);
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(IsRetryable(r.status.code()));

  Request over_cap = s.Recover("ve", 1);
  over_cap.recovery_epochs = 1000000;
  EXPECT_EQ(s.server->Handle(over_cap).status.code(),
            StatusCode::kInvalidArgument);
}

TEST(ServeServerTest, RegisterCityRejectsTooFewTrainingSamples) {
  RecoveryServer server(ServerOptions{});
  for (const int samples : {0, -3}) {
    CityOptions copts = FastCity();
    copts.train_samples = samples;
    const Status status = server.RegisterCity("c", copts);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << samples;
    EXPECT_FALSE(IsRetryable(status.code()));
  }
  // Nothing half-built was left behind.
  EXPECT_EQ(server.registry().Get("c").status().code(), StatusCode::kNotFound);
}

TEST(ServeServerTest, DeadlineExceededReturnsWithinBudget) {
  SharedServer& s = SharedServer::Get();
  Request req = s.Recover("deadline", 3);
  req.deadline_ms = 1;
  req.recovery_epochs = 1500;  // far more work than 1ms allows
  const steady_clock::time_point start = steady_clock::now();
  Response r = s.server->Handle(req);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(steady_clock::now() - start)
          .count();
  EXPECT_EQ(r.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(IsRetryable(r.status.code()));
  // Enforced at epoch granularity: deadline + one cheap epoch + slack, not
  // the full 1500-epoch fit.
  EXPECT_LT(elapsed_ms, 5000.0);
}

TEST(ServeServerTest, CancelledBeforeStartAnswersCancelled) {
  SharedServer& s = SharedServer::Get();
  auto cancel = std::make_shared<CancelToken>();
  cancel->cancelled.store(true);
  Response r = s.server->Handle(s.Recover("cancel", 2), cancel);
  EXPECT_EQ(r.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(IsRetryable(r.status.code()));
}

TEST(ServeServerTest, HealthAndListCitiesReport) {
  SharedServer& s = SharedServer::Get();
  Request health;
  health.id = "h";
  health.method = Method::kHealth;
  Response hr = s.server->Handle(health);
  ASSERT_TRUE(hr.status.ok());
  EXPECT_TRUE(hr.accepting);
  ASSERT_EQ(hr.health.size(), 1u);
  EXPECT_EQ(hr.health[0].city, "synthetic3x3");
  EXPECT_GE(hr.health[0].snapshot_version, 1u);
  EXPECT_EQ(hr.health[0].queue_capacity, 8);

  Request list;
  list.id = "l";
  list.method = Method::kListCities;
  Response lr = s.server->Handle(list);
  ASSERT_TRUE(lr.has_cities);
  ASSERT_EQ(lr.cities.size(), 1u);
  EXPECT_EQ(lr.cities[0], "synthetic3x3");
}

// -------------------------------------------------------- snapshot reloads --

class ServeReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ovs_serve_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ServeReloadTest, SaveThenReloadBumpsVersionAndKeepsDeterminism) {
  FaultInjector faults;
  SnapshotRegistry registry(&faults);
  ASSERT_TRUE(registry.RegisterCity("c", FastCity()).ok());
  EXPECT_EQ(registry.Version("c").value(), 1u);

  const std::string path = Path("c.ovsm");
  ASSERT_TRUE(registry.SaveSnapshot("c", path).ok());
  StatusOr<uint64_t> v2 = registry.Reload("c", path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, 2u);
  // Identical weights reloaded: the snapshot serves the same bytes.
  auto ref = registry.Get("c");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->snapshot->version, 2u);
  EXPECT_FALSE(ref->snapshot->weights.empty());
}

TEST_F(ServeReloadTest, CorruptReloadKeepsPreviousSnapshotServing) {
  FaultInjector faults;
  SnapshotRegistry registry(&faults);
  ASSERT_TRUE(registry.RegisterCity("c", FastCity()).ok());
  const std::string path = Path("c.ovsm");
  ASSERT_TRUE(registry.SaveSnapshot("c", path).ok());

  faults.ArmCorruptReloads(1);
  StatusOr<uint64_t> reload = registry.Reload("c", path);
  EXPECT_FALSE(reload.ok());  // CRC (or shape validation) must reject it
  EXPECT_EQ(registry.Version("c").value(), 1u);
  auto ref = registry.Get("c");
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(ref->snapshot->version, 1u);

  // The corruption was consumed: the next reload of the same file succeeds.
  StatusOr<uint64_t> retry = registry.Reload("c", path);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(*retry, 2u);
}

TEST_F(ServeReloadTest, TornCheckpointIsRejectedAtomically) {
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.RegisterCity("c", FastCity()).ok());
  const std::string path = Path("c.ovsm");
  ASSERT_TRUE(registry.SaveSnapshot("c", path).ok());

  // Truncate to half: a torn write must leave the old snapshot serving.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(Path("torn.ovsm"), std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();

  EXPECT_FALSE(registry.Reload("c", Path("torn.ovsm")).ok());
  EXPECT_EQ(registry.Version("c").value(), 1u);

  EXPECT_FALSE(registry.Reload("c", Path("missing.ovsm")).ok());
  EXPECT_FALSE(registry.Reload("nosuch", path).ok());
}

TEST_F(ServeReloadTest, ReloadRacingSaveNeverTearsOrWedges) {
  // Hot-reload reading concurrently with a writer mid-Commit: every reload
  // either installs a complete new snapshot or fails structurally; the
  // registry never serves torn weights and never crashes.
  SnapshotRegistry registry;
  ASSERT_TRUE(registry.RegisterCity("c", FastCity()).ok());
  const std::string path = Path("c.ovsm");
  ASSERT_TRUE(registry.SaveSnapshot("c", path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> reload_ok{0};
  std::thread writer([&] {
    while (!stop.load()) {
      const Status saved = registry.SaveSnapshot("c", path);
      ASSERT_TRUE(saved.ok()) << saved.ToString();
    }
  });
  std::thread reloader([&] {
    while (!stop.load()) {
      StatusOr<uint64_t> v = registry.Reload("c", path);
      if (v.ok()) reload_ok.fetch_add(1);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  writer.join();
  reloader.join();
  EXPECT_GE(reload_ok.load(), 1);
  auto ref = registry.Get("c");
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(ref->snapshot->weights.empty());
}

// ------------------------------------------------------- admission + shed --

TEST(ServeAdmissionTest, FullQueueShedsWithResourceExhausted) {
  std::atomic<bool> release{false};
  std::mutex responses_mu;
  std::vector<Response> responses;
  AdmissionOptions options;
  options.queue_capacity = 2;
  options.workers_per_shard = 1;
  options.idle_poll_ms = 5;
  ShardQueue shard("c", options, [&](Job job) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Response r;
    r.id = job.request.id;
    job.done(std::move(r));
  });

  auto enqueue = [&](const std::string& id) {
    Job job;
    job.request.id = id;
    job.done = [&](Response r) {
      std::lock_guard<std::mutex> lock(responses_mu);
      responses.push_back(std::move(r));
    };
    return shard.TryEnqueue(std::move(job));
  };

  ASSERT_TRUE(enqueue("j1").ok());
  // Wait for the worker to pick j1 up so the queue is empty but busy.
  const steady_clock::time_point wait_until =
      steady_clock::now() + std::chrono::seconds(5);
  while (shard.depth() > 0 && steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(shard.depth(), 0);

  ASSERT_TRUE(enqueue("j2").ok());
  ASSERT_TRUE(enqueue("j3").ok());  // queue now at capacity 2
  Status shed = enqueue("j4");
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("retry with backoff"), std::string::npos);
  EXPECT_TRUE(IsRetryable(shed.code()));

  release.store(true);
  while (!shard.Idle() && steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  shard.StopAdmission();
  EXPECT_EQ(enqueue("late").code(), StatusCode::kUnavailable);
  shard.JoinWorkers();
  EXPECT_EQ(responses.size(), 3u);  // j1..j3 all answered exactly once
}

TEST(ServeAdmissionTest, ShutdownFlushesQueuedJobsWithStructuredErrors) {
  std::atomic<bool> release{false};
  AdmissionOptions options;
  options.queue_capacity = 4;
  options.workers_per_shard = 1;
  options.idle_poll_ms = 5;
  ShardQueue shard("c", options, [&](Job job) {
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    Response r;
    r.id = job.request.id;
    job.done(std::move(r));
  });

  std::mutex mu;
  std::vector<Status> statuses;
  for (int i = 0; i < 3; ++i) {
    Job job;
    job.request.id = "q" + std::to_string(i);
    job.done = [&](Response r) {
      std::lock_guard<std::mutex> lock(mu);
      statuses.push_back(std::move(r.status));
    };
    ASSERT_TRUE(shard.TryEnqueue(std::move(job)).ok());
  }
  const steady_clock::time_point wait_until =
      steady_clock::now() + std::chrono::seconds(5);
  while (shard.depth() > 2 && steady_clock::now() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  shard.StopAdmission();
  shard.FlushQueue();  // the two still-queued jobs answer UNAVAILABLE
  release.store(true);
  shard.JoinWorkers();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(statuses.size(), 3u);
  int flushed = 0;
  for (const Status& s : statuses) {
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(IsRetryable(s.code()));
      ++flushed;
    }
  }
  EXPECT_EQ(flushed, 2);
}

// ------------------------------------------------------------- fault drill --

TEST(ServeFaultDrillTest, InjectedWorkerFailureIsRetryableNotFatal) {
  FaultPlan plan;
  plan.fail_prob = 1.0;
  plan.fail_epoch = 1;
  FaultInjector faults(plan);
  ServerOptions options;
  options.default_recovery_epochs = 6;
  RecoveryServer server(options, &faults);
  ASSERT_TRUE(server.RegisterCity("c", FastCity()).ok());
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());

  Request req;
  req.id = "doomed";
  req.method = Method::kRecover;
  req.city = "c";
  req.observed_speed = ObservedSpeed(ds, 1);
  Response r = server.Handle(req);
  EXPECT_EQ(r.status.code(), StatusCode::kInternal);
  EXPECT_TRUE(IsRetryable(r.status.code()));
  EXPECT_NE(r.status.message().find("injected worker failure"),
            std::string::npos);
  // The server survives the failure: the next request still gets a
  // structured answer (fail_prob=1 dooms it too, but deterministically).
  req.id = "doomed-2";
  Response again = server.Handle(req);
  EXPECT_EQ(again.status.code(), StatusCode::kInternal);
  server.Shutdown();
}

TEST(ServeFaultDrillTest, MidRequestShutdownAnswersEveryRequestOnce) {
  ServerOptions options;
  options.admission.queue_capacity = 4;
  options.admission.workers_per_shard = 1;
  options.drain_ms = 30;  // force the abort path, not a clean drain
  RecoveryServer server(options);
  ASSERT_TRUE(server.RegisterCity("c", FastCity()).ok());
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());

  std::mutex mu;
  std::vector<Response> responses;
  for (int i = 0; i < 3; ++i) {
    Request req;
    req.id = "inflight" + std::to_string(i);
    req.method = Method::kRecover;
    req.city = "c";
    req.recovery_epochs = 1500;  // far longer than the drain budget
    req.observed_speed = ObservedSpeed(ds, 1);
    server.Submit(std::move(req), nullptr, [&](Response r) {
      std::lock_guard<std::mutex> lock(mu);
      responses.push_back(std::move(r));
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.Shutdown();  // blocks until every worker joined

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(responses.size(), 3u);  // exactly one response each, never torn
  for (const Response& r : responses) {
    EXPECT_FALSE(r.status.ok());
    EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
    EXPECT_TRUE(IsRetryable(r.status.code()));
    // Still schema-valid JSON.
    EXPECT_TRUE(ParseJson(SerializeResponse(r)).ok());
  }
  EXPECT_FALSE(server.accepting());

  // Post-shutdown submissions answer UNAVAILABLE instead of hanging.
  Request late;
  late.id = "late";
  late.method = Method::kHealth;
  EXPECT_EQ(server.Handle(late).status.code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace ovs::serve
