// Tests for the observability layer (src/obs): metrics registry semantics
// and thread safety, histogram bucket edges and quantile interpolation,
// Chrome-trace JSON validity, span nesting and the event soft cap, and the
// determinism contract — telemetry reads clocks but never feeds back, so
// tracing on vs off is bitwise-identical.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/ovs_model.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/cities.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "obs_test_util.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace ovs {
namespace {

using obs::MetricSnapshot;
using obs::MetricsRegistry;
using testutil::NumberField;
using testutil::ThreadGuard;

// ---------------------------------------------------------------- metrics --

TEST(MetricsTest, CounterGaugeBasics) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.counter_basics");
  c->Reset();
  c->Add(3);
  c->Increment();
  EXPECT_EQ(c->value(), 4u);
  // Same name, same handle — call sites may cache the pointer.
  EXPECT_EQ(reg.GetCounter("test.counter_basics"), c);

  obs::Gauge* g = reg.GetGauge("test.gauge_basics");
  g->Set(2.5);
  EXPECT_EQ(g->value(), 2.5);
  g->Set(-1.0);
  EXPECT_EQ(g->value(), -1.0);
}

TEST(MetricsTest, HistogramBucketEdges) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.hist_edges", {1.0, 2.0});
  h->Reset();
  // Prometheus `le` semantics: bucket i counts v <= bounds[i]; values on the
  // boundary land in the lower bucket, values past the last bound overflow.
  h->Observe(0.5);   // <= 1.0
  h->Observe(1.0);   // <= 1.0 (boundary)
  h->Observe(1.5);   // <= 2.0
  h->Observe(2.0);   // <= 2.0 (boundary)
  h->Observe(2.5);   // overflow
  EXPECT_EQ(h->bucket_count(0), 2u);
  EXPECT_EQ(h->bucket_count(1), 2u);
  EXPECT_EQ(h->bucket_count(2), 1u);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 2.5);
}

TEST(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.reset_keeps");
  c->Add(7);
  reg.Reset();
  // The handle survives (cached macro statics stay valid) but reads zero.
  EXPECT_EQ(reg.GetCounter("test.reset_keeps"), c);
  EXPECT_EQ(c->value(), 0u);
}

TEST(MetricsTest, UpdatesAreExactUnderParallelFor) {
  ThreadGuard guard(4);
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Counter* c = reg.GetCounter("test.parallel_counter");
  obs::Histogram* h = reg.GetHistogram("test.parallel_hist", {0.5});
  c->Reset();
  h->Reset();
  constexpr int64_t kN = 20000;
  ParallelFor(0, kN, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      OVS_COUNTER_INC("test.parallel_counter");
      h->Observe(i % 2 == 0 ? 0.25 : 0.75);
    }
  });
  // Relaxed atomics still give exact totals: fetch_add never loses updates.
  EXPECT_EQ(c->value(), static_cast<uint64_t>(kN));
  EXPECT_EQ(h->count(), static_cast<uint64_t>(kN));
  EXPECT_EQ(h->bucket_count(0), static_cast<uint64_t>(kN / 2));
  EXPECT_EQ(h->bucket_count(1), static_cast<uint64_t>(kN / 2));
}

TEST(MetricsTest, SnapshotIsLexicographicallyOrdered) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::ignore = reg.GetCounter("test.order.b");
  std::ignore = reg.GetCounter("test.order.a");
  std::vector<MetricSnapshot> snap = reg.Snapshot();
  std::vector<std::string> counters;
  for (const MetricSnapshot& s : snap) {
    if (s.kind == MetricSnapshot::Kind::kCounter) counters.push_back(s.name);
  }
  EXPECT_TRUE(std::is_sorted(counters.begin(), counters.end()));
}

TEST(MetricsTest, JsonlExportIsOneObjectPerLine) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.jsonl_counter")->Add(2);
  reg.GetGauge("test.jsonl_gauge")->Set(1.5);
  reg.GetHistogram("test.jsonl_hist", {1.0})->Observe(0.5);
  std::ostringstream out;
  reg.WriteJsonl(out);
  std::istringstream in(out.str());
  std::string line;
  bool saw_hist = false;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"name\":\"test.jsonl_hist\"") != std::string::npos) {
      saw_hist = true;
      // Full bucket vector, including the +inf overflow bucket.
      EXPECT_NE(line.find("\"buckets\":["), std::string::npos);
      EXPECT_NE(line.find("\"le\":\"+inf\""), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_hist);
  EXPECT_NE(out.str().find(
                "{\"type\":\"counter\",\"name\":\"test.jsonl_counter\""),
            std::string::npos);
}

TEST(MetricsTest, CsvExportHasHeaderAndRows) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("test.csv_counter")->Add(1);
  std::ostringstream out;
  reg.WriteCsv(out);
  EXPECT_EQ(out.str().rfind("name,type,value,count,sum,p50,p90,p99\n", 0), 0u);
  EXPECT_NE(out.str().find("test.csv_counter,counter,"), std::string::npos);
}

MetricSnapshot HistSnapshot(const std::string& name) {
  for (const MetricSnapshot& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "metric not found: " << name;
  return {};
}

TEST(MetricsTest, HistogramQuantileInterpolatesWithinBuckets) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.quantile_interp", {1.0, 2.0});
  h->Reset();
  // 10 observations <= 1.0, 10 in (1.0, 2.0]: p50 lands on the first bucket
  // edge, p90 linearly interpolates 80% into the second bucket.
  for (int i = 0; i < 10; ++i) h->Observe(0.5);
  for (int i = 0; i < 10; ++i) h->Observe(1.5);
  const MetricSnapshot s = HistSnapshot("test.quantile_interp");
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.5), 1.0);
  EXPECT_NEAR(obs::HistogramQuantile(s, 0.9), 1.8, 1e-9);
  // Quantiles monotone in q.
  EXPECT_LE(obs::HistogramQuantile(s, 0.5), obs::HistogramQuantile(s, 0.9));
  EXPECT_LE(obs::HistogramQuantile(s, 0.9), obs::HistogramQuantile(s, 0.99));
}

TEST(MetricsTest, HistogramQuantileEmptyHistogramIsNaN) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.quantile_empty", {1.0});
  h->Reset();
  EXPECT_TRUE(std::isnan(
      obs::HistogramQuantile(HistSnapshot("test.quantile_empty"), 0.5)));
  // Counters are not histograms either.
  reg.GetCounter("test.quantile_counter")->Add(3);
  EXPECT_TRUE(std::isnan(
      obs::HistogramQuantile(HistSnapshot("test.quantile_counter"), 0.5)));
}

TEST(MetricsTest, HistogramQuantileSingleBucket) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.quantile_single", {4.0});
  h->Reset();
  h->Observe(1.0);
  const MetricSnapshot s = HistSnapshot("test.quantile_single");
  // One finite bucket [0, 4]: every quantile interpolates inside it and
  // never exceeds the bound.
  EXPECT_GE(obs::HistogramQuantile(s, 0.5), 0.0);
  EXPECT_LE(obs::HistogramQuantile(s, 0.99), 4.0);
}

TEST(MetricsTest, HistogramQuantileOverflowBucketSaturates) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  obs::Histogram* h = reg.GetHistogram("test.quantile_inf", {1.0});
  h->Reset();
  // All mass past the last finite bound: the +inf bucket has no upper edge,
  // so quantiles saturate at the largest finite bound instead of inventing
  // a value.
  for (int i = 0; i < 8; ++i) h->Observe(100.0);
  const MetricSnapshot s = HistSnapshot("test.quantile_inf");
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramQuantile(s, 0.99), 1.0);
}

// ------------------------------------------------------------------ trace --

TEST(TraceTest, ChromeTraceIsValidJsonWithNestedSpans) {
  obs::StartTracing();
  {
    OVS_TRACE_SCOPE("outer_span_fixture");
    {
      OVS_TRACE_SCOPE("inner_span_fixture");
      OVS_TRACE_COUNTER("fixture_counter", 42.0);
    }
  }
  obs::StopTracing();

  std::ostringstream out;
  ASSERT_TRUE(obs::WriteChromeTrace(out).ok());
  const std::string json = out.str();

  ASSERT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);

  const size_t outer = json.find("\"name\":\"outer_span_fixture\"");
  const size_t inner = json.find("\"name\":\"inner_span_fixture\"");
  const size_t counter = json.find("\"name\":\"fixture_counter\"");
  ASSERT_NE(outer, std::string::npos);
  ASSERT_NE(inner, std::string::npos);
  ASSERT_NE(counter, std::string::npos);

  // Chrome 'X' events nest by time containment on the same tid: the inner
  // span's [ts, ts+dur) must lie within the outer span's.
  const double outer_ts = NumberField(json, "ts", outer);
  const double outer_dur = NumberField(json, "dur", outer);
  const double inner_ts = NumberField(json, "ts", inner);
  const double inner_dur = NumberField(json, "dur", inner);
  EXPECT_EQ(NumberField(json, "tid", outer), NumberField(json, "tid", inner));
  EXPECT_GE(inner_ts, outer_ts);
  EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);

  // The counter event carries its value (field order: name, ph, ...).
  EXPECT_EQ(json.compare(json.find("\"ph\":", counter), 8, "\"ph\":\"C\""), 0);
  EXPECT_EQ(NumberField(json, "value", counter), 42.0);
}

TEST(TraceTest, SpansOnPoolThreadsCarryTheirOwnTid) {
  ThreadGuard guard(4);
  obs::StartTracing();
  ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      OVS_TRACE_SCOPE("pool_span_fixture");
    }
  });
  obs::StopTracing();
  std::ostringstream out;
  ASSERT_TRUE(obs::WriteChromeTrace(out).ok());
  const std::string json = out.str();
  ASSERT_TRUE(ParseJson(json).ok());
  size_t n = 0;
  for (size_t pos = json.find("\"name\":\"pool_span_fixture\"");
       pos != std::string::npos;
       pos = json.find("\"name\":\"pool_span_fixture\"", pos + 1)) {
    ++n;
  }
  EXPECT_EQ(n, 8u);
  // Thread-name metadata rows label every contributing track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(TraceTest, NothingRecordedWhileDisabled) {
  obs::StartTracing();
  obs::StopTracing();  // buffers cleared by Start, now disabled
  const size_t before = obs::BufferedTraceEventCount();
  {
    OVS_TRACE_SCOPE("should_not_record");
    OVS_TRACE_COUNTER("should_not_record_either", 1.0);
  }
  EXPECT_EQ(obs::BufferedTraceEventCount(), before);
}

TEST(TraceTest, InternNameIsStableAcrossCalls) {
  const char* a = obs::InternName("dynamic.name.fixture");
  const char* b = obs::InternName(std::string("dynamic.name.") + "fixture");
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "dynamic.name.fixture");
}

TEST(TraceTest, EventSoftCapDropsInsteadOfGrowing) {
  obs::SetTraceEventCapForTesting(16);
  obs::StartTracing();
  for (int i = 0; i < 50; ++i) {
    OVS_TRACE_SCOPE("cap_fixture");
  }
  obs::StopTracing();
  // Admissions stop at the cap; the rest are counted, not buffered.
  EXPECT_EQ(obs::BufferedTraceEventCount(), 16u);
  EXPECT_EQ(obs::DroppedTraceEventCount(), 34u);
  EXPECT_GE(
      obs::MetricsRegistry::Global().GetCounter("obs.trace.dropped_events")
          ->value(),
      34u);
  // The (incomplete) trace still exports as valid JSON.
  std::ostringstream out;
  ASSERT_TRUE(obs::WriteChromeTrace(out).ok());
  EXPECT_TRUE(ParseJson(out.str()).ok());

  // StartTracing resets the drop accounting; restoring the default cap
  // un-gates subsequent tests.
  obs::SetTraceEventCapForTesting(0);
  obs::StartTracing();
  obs::StopTracing();
  EXPECT_EQ(obs::DroppedTraceEventCount(), 0u);
}

// ------------------------------------------------------------ determinism --

DMat RecoveryRun(bool tracing) {
  ThreadGuard guard(4);
  if (tracing) obs::StartTracing();
  data::Dataset ds = data::BuildDataset(data::Synthetic3x3Config());
  core::TrainingData train = core::GenerateTrainingData(ds, 3, 7);
  Rng rng(11);
  core::OvsConfig config;
  config.lstm_hidden = 8;
  config.speed_head_hidden = 8;
  config.tod_scale = static_cast<float>(train.tod_scale);
  config.volume_norm = static_cast<float>(train.volume_norm);
  config.speed_scale = static_cast<float>(train.speed_scale);
  core::OvsModel model(ds.num_od(), ds.num_links(), ds.num_intervals(),
                       ds.incidence, config, &rng);
  core::TrainerConfig tc;
  tc.stage1_epochs = 6;
  tc.stage2_epochs = 6;
  tc.recovery_epochs = 10;
  tc.recovery_restarts = 2;
  core::OvsTrainer trainer(&model, tc);
  std::ignore = trainer.TrainVolumeSpeed(train);
  std::ignore = trainer.TrainTodVolume(train);
  core::TrainingSample gt = core::SimulateGroundTruth(ds, 4242);
  DMat recovered = trainer.RecoverTod(gt.speed, nullptr, &rng).value().mat();
  if (tracing) obs::StopTracing();
  return recovered;
}

// The determinism contract of DESIGN.md "Observability": spans and metrics
// read clocks but never feed any value back into computation, so a recovery
// run with tracing enabled is bitwise-identical to one without.
TEST(ObsDeterminismTest, TracingOnVsOffIsBitwiseIdentical) {
  DMat off = RecoveryRun(/*tracing=*/false);
  DMat on = RecoveryRun(/*tracing=*/true);
  // The traced run actually recorded the trainer/sim spans.
  EXPECT_GT(obs::BufferedTraceEventCount(), 0u);
  ASSERT_EQ(off.rows(), on.rows());
  ASSERT_EQ(off.cols(), on.cols());
  for (int i = 0; i < off.rows(); ++i) {
    for (int j = 0; j < off.cols(); ++j) {
      ASSERT_EQ(off.at(i, j), on.at(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------- session --

TEST(SessionTest, PublishesThreadPoolMetricsOnFinish) {
  ThreadGuard guard(4);
  obs::Session session(obs::SessionOptions{});  // no outputs, still publishes
  ParallelFor(0, 1000, 10, [](int64_t, int64_t) {});
  ASSERT_TRUE(session.Finish().ok());
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_GE(reg.GetCounter("threadpool.parallel_fors")->value(), 1u);
  EXPECT_GE(reg.GetCounter("threadpool.chunks_run")->value(), 100u);
  EXPECT_EQ(reg.GetGauge("threadpool.threads")->value(), 4.0);
  // Finish is idempotent.
  ASSERT_TRUE(session.Finish().ok());
}

TEST(SessionTest, InertSessionIsANoOp) {
  obs::Session session;
  EXPECT_FALSE(session.tracing());
  EXPECT_TRUE(session.Close());
}

}  // namespace
}  // namespace ovs
