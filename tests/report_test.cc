// Tests for structured run reports (src/obs/report), the phase-profile
// aggregator (obs::BuildPhaseProfile), and the perfdiff comparator
// (tools/perfdiff): report JSON validity and provenance, thread-count
// invariance of the gated work counters, self/total arithmetic of the
// merged span tree, and the regression fixtures the perf-gate CI job relies
// on (clean pass, injected 2x counter growth, accuracy regression, missing
// metric).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "obs_test_util.h"
#include "perfdiff.h"
#include "util/json.h"
#include "util/rng.h"

namespace ovs {
namespace {

using obs::MetricsRegistry;
using testutil::ThreadGuard;

// ----------------------------------------------------------------- report --

TEST(ReportTest, JsonIsValidAndCarriesProvenance) {
  MetricsRegistry::Global().Reset();
  obs::ClearReportedResults();
  setenv("OVS_GIT_SHA", "cafe1234", 1);
  OVS_COUNTER_ADD("test.report.work", 42);
  OVS_COUNTER_ADD("threadpool.tasks_run", 7);  // must be fenced into pool
  MetricsRegistry::Global().GetGauge("test.report.gauge")->Set(1.5);
  obs::ReportResult("test.report.rmse_b", 2.5);
  obs::ReportResult("test.report.rmse_a", 1.25);

  obs::RunReport report = obs::BuildRunReport("/path/to/report_fixture", 0.5);
  unsetenv("OVS_GIT_SHA");

  EXPECT_EQ(report.binary, "report_fixture");
  EXPECT_EQ(report.git_sha, "cafe1234");
  EXPECT_EQ(report.bench_scale, "fast");
  EXPECT_EQ(report.threads, GlobalThreadCount());
  EXPECT_EQ(report.counters.at("test.report.work"), 42u);
  // threadpool.* never lands in the gated counters section.
  EXPECT_EQ(report.counters.count("threadpool.tasks_run"), 0u);
  EXPECT_EQ(report.pool.at("threadpool.tasks_run"), 7u);
  EXPECT_EQ(report.gauges.at("test.report.gauge"), 1.5);
  // Result rows keep declaration order, not name order.
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].name, "test.report.rmse_b");
  EXPECT_EQ(report.results[1].name, "test.report.rmse_a");

  std::ostringstream os;
  ASSERT_TRUE(obs::WriteRunReportJson(report, os).ok());
  const std::string json = os.str();
  ASSERT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("\"schema\": \"ovs.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"git_sha\": \"cafe1234\""), std::string::npos);
}

TEST(ReportTest, RoundTripsThroughPerfdiffParser) {
  MetricsRegistry::Global().Reset();
  obs::ClearReportedResults();
  OVS_COUNTER_ADD("test.roundtrip.steps", 123456789);
  obs::ReportResult("test.roundtrip.rmse", 12.75);
  obs::ReportResult("test.roundtrip.nonfinite",
                    std::numeric_limits<double>::quiet_NaN());

  obs::RunReport report = obs::BuildRunReport("roundtrip", 1.0);
  std::ostringstream os;
  ASSERT_TRUE(obs::WriteRunReportJson(report, os).ok());

  // The writer and the comparator share util/json and the schema constant;
  // this round trip pins what the comparator reads back from the writer's
  // bytes (provenance, counters, declaration-ordered results, null -> NaN).
  perfdiff::Report parsed;
  std::string error;
  ASSERT_TRUE(perfdiff::ParseReportJson(os.str(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.binary, "roundtrip");
  EXPECT_EQ(parsed.bench_scale, "fast");
  EXPECT_EQ(parsed.counters.at("test.roundtrip.steps"), 123456789.0);
  ASSERT_EQ(parsed.results.size(), 2u);
  EXPECT_EQ(parsed.results[0].first, "test.roundtrip.rmse");
  EXPECT_EQ(parsed.results[0].second, 12.75);
  // Non-finite values are serialized as null and come back as NaN.
  EXPECT_TRUE(std::isnan(parsed.results[1].second));
}

std::map<std::string, uint64_t> WorkloadCounters(int threads) {
  ThreadGuard guard(threads);
  MetricsRegistry::Global().Reset();
  Rng rng(5);
  nn::Variable a(nn::Tensor::RandomUniform({48, 48}, -1, 1, &rng), true);
  nn::Variable b(nn::Tensor::RandomUniform({48, 48}, -1, 1, &rng), true);
  nn::Variable loss = nn::Sum(nn::MatMul(a, b));
  loss.Backward();
  return obs::BuildRunReport("workload", 0.0).counters;
}

// The property the whole perf gate rests on: gated work counters are
// bitwise-identical at any thread count (flops are counted per logical
// operation, never per chunk), so a baseline recorded on one machine gates
// runs on any other.
TEST(ReportTest, WorkCountersAreThreadCountInvariant) {
  const std::map<std::string, uint64_t> serial = WorkloadCounters(1);
  const std::map<std::string, uint64_t> threaded = WorkloadCounters(4);
  EXPECT_EQ(serial, threaded);
  ASSERT_EQ(serial.count("nn.gemm_flops"), 1u);
  EXPECT_GT(serial.at("nn.gemm_flops"), 0u);
  // Pool bookkeeping differs across thread counts by design and must not
  // appear among the gated counters.
  EXPECT_EQ(serial.count("threadpool.parallel_fors"), 0u);
}

// ---------------------------------------------------------- phase profile --

TEST(ReportTest, PhaseProfileSelfTotalArithmetic) {
  namespace it = obs::internal_trace;
  obs::StartTracing();
  // Spans appended the way RAII scopes would emit them: children complete
  // (and are appended) before their parent. Timestamps are synthetic, so
  // the tree shape and arithmetic are exact.
  it::AppendSpan("child_a", 150, 400);
  it::AppendSpan("child_b", 400, 900);
  it::AppendSpan("outer", 100, 1000);
  it::AppendSpan("outer", 1000, 1400);
  // A second thread contributes the same span names; the profile merges by
  // name path across threads.
  std::thread other([&] {
    it::AppendSpan("child_a", 50, 100);
    it::AppendSpan("outer", 0, 300);
  });
  other.join();
  obs::StopTracing();

  const std::vector<obs::PhaseNode> phases = obs::BuildPhaseProfile();
  ASSERT_EQ(phases.size(), 1u);
  const obs::PhaseNode& outer = phases[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.count, 3u);
  EXPECT_EQ(outer.total_ns, 900u + 400u + 300u);
  // Self time excludes child spans: 1600 - (child_a 300 + child_b 500).
  EXPECT_EQ(outer.self_ns, 800u);

  ASSERT_EQ(outer.children.size(), 2u);
  // Children sort by descending total time.
  EXPECT_EQ(outer.children[0].name, "child_b");
  EXPECT_EQ(outer.children[0].count, 1u);
  EXPECT_EQ(outer.children[0].total_ns, 500u);
  EXPECT_EQ(outer.children[1].name, "child_a");
  EXPECT_EQ(outer.children[1].count, 2u);
  EXPECT_EQ(outer.children[1].total_ns, 300u);
  // Leaves keep self == total.
  EXPECT_EQ(outer.children[0].self_ns, outer.children[0].total_ns);
  EXPECT_EQ(outer.children[1].self_ns, outer.children[1].total_ns);

  // The printable rollup renders one row per node.
  std::ostringstream os;
  obs::PrintPhaseProfile(phases, os);
  EXPECT_NE(os.str().find("outer"), std::string::npos);
  EXPECT_NE(os.str().find("child_b"), std::string::npos);
}

// --------------------------------------------------------------- perfdiff --

perfdiff::Report FixtureReport() {
  perfdiff::Report report;
  report.schema = obs::RunReport::kSchema;
  report.binary = "fixture";
  report.bench_scale = "fast";
  report.counters["sim.vehicle_steps"] = 100000.0;
  report.counters["trainer.recover.diverged_restarts"] = 2.0;
  report.results.emplace_back("table8.Random.OVS.rmse_tod", 30.0);
  return report;
}

TEST(PerfdiffTest, CleanPassHasNoFindings) {
  const perfdiff::Report base = FixtureReport();
  const std::vector<perfdiff::Finding> findings =
      perfdiff::Compare(base, base, {});
  EXPECT_TRUE(findings.empty());
  EXPECT_FALSE(perfdiff::HasRegression(findings));
}

TEST(PerfdiffTest, DoubledCounterIsARegression) {
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.counters["sim.vehicle_steps"] *= 2.0;
  const std::vector<perfdiff::Finding> findings =
      perfdiff::Compare(base, current, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, perfdiff::Finding::Kind::kCounterRegression);
  EXPECT_EQ(findings[0].metric, "sim.vehicle_steps");
  EXPECT_TRUE(perfdiff::HasRegression(findings));
}

TEST(PerfdiffTest, SlackAbsorbsSmallAbsoluteCounterWobble) {
  // A tiny counter (e.g. divergence restarts) moving 2 -> 10 is within the
  // default absolute slack of 16; 2 -> 40 is not.
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.counters["trainer.recover.diverged_restarts"] = 10.0;
  EXPECT_FALSE(perfdiff::HasRegression(perfdiff::Compare(base, current, {})));
  current.counters["trainer.recover.diverged_restarts"] = 40.0;
  EXPECT_TRUE(perfdiff::HasRegression(perfdiff::Compare(base, current, {})));
}

TEST(PerfdiffTest, AccuracyRegressionIsFlagged) {
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.results[0].second = 40.0;  // 30 * 1.2 = 36 < 40
  const std::vector<perfdiff::Finding> findings =
      perfdiff::Compare(base, current, {});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, perfdiff::Finding::Kind::kResultRegression);
  // A non-finite current value can never pass the gate.
  current.results[0].second = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(perfdiff::HasRegression(perfdiff::Compare(base, current, {})));
}

TEST(PerfdiffTest, MissingMetricIsARegression) {
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.counters.erase("sim.vehicle_steps");
  current.results.clear();
  const std::vector<perfdiff::Finding> findings =
      perfdiff::Compare(base, current, {});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].kind, perfdiff::Finding::Kind::kMissingMetric);
  EXPECT_EQ(findings[1].kind, perfdiff::Finding::Kind::kMissingMetric);
  EXPECT_TRUE(perfdiff::HasRegression(findings));
}

TEST(PerfdiffTest, NewMetricsAreInformationalOnly) {
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.counters["sim.new_subsystem_steps"] = 5.0;
  current.results.emplace_back("table11.new_row", 1.0);
  const std::vector<perfdiff::Finding> findings =
      perfdiff::Compare(base, current, {});
  ASSERT_EQ(findings.size(), 2u);
  for (const perfdiff::Finding& finding : findings) {
    EXPECT_EQ(finding.kind, perfdiff::Finding::Kind::kNewMetric);
  }
  EXPECT_FALSE(perfdiff::HasRegression(findings));
}

TEST(PerfdiffTest, PerMetricToleranceOverridesTheDefaultRatio) {
  const perfdiff::Report base = FixtureReport();
  perfdiff::Report current = base;
  current.counters["sim.vehicle_steps"] *= 2.0;
  perfdiff::Tolerances tolerances;
  tolerances.per_metric["sim.vehicle_steps"] = 3.0;
  EXPECT_FALSE(
      perfdiff::HasRegression(perfdiff::Compare(base, current, tolerances)));
  // The override is per-metric: a different counter still uses the default.
  current.counters["trainer.recover.diverged_restarts"] = 1000.0;
  EXPECT_TRUE(
      perfdiff::HasRegression(perfdiff::Compare(base, current, tolerances)));
}

std::string MinimalReportJson(uint64_t steps, const std::string& scale) {
  std::ostringstream os;
  os << "{\"schema\": \"" << obs::RunReport::kSchema
     << "\", \"binary\": \"fixture\", \"bench_scale\": \"" << scale
     << "\", \"counters\": {\"sim.steps\": " << steps
     << "}, \"results\": []}";
  return os.str();
}

std::string WriteTempReport(const std::string& name,
                            const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);  // test fixture, not a data artifact
  out << content;
  return path;
}

TEST(PerfdiffTest, RunExitCodesMatchTheContract) {
  const std::string base =
      WriteTempReport("perfdiff_base.json", MinimalReportJson(1000, "fast"));
  const std::string same =
      WriteTempReport("perfdiff_same.json", MinimalReportJson(1000, "fast"));
  const std::string doubled =
      WriteTempReport("perfdiff_2x.json", MinimalReportJson(2000, "fast"));
  const std::string full_scale =
      WriteTempReport("perfdiff_full.json", MinimalReportJson(1000, "full"));
  const std::string malformed =
      WriteTempReport("perfdiff_bad.json", "{\"schema\": ");

  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(perfdiff::Run(base, same, out, err, {}), 0);
  EXPECT_EQ(perfdiff::Run(base, doubled, out, err, {}), 1);
  // Reports at different bench scales are incomparable: usage error, not a
  // regression verdict.
  EXPECT_EQ(perfdiff::Run(base, full_scale, out, err, {}), 2);
  EXPECT_EQ(perfdiff::Run(base, malformed, out, err, {}), 2);
  EXPECT_EQ(perfdiff::Run("/nonexistent/report.json", base, out, err, {}), 2);

  // A tolerance that would switch the gate off is a usage error, even
  // against the doubled counter the default tolerances flag.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<perfdiff::RunOptions> gate_off(6);
  gate_off[0].tolerances.counter_ratio = nan;
  gate_off[1].tolerances.result_ratio = nan;
  gate_off[2].tolerances.counter_slack = inf;
  gate_off[3].tolerances.result_slack = -1.0;
  gate_off[4].tolerances.per_metric["sim.steps"] = inf;
  gate_off[5].tolerances.per_metric["r"] = nan;
  for (size_t i = 0; i < gate_off.size(); ++i) {
    EXPECT_EQ(perfdiff::Run(base, doubled, out, err, gate_off[i]), 2) << i;
  }

  // --format=github annotations surface on the PR.
  perfdiff::RunOptions github;
  github.format = perfdiff::RunOptions::Format::kGithub;
  std::ostringstream gh_out;
  EXPECT_EQ(perfdiff::Run(base, doubled, gh_out, err, github), 1);
  EXPECT_NE(gh_out.str().find("::error title=perfdiff"), std::string::npos);
}

// ---------------------------------------------------------------- session --

TEST(ReportTest, SessionWritesSchemaValidReportAndPropagatesStatus) {
  const std::string path = ::testing::TempDir() + "session_report.json";
  {
    obs::SessionOptions options;
    options.report_out = path;
    options.binary_name = "session_fixture";
    obs::Session session(options);
    EXPECT_TRUE(session.tracing());  // report mode records spans
    {
      OVS_TRACE_SCOPE("session_fixture_phase");
      OVS_COUNTER_ADD("test.session.work", 3);
    }
    ASSERT_TRUE(session.Finish().ok());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  ASSERT_TRUE(ParseJson(buffer.str()).ok());
  perfdiff::Report parsed;
  std::string error;
  ASSERT_TRUE(perfdiff::ParseReportJson(buffer.str(), &parsed, &error))
      << error;
  EXPECT_EQ(parsed.binary, "session_fixture");
  EXPECT_EQ(parsed.counters.at("test.session.work"), 3.0);

  // An unwritable report path is an error the bench main must propagate.
  obs::SessionOptions bad;
  bad.report_out = "/nonexistent_dir/report.json";
  bad.binary_name = "session_fixture";
  obs::Session failing(bad);
  EXPECT_FALSE(failing.Finish().ok());
}

}  // namespace
}  // namespace ovs
