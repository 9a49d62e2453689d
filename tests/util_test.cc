#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/bench_config.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/linalg.h"
#include "util/logging.h"
#include "util/mat.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace ovs {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> out = std::move(v).value();
  EXPECT_EQ(*out, 7);
}

Status HelperReturningError() { return Status::OutOfRange("boom"); }

Status HelperUsingReturnIfError() {
  RETURN_IF_ERROR(HelperReturningError());
  return Status::Ok();
}

TEST(StatusOrTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(HelperUsingReturnIfError().code(), StatusCode::kOutOfRange);
}

// ----------------------------------------------------------------- Strings --

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = StrSplit("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleToken) {
  auto parts = StrSplit("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\r\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ","), "x,y,z");
  EXPECT_EQ(StrSplit(StrJoin(parts, ","), ','), parts);
}

TEST(StringUtilTest, FormatAndDouble) {
  EXPECT_EQ(StrFormat("%d-%s", 3, "a"), "3-a");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foo", "foobar"));
  EXPECT_TRUE(StartsWith("foo", ""));
}

// ----------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(7), b(8);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(1);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == 0;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Gaussian(2.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.1);
  EXPECT_NEAR(var, 9.0, 0.5);
}

// Gaussian scales a standard normal draw rather than building a
// distribution with the caller's stddev (0 is a precondition violation for
// the standard library); for stddev > 0 the stream must stay bitwise what
// std::normal_distribution(mean, stddev) produced, and stddev 0 is exact.
TEST(RngTest, GaussianMatchesStandardDistributionBitwise) {
  for (const uint64_t seed : {1u, 42u, 977u}) {
    for (const double mean : {0.0, 1.5, -3.25, 120.0}) {
      for (const double stddev : {0.1, 1.0, 2.5, 17.0}) {
        Rng ours(seed);
        Rng reference(seed);
        for (int i = 0; i < 200; ++i) {
          const double want = std::normal_distribution<double>(mean, stddev)(
              reference.engine());
          ASSERT_EQ(std::bit_cast<uint64_t>(ours.Gaussian(mean, stddev)),
                    std::bit_cast<uint64_t>(want))
              << "seed " << seed << " mean " << mean << " stddev " << stddev
              << " draw " << i;
        }
      }
      Rng rng(seed);
      EXPECT_EQ(rng.Gaussian(mean, 0.0), mean);
    }
  }
}

TEST(RngTest, PoissonMean) {
  Rng rng(4);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(RngTest, PoissonZeroRate) {
  Rng rng(4);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.03);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(6);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.4);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(7);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::stable_sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(7);
  Rng child = a.Fork(1);
  // The fork should not replay the parent stream.
  Rng b(7);
  EXPECT_NE(child.UniformInt(0, 1 << 30), b.UniformInt(0, 1 << 30));
}

// ----------------------------------------------------------------- DMat --

TEST(DMatTest, ConstructionAndAccess) {
  DMat m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.numel(), 6);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
  m.at(1, 2) = 4.0;
  EXPECT_DOUBLE_EQ(m.at(1, 2), 4.0);
}

TEST(DMatTest, Reductions) {
  DMat m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = 4;
  EXPECT_DOUBLE_EQ(m.Sum(), 10.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.Max(), 4.0);
  EXPECT_DOUBLE_EQ(m.Min(), 1.0);
  EXPECT_DOUBLE_EQ(m.RowSum(1), 7.0);
}

TEST(DMatTest, ArithmeticOperators) {
  DMat a(1, 2, 1.0), b(1, 2, 2.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.0);
  a *= 2.0;
  EXPECT_DOUBLE_EQ(a.at(0, 1), 6.0);
}

TEST(DMatTest, RmseZeroForIdentical) {
  DMat a(3, 3, 2.0);
  EXPECT_DOUBLE_EQ(Rmse(a, a), 0.0);
}

TEST(DMatTest, RmseKnownValue) {
  DMat a(1, 2, 0.0), b(1, 2);
  b.at(0, 0) = 3.0;
  b.at(0, 1) = 4.0;
  EXPECT_NEAR(Rmse(a, b), std::sqrt(12.5), 1e-12);
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, RendersHeaderAndRows) {
  Table t("My table");
  t.SetHeader({"a", "bb"});
  t.AddRow({"1", "2"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("My table"), std::string::npos);
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1);
}

TEST(TableTest, CellFormatsNan) {
  EXPECT_EQ(Table::Cell(std::nan("")), "-");
  EXPECT_EQ(Table::Cell(1.2345, 2), "1.23");
}

TEST(TableTest, CsvOutput) {
  Table t("");
  t.SetHeader({"x", "y"});
  t.AddRow({"1", "2"});
  t.AddRow({"3", "4"});
  EXPECT_EQ(t.ToCsv(), "x,y\n1,2\n3,4\n");
}

// ----------------------------------------------------------------- CSV --

TEST(CsvTest, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_csv_test.csv").string();
  Status w = WriteCsv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  ASSERT_TRUE(w.ok()) << w;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  Status r = ReadCsv(path, &header, &rows);
  ASSERT_TRUE(r.ok()) << r;
  EXPECT_EQ(header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "4");
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileIsNotFound) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  EXPECT_EQ(ReadCsv("/nonexistent/nope.csv", &header, &rows).code(),
            StatusCode::kNotFound);
}

TEST(CsvTest, ArityMismatchRejectedOnWrite) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ovs_csv_bad.csv").string();
  Status s = WriteCsv(path, {"a", "b"}, {{"only-one"}});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ----------------------------------------------------------------- Linalg --

TEST(LinalgTest, MatMulKnown) {
  DMat a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  DMat b(2, 1);
  b.at(0, 0) = 5;
  b.at(1, 0) = 6;
  DMat c = MatMulD(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 17.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 39.0);
}

TEST(LinalgTest, TransposeInvolution) {
  Rng rng(1);
  DMat a(3, 5);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 5; ++j) a.at(i, j) = rng.Uniform(-1, 1);
  }
  DMat att = TransposeD(TransposeD(a));
  EXPECT_NEAR(Rmse(a, att), 0.0, 1e-15);
}

TEST(LinalgTest, SolveRecoversSolution) {
  Rng rng(2);
  const int n = 8;
  DMat a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a.at(i, j) = rng.Uniform(-1, 1);
    a.at(i, i) += n;  // diagonally dominant => well conditioned
  }
  DMat x_true(n, 2);
  for (int i = 0; i < n; ++i) {
    x_true.at(i, 0) = rng.Uniform(-3, 3);
    x_true.at(i, 1) = rng.Uniform(-3, 3);
  }
  DMat b = MatMulD(a, x_true);
  StatusOr<DMat> x = SolveLinearD(a, b);
  ASSERT_TRUE(x.ok()) << x.status();
  EXPECT_NEAR(Rmse(x.value(), x_true), 0.0, 1e-9);
}

TEST(LinalgTest, SolveSingularFails) {
  DMat a(2, 2);  // rank 1
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 2;
  a.at(1, 1) = 4;
  DMat b(2, 1, 1.0);
  EXPECT_FALSE(SolveLinearD(a, b).ok());
}

TEST(LinalgTest, RidgeFitRecoversLinearMap) {
  Rng rng(3);
  const int k = 4, m = 6, n = 120;
  DMat x_true(m, k);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) x_true.at(i, j) = rng.Uniform(-2, 2);
  }
  DMat g(k, n);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < n; ++j) g.at(i, j) = rng.Uniform(-1, 1);
  }
  DMat q = MatMulD(x_true, g);
  StatusOr<DMat> fit = RidgeFitLeft(q, g, 1e-6);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(Rmse(fit.value(), x_true), 0.0, 1e-4);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(7, 3, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPoolTest, GrainLargerThanRangeRunsSingleInlineCall) {
  ThreadPool pool(4);
  int calls = 0;
  int64_t lo = -1, hi = -1;
  pool.ParallelFor(2, 9, 100, [&](int64_t b, int64_t e) {
    ++calls;
    lo = b;  // ovs-lint: allow(parallelfor-capture) — grain >= range, one call
    hi = e;  // ovs-lint: allow(parallelfor-capture) — grain >= range, one call
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 9);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (int64_t grain : {1, 3, 7, 64, 1000}) {
    const int64_t n = 257;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(0, n, grain, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) ++hits[i];
    });
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " grain " << grain;
    }
  }
}

TEST(ThreadPoolTest, SingleThreadPoolIsSerial) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int64_t> order;
  pool.ParallelFor(0, 10, 2, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) order.push_back(i);
  });
  std::vector<int64_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100, 1,
                       [&](int64_t b, int64_t) {
                         if (b >= 50) throw std::runtime_error("chunk failed");
                       }),
      std::runtime_error);
  // The pool must still be usable after a failed region.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 10, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPoolTest, NestedParallelForDegradesToSerialWithoutDeadlock) {
  ThreadPool pool(4);
  const int64_t outer = 8, inner = 16;
  std::vector<std::atomic<int>> hits(outer * inner);
  for (auto& h : hits) h = 0;
  std::vector<int> inner_calls(outer, 0);
  std::vector<std::thread::id> outer_tid(outer), inner_tid(outer);
  const ThreadPool::Stats before = pool.stats();
  pool.ParallelFor(0, outer, 1, [&](int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      outer_tid[o] = std::this_thread::get_id();
      // Inside a worker-executed region this must run inline on the calling
      // thread, as one call over the whole range, rather than re-entering
      // the pool.
      pool.ParallelFor(0, inner, 1, [&](int64_t ib, int64_t ie) {
        ++inner_calls[o];
        inner_tid[o] = std::this_thread::get_id();
        for (int64_t i = ib; i < ie; ++i) ++hits[o * inner + i];
      });
    }
  });
  const ThreadPool::Stats after = pool.stats();
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "slot " << i;
  }
  for (int64_t o = 0; o < outer; ++o) {
    EXPECT_EQ(inner_calls[o], 1) << "outer index " << o;
    EXPECT_EQ(inner_tid[o], outer_tid[o]) << "outer index " << o;
  }
  // One region of `outer` chunks, plus one inline chunk per nested call.
  EXPECT_EQ(after.parallel_fors - before.parallel_fors, 1u + outer);
  EXPECT_EQ(after.chunks_run - before.chunks_run, 2u * outer);
}

TEST(ThreadPoolTest, GlobalPoolResize) {
  const int before = GlobalThreadCount();
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  ThreadPool* three = GlobalThreadPool();
  EXPECT_EQ(three->num_threads(), 3);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, 10, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950);
  // Asking for the same size keeps the pool.
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreadPool(), three);
  // A new size installs a new pool, and both the lookup and the free
  // ParallelFor reach it.
  SetGlobalThreads(2);
  ThreadPool* two = GlobalThreadPool();
  EXPECT_EQ(two->num_threads(), 2);
  EXPECT_EQ(GlobalThreadCount(), 2);
  const ThreadPool::Stats stats_before = two->stats();
  ParallelFor(0, 100, 10, [](int64_t, int64_t) {});
  EXPECT_EQ(two->stats().parallel_fors - stats_before.parallel_fors, 1u);
  EXPECT_EQ(two->stats().chunks_run - stats_before.chunks_run, 10u);
  SetGlobalThreads(before);
}

TEST(ThreadPoolTest, StatsCountRegionsChunksAndTasks) {
  ThreadPool pool(2);
  const ThreadPool::Stats before = pool.stats();
  // 100 items at grain 10 on a 2-thread pool: one region, ten chunks.
  pool.ParallelFor(0, 100, 10, [](int64_t, int64_t) {});
  // Grain swallows the whole range: serial fast path, still one region and
  // one chunk.
  pool.ParallelFor(0, 5, 100, [](int64_t, int64_t) {});
  // Empty range: no region at all.
  pool.ParallelFor(5, 5, 1, [](int64_t, int64_t) {});
  const ThreadPool::Stats after = pool.stats();
  EXPECT_EQ(after.parallel_fors - before.parallel_fors, 2u);
  EXPECT_EQ(after.chunks_run - before.chunks_run, 11u);
  // A serial pool runs every call inline; each still counts one region and
  // one chunk, and queues no task.
  ThreadPool serial(1);
  serial.ParallelFor(0, 100, 10, [](int64_t, int64_t) {});
  EXPECT_EQ(serial.stats().parallel_fors, 1u);
  EXPECT_EQ(serial.stats().chunks_run, 1u);
  EXPECT_EQ(serial.stats().tasks_run, 0u);
}

// ----------------------------------------------------------- BenchConfig --

TEST(BenchConfigTest, DefaultsToFast) {
  // The test binary never sets OVS_BENCH_SCALE.
  EXPECT_EQ(GetBenchScale(), BenchScale::kFast);
  EXPECT_EQ(ScaledIters(3, 100), 3);
}

TEST(BenchConfigTest, ParseBenchArgsExtractsTelemetryPaths) {
  const char* argv[] = {"prog", "--trace_out=/tmp/t.json", "--unrelated",
                        "--metrics_out=m.csv"};
  BenchArgs args = ParseBenchArgs(4, const_cast<char**>(argv));
  EXPECT_EQ(args.trace_out, "/tmp/t.json");
  EXPECT_EQ(args.metrics_out, "m.csv");
}

TEST(BenchConfigTest, ParseBenchArgsDefaultsToEmpty) {
  const char* argv[] = {"prog"};
  BenchArgs args = ParseBenchArgs(1, const_cast<char**>(argv));
  EXPECT_TRUE(args.trace_out.empty());
  EXPECT_TRUE(args.metrics_out.empty());
}

// --------------------------------------------------------------- Logging --

/// Restores the min log level and the clog/cerr stream buffers on scope
/// exit, capturing everything logged in between.
struct LogCapture {
  LogCapture()
      : saved_level(GetMinLogLevel()),
        old_clog(std::clog.rdbuf(clog_out.rdbuf())),
        old_cerr(std::cerr.rdbuf(cerr_out.rdbuf())) {}
  ~LogCapture() {
    std::clog.rdbuf(old_clog);
    std::cerr.rdbuf(old_cerr);
    SetMinLogLevel(saved_level);
  }
  std::ostringstream clog_out;
  std::ostringstream cerr_out;
  LogSeverity saved_level;
  std::streambuf* old_clog;
  std::streambuf* old_cerr;
};

TEST(LoggingTest, MinLogLevelFiltersLowerSeverities) {
  LogCapture capture;
  SetMinLogLevel(LogSeverity::kWarning);
  LOG(INFO) << "info-should-be-hidden";
  LOG(WARNING) << "warning-should-appear";
  LOG(ERROR) << "error-should-appear";
  EXPECT_EQ(capture.clog_out.str().find("info-should-be-hidden"),
            std::string::npos);
  EXPECT_NE(capture.cerr_out.str().find("warning-should-appear"),
            std::string::npos);
  EXPECT_NE(capture.cerr_out.str().find("error-should-appear"),
            std::string::npos);
}

TEST(LoggingTest, FilteredMessagesDoNotEvaluateOperands) {
  LogCapture capture;
  SetMinLogLevel(LogSeverity::kError);
  int evaluations = 0;
  auto expensive = [&evaluations] {
    ++evaluations;
    return 42;
  };
  LOG(INFO) << "value=" << expensive();
  LOG(WARNING) << "value=" << expensive();
  EXPECT_EQ(evaluations, 0);
  LOG(ERROR) << "value=" << expensive();
  EXPECT_EQ(evaluations, 1);
}

TEST(LoggingTest, FatalIsNeverFilteredOut) {
  LogCapture capture;
  SetMinLogLevel(LogSeverity::kFatal);
  EXPECT_EQ(GetMinLogLevel(), LogSeverity::kFatal);
  EXPECT_TRUE(internal_logging::ShouldLog(LogSeverity::kFatal));
  // The setter clamps out-of-range values so FATAL stays loggable.
  SetMinLogLevel(static_cast<LogSeverity>(99));
  EXPECT_EQ(GetMinLogLevel(), LogSeverity::kFatal);
  EXPECT_TRUE(internal_logging::ShouldLog(LogSeverity::kFatal));
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, ElapsedNanosIsMonotonicAndNonNegative) {
  Timer t;
  int64_t prev = t.ElapsedNanos();
  EXPECT_GE(prev, 0);
  for (int i = 0; i < 100; ++i) {
    const int64_t now = t.ElapsedNanos();
    EXPECT_GE(now, prev);
    prev = now;
  }
}

TEST(TimerTest, DerivedUnitsAgreeWithNanos) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Nanos sampled before seconds, seconds before millis: each coarser
  // reading must be at least the earlier finer one (monotonic clock).
  const int64_t ns = t.ElapsedNanos();
  EXPECT_GE(t.ElapsedSeconds(), static_cast<double>(ns) * 1e-9);
  EXPECT_GE(t.ElapsedMillis(), static_cast<double>(ns) * 1e-6);
  EXPECT_GE(ns, 2000000);  // slept at least 2 ms
}

TEST(TimerTest, RestartResetsTheOrigin) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const int64_t before_restart = t.ElapsedNanos();
  t.Restart();
  EXPECT_LT(t.ElapsedNanos(), before_restart);
}

// ------------------------------------------------------------------ Json --

/// One ParseJson input: rejected with InvalidArgument, or accepted and
/// handed to `check` (when set).
struct JsonRow {
  std::string input;
  bool ok = false;
  std::function<void(const JsonValue&)> check;
};

JsonRow Rejects(std::string input) { return {std::move(input), false, {}}; }

JsonRow Accepts(std::string input) { return {std::move(input), true, {}}; }

JsonRow String(std::string input, std::string want) {
  return {std::move(input), true, [want](const JsonValue& v) {
            ASSERT_EQ(v.kind, JsonValue::Kind::kString);
            EXPECT_EQ(v.string_value, want);
          }};
}

/// Numbers compare bitwise, so -0 and infinities are checked exactly.
JsonRow Number(std::string input, double want) {
  return {std::move(input), true, [want](const JsonValue& v) {
            ASSERT_EQ(v.kind, JsonValue::Kind::kNumber);
            EXPECT_EQ(std::bit_cast<uint64_t>(v.number_value),
                      std::bit_cast<uint64_t>(want))
                << v.number_value << " vs " << want;
          }};
}

std::string Nested(int depth, const std::string& inner = "") {
  return std::string(static_cast<size_t>(depth), '[') + inner +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(JsonTest, ParseTable) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<JsonRow> rows = {
      // Every escape, and \u decoding of BMP code points to UTF-8.
      String(R"("\"")", "\""),
      String(R"("\\")", "\\"),
      String(R"("\/")", "/"),
      String(R"("\b")", "\b"),
      String(R"("\f")", "\f"),
      String(R"("\n")", "\n"),
      String(R"("\r")", "\r"),
      String(R"("\t")", "\t"),
      String(R"("\u0041")", "A"),
      String(R"("\u00e9")", "\xC3\xA9"),
      String(R"("\u20AC")", "\xE2\x82\xAC"),
      String(R"("\uFFFF")", "\xEF\xBF\xBF"),
      String(R"("\u0000")", std::string(1, '\0')),
      String("\"caf\xC3\xA9\"", "caf\xC3\xA9"),
      // Lone surrogates (pairs are not decoded either), raw control
      // characters, and malformed escapes.
      Rejects(R"("\uD800")"),
      Rejects(R"("\uDC00")"),
      Rejects(R"("\uD83D\uDE00")"),
      Rejects("\"a\nb\""),
      Rejects("\"a\x01" "b\""),
      Rejects("\"a\tb\""),
      Rejects(R"("\x41")"),
      Rejects(R"("\u12")"),
      Rejects(R"("\u12G4")"),
      Rejects(R"("unterminated)"),
      // Trailing garbage, truncation, and other syntax errors.
      Rejects(R"({"a":1} x)"),
      Rejects("1 2"),
      Rejects("[1,]"),
      Rejects(R"({"a":1,})"),
      Rejects(R"({"a"})"),
      Rejects("[1"),
      Rejects(""),
      Rejects(" \n "),
      Rejects("nul"),
      Rejects("tru"),
      Accepts(" \t\r\n{} \n"),
      Accepts("[true,false,null]"),
      // Nesting: kJsonMaxDepth levels parse, one more does not, and 100,000
      // open brackets fail cleanly instead of overflowing the stack.
      Accepts(Nested(kJsonMaxDepth)),
      Accepts(Nested(kJsonMaxDepth, "1")),
      Rejects(Nested(kJsonMaxDepth + 1)),
      Rejects(std::string(100000, '[')),
      // Every number form the serve request parser accepted before the codec
      // was shared, to the same double (strtod of the token).
      Number("0", 0.0),
      Number("-0", -0.0),
      Number("7", 7.0),
      Number("-12", -12.0),
      Number("1.25", 1.25),
      Number("-0.5", -0.5),
      Number("1e3", 1000.0),
      Number("1E3", 1000.0),
      Number("2.5e+2", 250.0),
      Number("2.5E-2", 0.025),
      Number("0.30000000000000004", 0.1 + 0.2),
      Number("9007199254740993", 9007199254740992.0),
      Number("4.9406564584124654e-324",
             std::numeric_limits<double>::denorm_min()),
      Number("1e999", inf),
      Number("-1e999", -inf),
      Number("01", 1.0),
      Number("+1", 1.0),
      Number(".5", 0.5),
      Number("1.", 1.0),
      Number("-.5", -0.5),
      Rejects("-"),
      Rejects("1e"),
      Rejects("1.2.3"),
      Rejects("--1"),
      Rejects("0x10"),
      Rejects("NaN"),
      Rejects("Infinity"),
      // A duplicate key keeps its last value.
      {R"({"a":1,"b":true,"a":2})", true,
       [](const JsonValue& v) {
         ASSERT_EQ(v.object.size(), 2u);
         ASSERT_NE(v.Find("a"), nullptr);
         EXPECT_EQ(v.Find("a")->number_value, 2.0);
         EXPECT_TRUE(v.Find("b")->bool_value);
       }},
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    SCOPED_TRACE("row " + std::to_string(i) + ": " + row.input.substr(0, 40));
    const StatusOr<JsonValue> parsed = ParseJson(row.input);
    if (!row.ok) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (row.check) row.check(*parsed);
  }
}

TEST(JsonTest, ErrorsNameOffsetAndLine) {
  const StatusOr<JsonValue> parsed = ParseJson("{\n  \"a\": 1,\n  \"b\": ?\n}");
  ASSERT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("offset 19"), std::string::npos)
      << parsed.status().message();
  EXPECT_NE(parsed.status().message().find("line 3"), std::string::npos)
      << parsed.status().message();
}

TEST(JsonTest, WriterHelpersRoundTripThroughTheParser) {
  std::string every_ascii;
  for (int c = 1; c < 128; ++c) every_ascii.push_back(static_cast<char>(c));
  const StatusOr<JsonValue> text =
      ParseJson("\"" + JsonEscape(every_ascii) + "\"");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->string_value, every_ascii);

  for (const double v : {0.0, -0.0, 0.1, -2.5e-300, 1.0 / 3.0, 6.02214076e23}) {
    const StatusOr<JsonValue> num = ParseJson(JsonNumber(v));
    ASSERT_TRUE(num.ok()) << JsonNumber(v);
    EXPECT_EQ(std::bit_cast<uint64_t>(num->number_value),
              std::bit_cast<uint64_t>(v));
  }
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
}

}  // namespace
}  // namespace ovs
