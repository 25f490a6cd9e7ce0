#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/runtime_options.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace resuformer {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad shape");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad shape");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto inner = []() { return Status::NotFound("x"); };
  auto outer = [&]() -> Status {
    RF_RETURN_NOT_OK(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kNotFound);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsStatus) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(10);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 10);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(9);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(5);
  const std::vector<int> perm = rng.Permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const std::vector<int> sample = rng.SampleWithoutReplacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::set<int> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  int count0 = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Categorical({9.0, 1.0}) == 0) ++count0;
  }
  EXPECT_NEAR(count0 / 10000.0, 0.9, 0.03);
}

TEST(StringUtilTest, SplitAndJoin) {
  const auto pieces = SplitString("a b\tc\nd");
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(JoinStrings(pieces, "-"), "a-b-c-d");
}

TEST(StringUtilTest, SplitDropsEmpty) {
  EXPECT_EQ(SplitString("  a   b  ").size(), 2u);
  EXPECT_TRUE(SplitString("").empty());
}

TEST(StringUtilTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("##ing", "##"));
  EXPECT_FALSE(StartsWith("#", "##"));
  EXPECT_TRUE(EndsWith("Acme Co. LTD", "Co. LTD"));
}

TEST(StringUtilTest, StripAndLower) {
  EXPECT_EQ(StripAscii("  Hello \n"), "Hello");
  EXPECT_EQ(ToLowerAscii("MiXeD"), "mixed");
}

TEST(StringUtilTest, StringPrintfFormats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
}

TEST(StringUtilTest, IsAsciiDigits) {
  EXPECT_TRUE(IsAsciiDigits("2019"));
  EXPECT_FALSE(IsAsciiDigits("20a9"));
  EXPECT_FALSE(IsAsciiDigits(""));
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"Tag", "F1"});
  t.AddRow({"PInfo", "91.75"});
  t.AddRow({"EduExp", "91.00"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| Tag    | F1    |"), std::string::npos);
  EXPECT_NE(s.find("| PInfo  | 91.75 |"), std::string::npos);
}

TEST(TablePrinterTest, SeparatorRows) {
  TablePrinter t({"A"});
  t.AddRow({"1"});
  t.AddSeparator();
  t.AddRow({"2"});
  const std::string s = t.ToString();
  // Header sep + inserted sep + trailing sep + top = 4 separator lines.
  int count = 0;
  for (size_t pos = 0; (pos = s.find("+--", pos)) != std::string::npos; ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 4);
}

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(4);
  for (int64_t count : {1, 3, 4, 7, 1000}) {
    std::vector<std::atomic<int>> hits(count);
    for (auto& h : hits) h = 0;
    pool.ParallelFor(count, [&](int /*worker*/, int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ++hits[i];
    });
    for (int64_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
  pool.SetNumThreads(1);
}

TEST(ThreadPoolTest, StaticPartitionIsDeterministic) {
  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(3);
  auto partition = [&]() {
    std::vector<std::pair<int64_t, int64_t>> chunks(3, {-1, -1});
    pool.ParallelFor(100, [&](int worker, int64_t begin, int64_t end) {
      chunks[worker] = {begin, end};
    });
    return chunks;
  };
  const auto first = partition();
  // Chunks are contiguous, ordered by worker id, and stable across runs.
  EXPECT_EQ(first[0].first, 0);
  EXPECT_EQ(first[0].second, first[1].first);
  EXPECT_EQ(first[1].second, first[2].first);
  EXPECT_EQ(first[2].second, 100);
  for (int run = 0; run < 5; ++run) EXPECT_EQ(partition(), first);
  pool.SetNumThreads(1);
}

TEST(ThreadPoolTest, SetNumThreadsResizesAndSerialRunsInline) {
  ThreadPool& pool = ThreadPool::Global();
  pool.SetNumThreads(1);
  EXPECT_EQ(pool.NumThreads(), 1);
  // With one thread the body runs on the calling thread as a single chunk.
  int calls = 0;
  int64_t begin = -1, end = -1;
  pool.ParallelFor(42, [&](int worker, int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(worker, 0);
    begin = b;
    end = e;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(begin, 0);
  EXPECT_EQ(end, 42);
  pool.SetNumThreads(8);
  EXPECT_EQ(pool.NumThreads(), 8);
  pool.SetNumThreads(1);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

// Sets one environment variable for the duration of a scope and restores
// the previous value (or unsets) on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, /*overwrite=*/1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(RuntimeOptionsEnvTest, UnsetAndEmptyKeepDefaults) {
  {
    ScopedEnv env("RESUFORMER_THREADS", nullptr);
    EXPECT_EQ(RuntimeOptions::FromEnv().threads, 0);
  }
  {
    ScopedEnv env("RESUFORMER_THREADS", "");
    EXPECT_EQ(RuntimeOptions::FromEnv().threads, 0);
  }
}

TEST(RuntimeOptionsEnvTest, ValidValueIsParsed) {
  ScopedEnv env("RESUFORMER_THREADS", "8");
  EXPECT_EQ(RuntimeOptions::FromEnv().threads, 8);
  EXPECT_EQ(DefaultThreadCount(), 8);
}

TEST(RuntimeOptionsEnvTest, NonNumericFallsBackWithoutAborting) {
  for (const char* bad : {"abc", "four", "1e3", "8x", "x8", "-", "+", " "}) {
    ScopedEnv env("RESUFORMER_THREADS", bad);
    EXPECT_EQ(RuntimeOptions::FromEnv().threads, 0) << "value: " << bad;
    EXPECT_GE(DefaultThreadCount(), 1) << "value: " << bad;
  }
}

TEST(RuntimeOptionsEnvTest, NegativeAndZeroFallBack) {
  for (const char* bad : {"-4", "0", "-2147483648"}) {
    ScopedEnv env("RESUFORMER_THREADS", bad);
    EXPECT_EQ(RuntimeOptions::FromEnv().threads, 0) << "value: " << bad;
    EXPECT_GE(DefaultThreadCount(), 1) << "value: " << bad;
  }
}

TEST(RuntimeOptionsEnvTest, OverflowFallsBackInsteadOfUB) {
  // std::atoi would be undefined here; the strict parser must fall back.
  for (const char* bad : {"99999999999999999999", "2147483648", "1000"}) {
    ScopedEnv env("RESUFORMER_THREADS", bad);
    EXPECT_EQ(RuntimeOptions::FromEnv().threads, 0) << "value: " << bad;
    EXPECT_GE(DefaultThreadCount(), 1) << "value: " << bad;
  }
}

TEST(RuntimeOptionsEnvTest, TraceCapacityRangeChecked) {
  {
    ScopedEnv env("RESUFORMER_TRACE_CAPACITY", "1024");
    EXPECT_EQ(RuntimeOptions::FromEnv().trace_buffer_capacity, 1024);
  }
  {
    // Below the minimum ring size: keep the default.
    ScopedEnv env("RESUFORMER_TRACE_CAPACITY", "2");
    EXPECT_EQ(RuntimeOptions::FromEnv().trace_buffer_capacity, 8192);
  }
}

TEST(RuntimeOptionsEnvTest, BoolKnobsParseCommonSpellings) {
  {
    ScopedEnv env("RESUFORMER_FUSED_ATTENTION", "off");
    EXPECT_FALSE(RuntimeOptions::FromEnv().use_fused_attention);
  }
  {
    ScopedEnv env("RESUFORMER_USE_PLAN", "1");
    EXPECT_TRUE(RuntimeOptions::FromEnv().use_inference_plan);
  }
  {
    ScopedEnv env("RESUFORMER_METRICS", "TRUE");
    EXPECT_TRUE(RuntimeOptions::FromEnv().enable_metrics);
  }
}

// ---------------------------------------------------------------------------
// Strict serving knobs (RESUFORMER_SERVE_*): unlike the lenient knobs above,
// malformed or out-of-range values surface an error naming the variable.
// ---------------------------------------------------------------------------

TEST(RuntimeOptionsServeEnvTest, UnsetKeepsDefaultsWithoutError) {
  ScopedEnv a("RESUFORMER_SERVE_MAX_BATCH", nullptr);
  ScopedEnv b("RESUFORMER_SERVE_MAX_QUEUE_DELAY_MS", nullptr);
  ScopedEnv c("RESUFORMER_SERVE_QUEUE_CAPACITY", nullptr);
  ScopedEnv d("RESUFORMER_SERVE_WORKERS", nullptr);
  Status error;
  const RuntimeOptions opts = RuntimeOptions::FromEnv(&error);
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(opts.serve_max_batch, 8);
  EXPECT_EQ(opts.serve_max_queue_delay_ms, 5);
  EXPECT_EQ(opts.serve_queue_capacity, 256);
  EXPECT_EQ(opts.serve_workers, 2);
}

TEST(RuntimeOptionsServeEnvTest, ValidValuesPopulateEveryKnob) {
  ScopedEnv a("RESUFORMER_SERVE_MAX_BATCH", "32");
  ScopedEnv b("RESUFORMER_SERVE_MAX_QUEUE_DELAY_MS", "12");
  ScopedEnv c("RESUFORMER_SERVE_QUEUE_CAPACITY", "1024");
  ScopedEnv d("RESUFORMER_SERVE_WORKERS", "4");
  Status error;
  const RuntimeOptions opts = RuntimeOptions::FromEnv(&error);
  EXPECT_TRUE(error.ok()) << error.ToString();
  EXPECT_EQ(opts.serve_max_batch, 32);
  EXPECT_EQ(opts.serve_max_queue_delay_ms, 12);
  EXPECT_EQ(opts.serve_queue_capacity, 1024);
  EXPECT_EQ(opts.serve_workers, 4);
}

TEST(RuntimeOptionsServeEnvTest, MalformedValueNamesTheVariable) {
  for (const char* bad : {"0", "-1", "8x", "abc", "99999999999999999999"}) {
    ScopedEnv env("RESUFORMER_SERVE_MAX_BATCH", bad);
    Status error;
    const RuntimeOptions opts = RuntimeOptions::FromEnv(&error);
    EXPECT_EQ(opts.serve_max_batch, 8) << "value: " << bad;  // fallback kept
    ASSERT_FALSE(error.ok()) << "value: " << bad;
    EXPECT_NE(error.ToString().find("RESUFORMER_SERVE_MAX_BATCH"),
              std::string::npos)
        << error.ToString();
    EXPECT_NE(error.ToString().find(std::string("'") + bad + "'"),
              std::string::npos)
        << error.ToString();
  }
}

TEST(RuntimeOptionsServeEnvTest, ErrorMessageStatesTheAllowedRange) {
  ScopedEnv env("RESUFORMER_SERVE_WORKERS", "0");
  Status error;
  (void)RuntimeOptions::FromEnv(&error);
  ASSERT_FALSE(error.ok());
  EXPECT_NE(error.ToString().find("[1, 256]"), std::string::npos)
      << error.ToString();
}

TEST(RuntimeOptionsServeEnvTest, FirstErrorWinsAcrossKnobs) {
  ScopedEnv a("RESUFORMER_SERVE_MAX_BATCH", "bogus");
  ScopedEnv b("RESUFORMER_SERVE_WORKERS", "also-bogus");
  Status error;
  const RuntimeOptions opts = RuntimeOptions::FromEnv(&error);
  ASSERT_FALSE(error.ok());
  // The first strict knob in declaration order reports; the rest still fall
  // back to their defaults rather than compounding.
  EXPECT_NE(error.ToString().find("RESUFORMER_SERVE_MAX_BATCH"),
            std::string::npos)
      << error.ToString();
  EXPECT_EQ(opts.serve_max_batch, 8);
  EXPECT_EQ(opts.serve_workers, 2);
}

TEST(RuntimeOptionsServeEnvTest, NullErrorPointerDoesNotCrash) {
  ScopedEnv env("RESUFORMER_SERVE_QUEUE_CAPACITY", "-7");
  // Without an out-param the error is logged as a warning, not fatal.
  EXPECT_EQ(RuntimeOptions::FromEnv().serve_queue_capacity, 256);
}

TEST(StrictIntFromEnvTest, DirectParseAndRangeChecks) {
  {
    ScopedEnv env("RESUFORMER_TEST_STRICT_KNOB", "17");
    Status error;
    EXPECT_EQ(envparse::StrictIntFromEnv("RESUFORMER_TEST_STRICT_KNOB", 3, 1,
                                         100, &error),
              17);
    EXPECT_TRUE(error.ok());
  }
  {
    ScopedEnv env("RESUFORMER_TEST_STRICT_KNOB", "101");
    Status error;
    EXPECT_EQ(envparse::StrictIntFromEnv("RESUFORMER_TEST_STRICT_KNOB", 3, 1,
                                         100, &error),
              3);
    ASSERT_FALSE(error.ok());
    EXPECT_NE(error.ToString().find("[1, 100]"), std::string::npos)
        << error.ToString();
  }
  {
    // An already-set error is preserved: first error wins.
    ScopedEnv env("RESUFORMER_TEST_STRICT_KNOB", "junk");
    Status error = Status::InvalidArgument("earlier failure");
    EXPECT_EQ(envparse::StrictIntFromEnv("RESUFORMER_TEST_STRICT_KNOB", 3, 1,
                                         100, &error),
              3);
    EXPECT_NE(error.ToString().find("earlier failure"), std::string::npos);
  }
}

}  // namespace
}  // namespace resuformer
