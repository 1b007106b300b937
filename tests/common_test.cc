#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "common/circuit_breaker.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/threadpool.h"

namespace saga {
namespace {

// ---------- Status / Result ----------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("key xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: key xyz");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
}

Status FailsIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  SAGA_RETURN_IF_ERROR(FailsIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_TRUE(UsesReturnIfError(-1).IsInvalidArgument());
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::OutOfRange("not positive");
  return x * 2;
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);

  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(7), 7);
}

Result<int> ChainsAssign(int x) {
  SAGA_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(ChainsAssign(5).ok());
  EXPECT_EQ(ChainsAssign(5).value(), 11);
  EXPECT_FALSE(ChainsAssign(0).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(5);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng rng(9);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(1000, 1.1) < 10) ++low;
  }
  // With s=1.1 the top-10 ranks should absorb a large share.
  EXPECT_GT(low, n / 5);
}

TEST(RngTest, ZipfStaysInRange) {
  Rng rng(13);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(rng.Zipf(50, 0.8), 50u);
  }
  EXPECT_EQ(rng.Zipf(1, 1.0), 0u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(31);
  for (size_t k : {0u, 1u, 5u, 20u, 50u}) {
    auto sample = rng.SampleWithoutReplacement(50, k);
    EXPECT_EQ(sample.size(), k);
    std::set<size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), k);
    for (size_t s : sample) EXPECT_LT(s, 50u);
  }
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(4);
  Rng child = a.Fork();
  EXPECT_NE(a.NextUint64(), child.NextUint64());
}

// ---------- Hash ----------

TEST(HashTest, StableKnownValue) {
  // FNV-1a must never change (on-disk formats depend on it).
  EXPECT_EQ(Hash64("hello"), Hash64(std::string_view("hello")));
  EXPECT_NE(Hash64("hello"), Hash64("hellp"));
  EXPECT_NE(Hash64(""), Hash64("a"));
}

TEST(HashTest, SeedChangesResult) {
  EXPECT_NE(Hash64("abc", 1), Hash64("abc", 2));
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

// ---------- Serialization ----------

TEST(SerializationTest, RoundTripPrimitives) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutU8(200);
  w.PutFixed32(0xDEADBEEF);
  w.PutFixed64(0x0123456789ABCDEFULL);
  w.PutVarint64(0);
  w.PutVarint64(127);
  w.PutVarint64(128);
  w.PutVarint64(0xFFFFFFFFFFFFFFFFULL);
  w.PutVarint64Signed(-1);
  w.PutVarint64Signed(12345);
  w.PutFloat(3.25f);
  w.PutDouble(-2.5e-10);
  w.PutString("hello world");
  w.PutBool(true);
  w.PutFloatVector({1.0f, -2.0f, 0.5f});

  BinaryReader r(buf);
  uint8_t u8;
  uint32_t f32;
  uint64_t f64;
  uint64_t v;
  int64_t sv;
  float f;
  double d;
  std::string s;
  bool b;
  std::vector<float> vec;
  ASSERT_TRUE(r.GetU8(&u8).ok());
  EXPECT_EQ(u8, 200);
  ASSERT_TRUE(r.GetFixed32(&f32).ok());
  EXPECT_EQ(f32, 0xDEADBEEF);
  ASSERT_TRUE(r.GetFixed64(&f64).ok());
  EXPECT_EQ(f64, 0x0123456789ABCDEFULL);
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, 127u);
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, 128u);
  ASSERT_TRUE(r.GetVarint64(&v).ok());
  EXPECT_EQ(v, 0xFFFFFFFFFFFFFFFFULL);
  ASSERT_TRUE(r.GetVarint64Signed(&sv).ok());
  EXPECT_EQ(sv, -1);
  ASSERT_TRUE(r.GetVarint64Signed(&sv).ok());
  EXPECT_EQ(sv, 12345);
  ASSERT_TRUE(r.GetFloat(&f).ok());
  EXPECT_EQ(f, 3.25f);
  ASSERT_TRUE(r.GetDouble(&d).ok());
  EXPECT_EQ(d, -2.5e-10);
  ASSERT_TRUE(r.GetString(&s).ok());
  EXPECT_EQ(s, "hello world");
  ASSERT_TRUE(r.GetBool(&b).ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(r.GetFloatVector(&vec).ok());
  EXPECT_EQ(vec, (std::vector<float>{1.0f, -2.0f, 0.5f}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializationTest, TruncatedInputIsCorruption) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutFixed64(42);
  BinaryReader r(std::string_view(buf).substr(0, 3));
  uint64_t v;
  EXPECT_TRUE(r.GetFixed64(&v).IsCorruption());
}

TEST(SerializationTest, TruncatedStringIsCorruption) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutString("abcdef");
  BinaryReader r(std::string_view(buf).substr(0, 4));
  std::string s;
  EXPECT_TRUE(r.GetString(&s).IsCorruption());
}

// Lengths whose byte counts wrap a size_t: the reader must compare them
// with the bytes left, not add them to its offset.
TEST(SerializationTest, HugeLengthsAreCorruption) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutVarint64(~uint64_t{0});
  buf += "abcd";
  BinaryReader strings(buf);
  std::string s;
  EXPECT_TRUE(strings.GetString(&s).IsCorruption());

  buf.clear();
  w.PutVarint64(uint64_t{1} << 62);  // 2^62 floats: n * 4 wraps to 0
  buf += "abcd";
  BinaryReader floats(buf);
  std::vector<float> vec;
  EXPECT_TRUE(floats.GetFloatVector(&vec).IsCorruption());
  EXPECT_TRUE(vec.empty());

  BinaryReader skips(buf);
  ASSERT_TRUE(skips.Skip(2).ok());
  EXPECT_TRUE(skips.Skip(~size_t{0}).IsCorruption());
}

TEST(SerializationTest, SkipAdvances) {
  std::string buf = "abcdef";
  BinaryReader r(buf);
  ASSERT_TRUE(r.Skip(4).ok());
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_TRUE(r.Skip(3).IsCorruption());
}

class VarintRoundTrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(VarintRoundTrip, SignedValueSurvives) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutVarint64Signed(GetParam());
  BinaryReader r(buf);
  int64_t v = 0;
  ASSERT_TRUE(r.GetVarint64Signed(&v).ok());
  EXPECT_EQ(v, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    EdgeValues, VarintRoundTrip,
    ::testing::Values(0, 1, -1, 63, -64, 64, -65, 1LL << 40,
                      -(1LL << 40), INT64_MAX, INT64_MIN));

// ---------- Strings ----------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("HeLLo 123"), "hello 123");
  EXPECT_TRUE(EqualsIgnoreCase("ABC", "abc"));
  EXPECT_FALSE(EqualsIgnoreCase("ABC", "abd"));
  EXPECT_FALSE(EqualsIgnoreCase("ab", "abc"));
}

TEST(StringUtilTest, TrimStripsEnds) {
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t\n "), "");
}

TEST(StringUtilTest, Formatting) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(1536), "1.5 KiB");
  EXPECT_EQ(FormatBytes(3 << 20), "3.0 MiB");
}

// ---------- Files ----------

TEST(FileUtilTest, WriteReadRoundTrip) {
  auto dir = MakeTempDir("saga_file_test");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "data.bin");
  const std::string payload = "binary\0payload";
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, payload);
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, payload.size());
  EXPECT_TRUE(RemoveDirRecursively(*dir).ok());
}

TEST(FileUtilTest, MissingFileIsIOError) {
  EXPECT_FALSE(ReadFileToString("/nonexistent/nope").ok());
  EXPECT_FALSE(FileExists("/nonexistent/nope"));
}

TEST(FileUtilTest, AppendAndList) {
  auto dir = MakeTempDir("saga_file_test2");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(AppendToFile(JoinPath(*dir, "b.txt"), "1").ok());
  ASSERT_TRUE(AppendToFile(JoinPath(*dir, "b.txt"), "2").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(*dir, "a.txt"), "x").ok());
  auto listing = ListDir(*dir);
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(*listing, (std::vector<std::string>{"a.txt", "b.txt"}));
  auto content = ReadFileToString(JoinPath(*dir, "b.txt"));
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "12");
  EXPECT_TRUE(RemoveDirRecursively(*dir).ok());
}

TEST(FileUtilTest, JoinPathHandlesSlashes) {
  EXPECT_EQ(JoinPath("/a/b", "c"), "/a/b/c");
  EXPECT_EQ(JoinPath("/a/b/", "c"), "/a/b/c");
  EXPECT_EQ(JoinPath("", "c"), "c");
}

// ---------- Metrics ----------

TEST(MetricsTest, HistogramPercentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Min(), 1.0);
  EXPECT_DOUBLE_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(h.Percentile(99), 99.01, 0.1);
  EXPECT_NEAR(h.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.Percentile(100), 100.0, 1e-9);
}

TEST(MetricsTest, EmptyHistogramIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(MetricsTest, MergeCombinesSamples) {
  Histogram a;
  Histogram b;
  a.Add(1.0);
  b.Add(3.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.Mean(), 2.0);
}

TEST(MetricsTest, StopwatchAdvances) {
  Stopwatch sw;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(sw.ElapsedMillis(), 1.0);
  sw.Reset();
  EXPECT_LT(sw.ElapsedMillis(), 5.0);
}

// ---------- ThreadPool ----------

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  ThreadPool pool(0);
  int counter = 0;
  pool.Submit([&counter] { ++counter; });
  EXPECT_EQ(counter, 1);
  pool.Wait();  // no-op
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndexes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(200);
  ParallelFor(&pool, hits.size(), [&hits](size_t i) {
    hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForNullPoolIsSerial) {
  std::vector<int> hits(50, 0);
  ParallelFor(nullptr, hits.size(), [&hits](size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// ---------- RetryPolicy backoff bounds ----------

TEST(RetryPolicyTest, BackoffStaysWithinJitterBounds) {
  RetryPolicy::Options opts;
  opts.initial_backoff_ms = 2.0;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_ms = 50.0;
  opts.jitter_fraction = 0.2;
  RetryPolicy policy(opts);

  // Exponential base: 2, 4, 8, ... capped at 50; jitter of +/-20%
  // around each. Every draw must land inside [base*0.8, base*1.2].
  for (int round = 0; round < 50; ++round) {
    double base = opts.initial_backoff_ms;
    for (int attempt = 1; attempt <= 8; ++attempt) {
      const double backoff = policy.BackoffMs(attempt);
      EXPECT_GE(backoff, base * (1.0 - opts.jitter_fraction))
          << "attempt " << attempt;
      EXPECT_LE(backoff, base * (1.0 + opts.jitter_fraction))
          << "attempt " << attempt;
      base = std::min(base * opts.backoff_multiplier, opts.max_backoff_ms);
    }
  }
}

TEST(RetryPolicyTest, BackoffCapsAtMax) {
  RetryPolicy::Options opts;
  opts.initial_backoff_ms = 1.0;
  opts.backoff_multiplier = 10.0;
  opts.max_backoff_ms = 25.0;
  opts.jitter_fraction = 0.0;  // exact values
  RetryPolicy policy(opts);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 1.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2), 10.0);
  // 100 and 1000 both clamp to the cap.
  EXPECT_DOUBLE_EQ(policy.BackoffMs(3), 25.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(4), 25.0);
}

TEST(RetryPolicyTest, JitterIsAppliedAndSeedDeterministic) {
  RetryPolicy::Options opts;
  opts.initial_backoff_ms = 10.0;
  opts.jitter_fraction = 0.5;
  opts.jitter_seed = 7;

  // With jitter on, repeated draws for the same attempt differ (the
  // point of jitter is to decorrelate retry storms)...
  RetryPolicy jittered(opts);
  std::set<double> draws;
  for (int i = 0; i < 20; ++i) draws.insert(jittered.BackoffMs(1));
  EXPECT_GT(draws.size(), 1u);

  // ...but the whole sequence is reproducible for a fixed seed.
  RetryPolicy a(opts), b(opts);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(a.BackoffMs(1 + i % 4), b.BackoffMs(1 + i % 4));
  }
}

TEST(RetryPolicyTest, SleepScheduleMatchesBackoffBounds) {
  RetryPolicy::Options opts;
  opts.max_attempts = 4;
  opts.initial_backoff_ms = 2.0;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_ms = 50.0;
  opts.jitter_fraction = 0.25;
  std::vector<double> slept;
  RetryPolicy policy(opts, [&](double ms) { slept.push_back(ms); });

  int calls = 0;
  const Status s = policy.Run("unit.op", [&] {
    ++calls;
    return Status::IOError("transient");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, opts.max_attempts);
  // One sleep between consecutive attempts, none after the last.
  ASSERT_EQ(slept.size(), 3u);
  double base = opts.initial_backoff_ms;
  for (double ms : slept) {
    EXPECT_GE(ms, base * (1.0 - opts.jitter_fraction));
    EXPECT_LE(ms, base * (1.0 + opts.jitter_fraction));
    base = std::min(base * opts.backoff_multiplier, opts.max_backoff_ms);
  }
  EXPECT_EQ(policy.total_retries(), 3u);
}

TEST(RetryPolicyTest, NonRetryableStatusStopsImmediately) {
  std::vector<double> slept;
  RetryPolicy policy({}, [&](double ms) { slept.push_back(ms); });
  int calls = 0;
  const Status s = policy.Run("unit.op", [&] {
    ++calls;
    return Status::Corruption("permanent");
  });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
}

TEST(RetryPolicyTest, RetryableSetIsPinned) {
  // The complete retryable set: IOError and ResourceExhausted, nothing
  // else. Growing this set is a deliberate decision (it changes how
  // every storage and serving retry loop behaves), so the test walks
  // the whole StatusCode enum rather than spot-checking.
  const StatusCode all[] = {
      StatusCode::kOk,           StatusCode::kNotFound,
      StatusCode::kInvalidArgument, StatusCode::kAlreadyExists,
      StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
      StatusCode::kResourceExhausted, StatusCode::kIOError,
      StatusCode::kCorruption,   StatusCode::kUnimplemented,
      StatusCode::kInternal,     StatusCode::kDeadlineExceeded,
      StatusCode::kUnavailable,  StatusCode::kDataLoss,
  };
  for (StatusCode code : all) {
    const Status s(code, "x");
    const bool expect_retryable = code == StatusCode::kIOError ||
                                  code == StatusCode::kResourceExhausted;
    EXPECT_EQ(RetryPolicy::IsRetryable(s), expect_retryable)
        << StatusCodeToString(code);
    EXPECT_EQ(RetryPolicy::NeverRetryable(s), code == StatusCode::kDataLoss)
        << StatusCodeToString(code);
  }

  // Origins tighten the set on top of codes: the same StatusCode flips
  // to permanent when it came from a full disk or a failed fsync.
  // kStorageExhausted: retrying cannot free space, only reclaim can.
  // kFsyncGate: a re-fsynced fd can claim success for dropped pages.
  const Status full_disk = Status::StorageExhausted("disk full");
  EXPECT_EQ(full_disk.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(RetryPolicy::NeverRetryable(full_disk));
  EXPECT_FALSE(RetryPolicy::IsRetryable(full_disk));
  const Status gated = Status::FsyncGate("fsync failed");
  EXPECT_EQ(gated.code(), StatusCode::kIOError);
  EXPECT_TRUE(RetryPolicy::NeverRetryable(gated));
  EXPECT_FALSE(RetryPolicy::IsRetryable(gated));
  // Origin-free variants of the same codes stay retryable.
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::ResourceExhausted("queue")));
  EXPECT_TRUE(RetryPolicy::IsRetryable(Status::IOError("transient")));
}

TEST(RetryPolicyTest, DataLossIsNeverRetriedEvenWithCustomPredicate) {
  RetryPolicy::Options opts;
  opts.max_attempts = 5;
  std::vector<double> slept;
  RetryPolicy policy(opts, [&](double ms) { slept.push_back(ms); });
  int calls = 0;
  // A predicate that claims everything is retryable must still lose to
  // the kDataLoss hard gate: re-reading rotten media returns the same
  // bytes, and retry loops hide real data loss from the caller.
  const Status s = policy.Run(
      "unit.op",
      [&] {
        ++calls;
        return Status::DataLoss("crc mismatch");
      },
      [](const Status&) { return true; });
  EXPECT_TRUE(s.IsDataLoss());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
  EXPECT_EQ(policy.total_retries(), 0u);
}

TEST(RetryPolicyTest, PartitionedReplicaUnavailableRespectsBreakerGate) {
  // The shape a replication client sees during a partition: every call
  // to the cut-off replica answers Unavailable. Even a caller whose
  // custom predicate insists Unavailable is worth retrying must stop
  // the moment the breaker trips — retrying into a partition only
  // delays the failover the detector exists to trigger.
  uint64_t fake_now = 0;
  CircuitBreaker::Options bopts;
  bopts.failure_threshold = 2;
  bopts.open_ms = 1e9;  // stays open for the whole test
  bopts.now_ns = [&] { return fake_now; };
  CircuitBreaker breaker("common.breaker.partitioned_replica", bopts);

  RetryPolicy::Options opts;
  opts.max_attempts = 10;
  std::vector<double> slept;
  RetryPolicy policy(opts, [&](double ms) { slept.push_back(ms); });

  // The replica's own Unavailable is never retried through a breaker,
  // even by a predicate that insists it should be: the loop cannot
  // tell dependency unavailability from breaker fast-fail, and both
  // mean "stop calling". One call, no sleeps.
  int calls = 0;
  const Status s = policy.Run(
      "replication.ship",
      [&] {
        ++calls;
        return Status::Unavailable("replica partitioned");
      },
      &breaker,
      [](const Status& st) { return st.IsUnavailable(); });
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());

  // Link errors (IOError) ARE retryable — but only until the breaker
  // trips: exactly failure_threshold calls reach the dependency, then
  // Allow() short-circuits the remaining attempts.
  int io_calls = 0;
  const Status io = policy.Run(
      "replication.ship",
      [&] {
        ++io_calls;
        return Status::IOError("link reset");
      },
      &breaker);
  EXPECT_TRUE(io.IsUnavailable()) << io.ToString();  // breaker fast-fail
  EXPECT_EQ(io_calls, 2);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // The open breaker fails fast without invoking the op at all.
  const Status fast = policy.Run(
      "replication.ship",
      [&] {
        ++io_calls;
        return Status::IOError("link reset");
      },
      &breaker);
  EXPECT_TRUE(fast.IsUnavailable());
  EXPECT_EQ(io_calls, 2);

  // And the kDataLoss hard gate still outranks the breaker path: one
  // call, no retries, even with the widest predicate.
  CircuitBreaker fresh("common.breaker.partitioned_replica_fresh", bopts);
  int dl_calls = 0;
  const Status dl = policy.Run(
      "replication.ship",
      [&] {
        ++dl_calls;
        return Status::DataLoss("diverged beyond repair");
      },
      &fresh, [](const Status&) { return true; });
  EXPECT_TRUE(dl.IsDataLoss());
  EXPECT_EQ(dl_calls, 1);
}

}  // namespace
}  // namespace saga
