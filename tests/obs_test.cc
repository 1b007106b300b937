// Tests for the saga::obs observability subsystem: thread-safe metric
// primitives, span-tree tracing, traced stages, export formats, and the
// per-run Histogram's read contract. The multi-threaded cases are meant
// to run under the `tsan` CMake preset as well as asan-ubsan (see
// CMakePresets.json).

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/health_section.h"
#include "common/history.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/slo.h"
#include "common/trace.h"
#include "storage/kv_store.h"

namespace saga {
namespace {

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().ResetAll();
    obs::ClearTraces();
    obs::SetTracingEnabled(false);
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::ClearTraces();
    obs::Registry::Global().ResetAll();
  }
};

// ---------- Counter ----------

TEST_F(ObsTest, CounterConcurrentIncrements) {
  obs::Counter& c = SAGA_COUNTER("test.counter.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), int64_t{kThreads} * kPerThread);
}

TEST_F(ObsTest, CounterDeltaAndReset) {
  obs::Counter& c = SAGA_COUNTER("test.counter.delta");
  c.Add(5);
  c.Add(-2);
  EXPECT_EQ(c.Value(), 3);
  c.Reset();
  EXPECT_EQ(c.Value(), 0);
}

TEST_F(ObsTest, DisabledCounterIsNoop) {
  obs::Counter& c = SAGA_COUNTER("test.counter.disabled");
  obs::SetEnabled(false);
  c.Add(100);
  obs::SetEnabled(true);
  EXPECT_EQ(c.Value(), 0);
  c.Add(1);
  EXPECT_EQ(c.Value(), 1);
}

TEST_F(ObsTest, MacroReturnsSameInstance) {
  EXPECT_EQ(&SAGA_COUNTER("test.counter.same"),
            &obs::Registry::Global().counter("test.counter.same"));
}

// ---------- Gauge ----------

TEST_F(ObsTest, GaugeSetAndRead) {
  obs::Gauge& g = SAGA_GAUGE("test.gauge.basic");
  g.Set(0.75);
  EXPECT_DOUBLE_EQ(g.Value(), 0.75);
  g.Set(-3.5);
  EXPECT_DOUBLE_EQ(g.Value(), -3.5);
}

TEST_F(ObsTest, GaugeConcurrentWritesLandOnOneValue) {
  obs::Gauge& g = SAGA_GAUGE("test.gauge.concurrent");
  std::vector<std::thread> threads;
  for (int t = 1; t <= 4; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < 10000; ++i) g.Set(static_cast<double>(t));
    });
  }
  for (auto& t : threads) t.join();
  const double v = g.Value();
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, 4.0);
}

// ---------- LatencyHistogram ----------

TEST_F(ObsTest, LatencyBucketBoundsRoundTrip) {
  // Every value must land in a bucket whose [lower, next-lower) range
  // contains it.
  for (uint64_t v :
       {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{4}, uint64_t{7},
        uint64_t{100}, uint64_t{1023}, uint64_t{65536}, uint64_t{999999999}}) {
    const int idx = obs::LatencyHistogram::BucketFor(v);
    EXPECT_GE(v, obs::LatencyHistogram::BucketLowerNs(idx)) << v;
    if (idx + 1 < obs::LatencyHistogram::kNumBuckets) {
      EXPECT_LT(v, obs::LatencyHistogram::BucketLowerNs(idx + 1)) << v;
    }
  }
}

TEST_F(ObsTest, LatencyPercentilesWithinBucketError) {
  obs::LatencyHistogram& h = SAGA_LATENCY("test.latency.percentiles_ns");
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<uint64_t>(i * 1000));
  EXPECT_EQ(h.Count(), 1000u);
  EXPECT_EQ(h.SumNs(), uint64_t{500500} * 1000);
  // Log-scale buckets guarantee <= 25% relative error.
  EXPECT_NEAR(h.PercentileNs(50), 500e3, 0.25 * 500e3);
  EXPECT_NEAR(h.PercentileNs(99), 990e3, 0.25 * 990e3);
  EXPECT_NEAR(h.MeanNs(), 500.5e3, 1.0);
}

TEST_F(ObsTest, LatencyConcurrentRecords) {
  obs::LatencyHistogram& h = SAGA_LATENCY("test.latency.concurrent_ns");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(static_cast<uint64_t>(100 + t));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.Count(), uint64_t{kThreads} * kPerThread);
}

// ---------- Tracing ----------

TEST_F(ObsTest, SpanTreeNesting) {
  obs::SetTracingEnabled(true);
  {
    obs::ScopedSpan root("test.span.root");
    {
      obs::ScopedSpan child("test.span.child");
      obs::ScopedSpan grandchild("test.span.grandchild");
    }
    obs::ScopedSpan sibling("test.span.child");
  }
  ASSERT_EQ(obs::NumCollectedTraces(), 1u);
  const auto stats = obs::AggregateSpans();
  ASSERT_EQ(stats.size(), 3u);
  // Root has the largest inclusive time and sorts first.
  EXPECT_EQ(stats[0].name, "test.span.root");
  EXPECT_EQ(stats[0].count, 1u);
  // The two "child" spans aggregate under one name.
  bool found_child = false;
  for (const auto& s : stats) {
    if (s.name == "test.span.child") {
      EXPECT_EQ(s.count, 2u);
      found_child = true;
      // Exclusive excludes the grandchild's time.
      EXPECT_LE(s.exclusive_ns, s.inclusive_ns);
    }
  }
  EXPECT_TRUE(found_child);
}

TEST_F(ObsTest, SpansDisabledCollectNothing) {
  {
    obs::ScopedSpan span("test.span.disabled");
  }
  EXPECT_EQ(obs::NumCollectedTraces(), 0u);
  EXPECT_EQ(obs::AggregateSpans().size(), 0u);
}

TEST_F(ObsTest, ConcurrentRootSpansPerThread) {
  obs::SetTracingEnabled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 100; ++i) {
        obs::ScopedSpan outer("test.span.thread_outer");
        obs::ScopedSpan inner("test.span.thread_inner");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::NumCollectedTraces(), uint64_t{kThreads} * 100);
  for (const auto& s : obs::AggregateSpans()) {
    EXPECT_EQ(s.count, uint64_t{kThreads} * 100) << s.name;
  }
}

TEST_F(ObsTest, ChromeTraceJsonShape) {
  obs::SetTracingEnabled(true);
  {
    obs::ScopedSpan root("test.span.chrome_root");
    obs::ScopedSpan child("test.span.chrome_child");
  }
  const std::string json = obs::ChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span.chrome_root\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.span.chrome_child\""),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObsTest, SpanReportListsAllNames) {
  obs::SetTracingEnabled(true);
  {
    obs::ScopedSpan root("test.span.report_root");
    obs::ScopedSpan child("test.span.report_child");
  }
  const std::string report = obs::SpanReport();
  EXPECT_NE(report.find("test.span.report_root"), std::string::npos);
  EXPECT_NE(report.find("test.span.report_child"), std::string::npos);
  EXPECT_NE(report.find("incl ms"), std::string::npos);
}

// ---------- Traced stages ----------

/// What one timed region left behind: spans named `span` (and whether
/// each nests under "test.stage.outer"), plus samples in `hist`.
struct StageTrail {
  uint64_t spans = 0;
  uint64_t nested = 0;
  uint64_t samples = 0;
  bool operator==(const StageTrail&) const = default;
};

StageTrail TrailOf(const std::string& span, obs::LatencyHistogram& hist) {
  StageTrail trail;
  obs::VisitCollectedTraces([&](const obs::SpanNode& root) {
    if (root.name == span) ++trail.spans;
    for (const auto& child : root.children) {
      if (child->name == span) {
        ++trail.spans;
        if (root.name == "test.stage.outer") ++trail.nested;
      }
    }
  });
  trail.samples = hist.Count();
  return trail;
}

TEST_F(ObsTest, StageMatchesSpanPlusLatencyAcrossSwitches) {
  for (const bool obs_on : {false, true}) {
    for (const bool tracing_on : {false, true}) {
      SCOPED_TRACE(testing::Message() << "obs " << obs_on << " tracing "
                                      << tracing_on);
      for (const bool nested : {false, true}) {
        obs::Registry::Global().ResetAll();
        obs::ClearTraces();
        obs::SetEnabled(obs_on);
        obs::SetTracingEnabled(tracing_on);
        {
          std::optional<obs::ScopedSpan> outer;
          if (nested) outer.emplace("test.stage.outer");
          obs::ScopedSpan span("test.stage.pair");
          obs::ScopedLatency timer(SAGA_LATENCY("test.stage.pair_ns"));
        }
        {
          std::optional<obs::ScopedSpan> outer;
          if (nested) outer.emplace("test.stage.outer");
          auto stage = SAGA_STAGE("test.stage.single");
        }
        const StageTrail pair =
            TrailOf("test.stage.pair", SAGA_LATENCY("test.stage.pair_ns"));
        const StageTrail single = TrailOf(
            "test.stage.single", SAGA_LATENCY("test.stage.single_ns"));
        EXPECT_EQ(single, pair) << "nested " << nested;
        EXPECT_EQ(single.spans, tracing_on ? 1u : 0u);
        EXPECT_EQ(single.nested, tracing_on && nested ? 1u : 0u);
        EXPECT_EQ(single.samples, obs_on ? 1u : 0u);
      }
    }
  }
  obs::SetEnabled(true);
}

TEST_F(ObsTest, StageSampleAndSpanShareOneClockPair) {
  obs::SetTracingEnabled(true);
  obs::LatencyHistogram& hist = SAGA_LATENCY("test.stage.exemplar_ns");
  for (int i = 0; i < 20; ++i) {
    hist.Reset();
    obs::ClearTraces();
    {
      // The stage starts its own trace: closing its span clears the
      // thread's trace context, so only a sample recorded first keeps
      // the trace id.
      auto stage = SAGA_STAGE("test.stage.exemplar");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    const obs::Exemplar ex = hist.exemplar();
    ASSERT_TRUE(ex.valid()) << "iteration " << i;
    ASSERT_EQ(obs::NumCollectedTraces(), 1u);
    obs::VisitCollectedTraces([&](const obs::SpanNode& root) {
      EXPECT_EQ(root.name, "test.stage.exemplar");
      EXPECT_EQ(ex.ns, root.duration_ns) << "iteration " << i;
      EXPECT_EQ(ex.trace_id_hi, root.trace_id_hi);
      EXPECT_EQ(ex.trace_id_lo, root.trace_id_lo);
    });
  }
}

TEST_F(ObsTest, ConcurrentStagesRecordEverySpanAndSample) {
  obs::SetTracingEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        auto stage = SAGA_STAGE("test.stage.concurrent");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::NumCollectedTraces(), uint64_t{kThreads} * kPerThread);
  EXPECT_EQ(SAGA_LATENCY("test.stage.concurrent_ns").Count(),
            uint64_t{kThreads} * kPerThread);
}

// ---------- Export formats ----------

TEST_F(ObsTest, PrometheusExportGolden) {
  SAGA_COUNTER("test.export.hits").Add(42);
  SAGA_GAUGE("test.export.ratio").Set(0.5);
  SAGA_LATENCY("test.export.lat_ns").Record(1000);
  const std::string dump = obs::DumpAll(obs::DumpFormat::kPrometheus);
  EXPECT_NE(dump.find("# TYPE saga_test_export_hits counter\n"
                      "saga_test_export_hits 42\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("# TYPE saga_test_export_ratio gauge\n"
                      "saga_test_export_ratio 0.5\n"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("saga_test_export_lat_ns_count 1\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("saga_test_export_lat_ns_sum 1000\n"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("saga_test_export_lat_ns{quantile=\"0.50\"}"),
            std::string::npos)
      << dump;
}

TEST_F(ObsTest, JsonExportGolden) {
  SAGA_COUNTER("test.export.hits").Add(7);
  SAGA_LATENCY("test.export.lat_ns").Record(2000);
  const std::string dump = obs::DumpAll(obs::DumpFormat::kJson);
  EXPECT_EQ(dump.front(), '{');
  EXPECT_EQ(dump.back(), '}');
  EXPECT_NE(dump.find("\"test.export.hits\":7"), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"test.export.lat_ns\":{\"count\":1,\"sum\":2000"),
            std::string::npos)
      << dump;
}

// ---------- Per-run Histogram contract ----------

TEST_F(ObsTest, HistogramSnapshotConcurrentReadsAreSafe) {
  // Regression for the mutable-lazy-sort footgun: after writes
  // quiesce, many threads may read percentiles concurrently. Under
  // tsan the old implementation raced here (EnsureSorted mutated
  // `mutable` state from const accessors).
  Histogram h;
  for (int i = 1000; i >= 1; --i) h.Add(static_cast<double>(i));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&h, &failures] {
      for (int i = 0; i < 200; ++i) {
        if (h.Percentile(50) != 500.5) failures.fetch_add(1);
        if (h.Min() != 1.0) failures.fetch_add(1);
        if (h.Max() != 1000.0) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------- History ----------

TEST_F(ObsTest, HistoryRingWrapsAndWindowClamps) {
  obs::History h(4);
  obs::Counter& c = SAGA_COUNTER("test.history.ops");
  for (int i = 1; i <= 10; ++i) {
    c.Add(5);
    h.CaptureAt(int64_t{i} * 1000, uint64_t{static_cast<uint64_t>(i)} *
                                       1'000'000'000ull);
  }
  // Only the newest `capacity` snapshots survive the wraparound.
  EXPECT_EQ(h.size(), 4u);
  EXPECT_EQ(h.At(0).unix_ms, 7000);
  EXPECT_EQ(h.Latest().unix_ms, 10000);
  // 3 retained intervals of +5 each; a huge window clamps to the ring.
  EXPECT_EQ(h.DeltaOver("test.history.ops", 3), 15);
  EXPECT_EQ(h.DeltaOver("test.history.ops", 100), 15);
  EXPECT_DOUBLE_EQ(h.RatePerSec("test.history.ops", 3), 5.0);
  // One interval: just the newest pair.
  EXPECT_EQ(h.DeltaOver("test.history.ops", 1), 5);
}

TEST_F(ObsTest, HistoryRateSurvivesCounterReset) {
  obs::History h(8);
  obs::Counter& c = SAGA_COUNTER("test.history.reset");
  c.Add(10);
  h.CaptureAt(1000, 1'000'000'000ull);
  c.Add(5);
  h.CaptureAt(2000, 2'000'000'000ull);
  // A registry reset between captures must degrade to "seen since
  // reset", not wrap around as a giant unsigned delta.
  obs::Registry::Global().ResetAll();
  c.Add(2);
  h.CaptureAt(3000, 3'000'000'000ull);
  EXPECT_EQ(h.DeltaOver("test.history.reset", 2), 7);  // 5 + 2
  EXPECT_DOUBLE_EQ(h.RatePerSec("test.history.reset", 2), 3.5);
}

TEST_F(ObsTest, HistoryWindowPercentilesFromPairDeltas) {
  obs::History h(8);
  obs::LatencyHistogram& lat = SAGA_LATENCY("test.history.lat_ns");
  h.CaptureAt(1000, 1'000'000'000ull);
  for (int i = 0; i < 100; ++i) lat.Record(1000);
  h.CaptureAt(2000, 2'000'000'000ull);
  for (int i = 0; i < 100; ++i) lat.Record(1'000'000);
  h.CaptureAt(3000, 3'000'000'000ull);
  // Newest interval only: the slow batch.
  EXPECT_EQ(h.CountOverWindow("test.history.lat_ns", 1), 100u);
  EXPECT_NEAR(h.PercentileOverWindowNs("test.history.lat_ns", 50, 1), 1e6,
              0.25 * 1e6);
  // Both intervals: mixed distribution, count adds up.
  EXPECT_EQ(h.CountOverWindow("test.history.lat_ns", 2), 200u);
  const std::string report = h.Report();
  EXPECT_NE(report.find("test.history.lat_ns"), std::string::npos);
}

// ---------- SLO watchdog ----------

TEST_F(ObsTest, SloAvailabilityBurnAndGaugeExport) {
  obs::History h(8);
  obs::Counter& good = SAGA_COUNTER("test.slo.good");
  obs::Counter& bad = SAGA_COUNTER("test.slo.bad");
  h.CaptureAt(1000, 1'000'000'000ull);
  good.Add(90);
  bad.Add(10);
  h.CaptureAt(2000, 2'000'000'000ull);

  obs::SloSpec spec;
  spec.name = "test_write";
  spec.good_counter = "test.slo.good";
  spec.error_counter = "test.slo.bad";
  spec.availability_target = 0.999;
  const obs::SloWatchdog watchdog({spec});
  const auto verdicts = watchdog.Evaluate(h, 4);
  ASSERT_EQ(verdicts.size(), 1u);
  // 10% errors against a 0.1% budget: burning 100x.
  EXPECT_NEAR(verdicts[0].availability_burn, 100.0, 1.0);
  EXPECT_FALSE(verdicts[0].ok);
  EXPECT_EQ(verdicts[0].error_delta, 10);
  // Exported as the machine-readable alert surface.
  EXPECT_GT(obs::Registry::Global()
                .gauge("obs.slo.test_write_availability_burn")
                .Value(),
            1.0);
  EXPECT_DOUBLE_EQ(
      obs::Registry::Global().gauge("obs.slo.test_write_ok").Value(), 0.0);
}

TEST_F(ObsTest, SloDelayInjectionFlipsBurnGaugeWithinOneWindow) {
  // Acceptance scenario: a kDelay fault on kv.read must flip the
  // obs.slo.kv_read_* gauges within one history window.
  auto dir = MakeTempDir("saga_slo_test");
  ASSERT_TRUE(dir.ok());
  auto store = storage::KvStore::Open(*dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());

  obs::History h(8);
  h.Capture();
  Faults().InjectDelay("kv.read", 20.0);  // 4x the 5ms p99 target
  for (int i = 0; i < 4; ++i) {
    RequestContext ctx;
    EXPECT_TRUE((*store)->Get("k", ctx).ok());
  }
  Faults().DisarmAll();
  h.Capture();

  const obs::SloWatchdog watchdog(obs::DefaultPlatformSlos());
  const auto verdicts = watchdog.Evaluate(h, 4);
  bool found = false;
  for (const auto& v : verdicts) {
    if (v.name != "kv_read") continue;
    found = true;
    EXPECT_GT(v.latency_burn, 1.0);
    EXPECT_FALSE(v.ok);
    EXPECT_GT(v.window_p99_ms, 5.0);
  }
  EXPECT_TRUE(found);
  EXPECT_GT(
      obs::Registry::Global().gauge("obs.slo.kv_read_latency_burn").Value(),
      1.0);
  EXPECT_DOUBLE_EQ(
      obs::Registry::Global().gauge("obs.slo.kv_read_ok").Value(), 0.0);
  (void)RemoveDirRecursively(*dir);
}

// ---------- HealthSection ----------

TEST_F(ObsTest, HealthSectionStableOrderTextAndJson) {
  obs::HealthSection section("demo");
  section.Row("zeta", int64_t{2});
  section.Row("alpha", "fine");
  section.Row("mid", 0.5, 2);
  section.Row("flag", true);
  section.Note("a note");
  const std::string text = section.Text();
  // Rows come out key-sorted regardless of insertion order.
  const size_t a = text.find("alpha");
  const size_t f = text.find("flag");
  const size_t m = text.find("mid");
  const size_t z = text.find("zeta");
  ASSERT_NE(a, std::string::npos);
  EXPECT_LT(a, f);
  EXPECT_LT(f, m);
  EXPECT_LT(m, z);
  EXPECT_NE(text.find("== demo =="), std::string::npos);
  EXPECT_NE(text.find("a note"), std::string::npos);

  const std::string json =
      obs::RenderHealthJson({section, obs::HealthSection("empty")});
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  // Typed JSON: numbers and bools unquoted, strings quoted.
  EXPECT_NE(json.find("\"alpha\":\"fine\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"zeta\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"flag\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"empty\":{}"), std::string::npos) << json;
}

// ---------- Logging ----------

TEST_F(ObsTest, ParseLogLevelNamesAndDigits) {
  EXPECT_EQ(ParseLogLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(ParseLogLevel("INFO"), LogLevel::kInfo);
  EXPECT_EQ(ParseLogLevel("Warning"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("warn"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("error"), LogLevel::kError);
  EXPECT_EQ(ParseLogLevel("2"), LogLevel::kWarning);
  EXPECT_EQ(ParseLogLevel("bogus"), std::nullopt);
}

TEST_F(ObsTest, MonotonicClockAdvances) {
  const uint64_t a = obs::MonotonicNowNs();
  const uint64_t b = obs::MonotonicNowNs();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace saga
