// Microbenchmark for the observability subsystem's own overhead: the
// ISSUE-3 acceptance budget is < ~20 ns per hot-path counter increment
// (enabled), and near-zero when the subsystem is disabled. Results are
// recorded in EXPERIMENTS.md ("Observability overhead").
//
// `--gate` turns the run into a CI smoke gate: the tracing-off span
// must stay within a pinned ratio of an enabled counter increment (the
// "tracing is free when off" contract), the tracing-on span within a
// pinned ratio of the off cost, SAGA_STAGE within a pinned ratio of
// the primitives it replaces (ScopedLatency with tracing off; a
// ScopedSpan plus a ScopedLatency with tracing on), and
// History::Capture within an absolute per-snapshot budget. Exits
// non-zero on violation.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/history.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/trace_sampler.h"

namespace {

constexpr int64_t kIters = 20'000'000;

double NsPerOp(const saga::Stopwatch& sw, int64_t iters) {
  return sw.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

/// Best of three timings of `iters` calls of `body`, dropping collected
/// spans after each. The stage rows are gated as ratios against rows
/// timed the same way, and the minimum filters scheduler noise.
template <typename Body>
double BestNsPerOp(int64_t iters, Body body) {
  double best = 0;
  for (int round = 0; round < 3; ++round) {
    saga::Stopwatch sw;
    for (int64_t i = 0; i < iters; ++i) body();
    const double ns = NsPerOp(sw, iters);
    if (round == 0 || ns < best) best = ns;
    saga::obs::ClearTraces();
  }
  return best;
}

// Gate thresholds. Ratios (not raw nanoseconds) so the gate holds on
// slow shared CI runners; the absolute caps are a generous backstop
// against pathological regressions (an accidental mutex or syscall on
// the hot path blows through them on any machine).
constexpr double kMaxSpanOffVsCounterRatio = 10.0;  // off-span ~ 1 load
constexpr double kMaxSpanOffAbsNs = 50.0;
constexpr double kMaxSpanOnVsOffRatio = 500.0;  // alloc + clock + collect
constexpr double kMaxSpanOnAbsNs = 20'000.0;
constexpr double kMaxCounterAbsNs = 100.0;
constexpr double kMaxCaptureAbsNs = 5'000'000.0;  // 5 ms per snapshot
// SAGA_STAGE vs the primitives it replaces, measured in one process:
// about 4x the measured ratios (1.05 off, 0.68 on), the headroom of the
// tightest gate above (sampler-routed spans: 500x, measured 98-120x).
constexpr double kMaxStageOffVsLatencyRatio = 4.0;
constexpr double kMaxStageOnVsPairRatio = 2.75;

int gate_status = 0;

void Gate(const char* what, double value, double limit) {
  const bool ok = value <= limit;
  std::printf("gate %-38s %10.2f <= %10.2f  %s\n", what, value, limit,
              ok ? "PASS" : "FAIL");
  if (!ok) gate_status = 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saga;
  using bench::Fmt;
  using bench::Table;

  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  std::printf("Observability hot-path overhead (%lld iterations/row)\n\n",
              static_cast<long long>(kIters));
  Table t({"operation", "state", "ns/op"});

  obs::Counter& counter = SAGA_COUNTER("bench.obs.counter");
  obs::Gauge& gauge = SAGA_GAUGE("bench.obs.gauge");
  obs::LatencyHistogram& lat = SAGA_LATENCY("bench.obs.latency_ns");

  // Enabled counter increment — the budgeted hot path.
  obs::SetEnabled(true);
  double counter_on_ns = 0;
  {
    Stopwatch sw;
    for (int64_t i = 0; i < kIters; ++i) counter.Add();
    counter_on_ns = NsPerOp(sw, kIters);
    t.AddRow({"Counter::Add", "enabled", Fmt(counter_on_ns, 2)});
  }
  // Disabled: one relaxed load, then return.
  obs::SetEnabled(false);
  {
    Stopwatch sw;
    for (int64_t i = 0; i < kIters; ++i) counter.Add();
    t.AddRow({"Counter::Add", "disabled", Fmt(NsPerOp(sw, kIters), 2)});
  }
  obs::SetEnabled(true);
  {
    Stopwatch sw;
    for (int64_t i = 0; i < kIters; ++i) gauge.Set(static_cast<double>(i));
    t.AddRow({"Gauge::Set", "enabled", Fmt(NsPerOp(sw, kIters), 2)});
  }
  {
    Stopwatch sw;
    for (int64_t i = 0; i < kIters; ++i) {
      lat.Record(static_cast<uint64_t>(i & 0xffff));
    }
    t.AddRow({"LatencyHistogram::Record", "enabled",
              Fmt(NsPerOp(sw, kIters), 2)});
  }
  // ScopedLatency adds two steady_clock reads on top of Record.
  const double latency_ns =
      BestNsPerOp(kIters / 10, [&] { obs::ScopedLatency timer(lat); });
  t.AddRow({"ScopedLatency (2 clock reads)", "enabled", Fmt(latency_ns, 2)});
  // Spans: disabled tracing is the common serving configuration.
  obs::SetTracingEnabled(false);
  // A stage with tracing off is a ScopedLatency behind one more
  // tracing check.
  const double stage_off_ns = BestNsPerOp(
      kIters / 10, [] { auto stage = SAGA_STAGE("bench.obs.stage"); });
  t.AddRow({"SAGA_STAGE", "tracing off", Fmt(stage_off_ns, 2)});
  double span_off_ns = 0;
  {
    Stopwatch sw;
    for (int64_t i = 0; i < kIters; ++i) {
      obs::ScopedSpan span("bench.obs.span");
    }
    span_off_ns = NsPerOp(sw, kIters);
    t.AddRow({"ScopedSpan", "tracing off", Fmt(span_off_ns, 2)});
  }
  obs::SetTracingEnabled(true);
  double span_on_ns = 0;
  {
    constexpr int64_t kSpanIters = 1'000'000;
    Stopwatch sw;
    for (int64_t i = 0; i < kSpanIters; ++i) {
      obs::ScopedSpan span("bench.obs.span");
    }
    span_on_ns = NsPerOp(sw, kSpanIters);
    t.AddRow({"ScopedSpan (alloc + collect)", "tracing on",
              Fmt(span_on_ns, 2)});
    obs::ClearTraces();
  }
  // The pair SAGA_STAGE replaces (four clock reads) against the stage
  // (two).
  constexpr int64_t kStageIters = 1'000'000;
  const double pair_on_ns = BestNsPerOp(kStageIters, [&] {
    obs::ScopedSpan span("bench.obs.stage");
    obs::ScopedLatency timer(lat);
  });
  t.AddRow({"ScopedSpan + ScopedLatency", "tracing on", Fmt(pair_on_ns, 2)});
  const double stage_on_ns = BestNsPerOp(
      kStageIters, [] { auto stage = SAGA_STAGE("bench.obs.stage"); });
  t.AddRow({"SAGA_STAGE (alloc + collect)", "tracing on",
            Fmt(stage_on_ns, 2)});
  // Spans routed into the tail sampler (serving configuration with
  // sampling on): the fast healthy majority is decided and dropped.
  double span_sampled_ns = 0;
  {
    obs::TraceSampler::Options opts;
    opts.min_samples_for_slow = 1u << 30;  // drop everything
    obs::EnableTailSampling(opts);
    constexpr int64_t kSpanIters = 1'000'000;
    Stopwatch sw;
    for (int64_t i = 0; i < kSpanIters; ++i) {
      obs::ScopedSpan span("bench.obs.span");
    }
    span_sampled_ns = NsPerOp(sw, kSpanIters);
    t.AddRow({"ScopedSpan (tail sampler drop)", "tracing on",
              Fmt(span_sampled_ns, 2)});
    obs::DisableTailSampling();
  }
  obs::SetTracingEnabled(false);

  // History::Capture snapshots the whole registry (this process has
  // the bench metrics registered) — the `top` / SLO-watchdog cadence
  // path, expected to run at ~1 Hz, budgeted in ms not ns.
  double capture_ns = 0;
  {
    obs::History history(128);
    constexpr int64_t kCaptures = 1000;
    Stopwatch sw;
    for (int64_t i = 0; i < kCaptures; ++i) history.Capture();
    capture_ns = NsPerOp(sw, kCaptures);
    t.AddRow({"History::Capture (full registry)", "enabled",
              Fmt(capture_ns / 1000.0, 2) + " us"});
  }

  // Contended counter: all cores hammering one counter exercises the
  // shard padding.
  {
    const unsigned threads = std::min(8u, std::thread::hardware_concurrency());
    const int64_t per_thread = kIters / threads;
    Stopwatch sw;
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i) {
      pool.emplace_back([&] {
        for (int64_t j = 0; j < per_thread; ++j) counter.Add();
      });
    }
    for (auto& th : pool) th.join();
    t.AddRow({"Counter::Add x" + std::to_string(threads) + " threads",
              "enabled", Fmt(NsPerOp(sw, per_thread), 2)});
  }

  t.Print();
  std::printf("counter value (keeps the loops live): %lld\n",
              static_cast<long long>(counter.Value()));

  if (gate) {
    std::printf("\n--- overhead gate ---\n");
    Gate("Counter::Add enabled (abs ns)", counter_on_ns, kMaxCounterAbsNs);
    Gate("ScopedSpan off vs Counter (ratio)", span_off_ns,
         std::max(kMaxSpanOffVsCounterRatio * counter_on_ns,
                  kMaxSpanOffAbsNs));
    Gate("ScopedSpan on vs off (ratio)", span_on_ns,
         std::min(kMaxSpanOnVsOffRatio * std::max(span_off_ns, 1.0),
                  kMaxSpanOnAbsNs));
    Gate("ScopedSpan sampled vs off (ratio)", span_sampled_ns,
         std::min(kMaxSpanOnVsOffRatio * std::max(span_off_ns, 1.0),
                  kMaxSpanOnAbsNs));
    Gate("History::Capture (abs ns)", capture_ns, kMaxCaptureAbsNs);
    Gate("SAGA_STAGE off vs ScopedLatency (ratio)", stage_off_ns,
         kMaxStageOffVsLatencyRatio * latency_ns);
    Gate("SAGA_STAGE on vs span + latency (ratio)", stage_on_ns,
         kMaxStageOnVsPairRatio * pair_on_ns);
    std::printf(gate_status == 0 ? "overhead gate: OK\n"
                                 : "overhead gate: FAILED\n");
  }
  return gate_status;
}
