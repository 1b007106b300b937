// Overload / graceful-degradation bench (DESIGN.md "Overload &
// deadlines"). Three phases over the deadline-aware serving stack
// (admission control -> embedding TopK with ANN breaker + exact
// backup):
//
//   1. unloaded      — single-client baseline latency.
//   2. 2x saturation — twice as many closed-loop clients as the tier
//                      admits, 50/50 high/low priority. Graceful
//                      degradation = high-priority p99 stays within 5x
//                      of unloaded while low-priority traffic is shed
//                      with ResourceExhausted (never queued, never
//                      silently dropped).
//   3. slow ANN      — a 20ms latency fault on `ann.search` makes every
//                      accelerated search blow the slow-call SLO; the
//                      breaker trips, searches fall back to the exact
//                      backup, and after the fault clears the half-open
//                      probe closes the breaker again. Then the same
//                      fault under hedged reads: the hedge pool's queue
//                      stays bounded, searches that find it full shed
//                      to the exact backup, and queued primaries whose
//                      backup already answered skip their search.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "common/request_context.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/admission_controller.h"
#include "serving/embedding_service.h"

namespace saga::bench {
namespace {

struct Stack {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  std::unique_ptr<serving::EmbeddingService> service;
  std::unique_ptr<serving::AdmissionController> admission;
};

Stack BuildStack(int max_concurrent, int low_max) {
  kg::KgGeneratorConfig config;
  config.num_persons = 400;
  config.num_movies = 150;
  config.num_songs = 80;
  config.num_teams = 16;
  config.num_bands = 24;
  config.num_cities = 30;
  Stack s{kg::GenerateKg(config), {}, nullptr, nullptr};
  s.view = graph_engine::GraphView::Build(s.gen.kg,
                                          graph_engine::ViewDefinition());
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 32;
  tc.epochs = 3;
  embedding::InMemoryTrainer trainer(tc);
  embedding::TrainedEmbeddings emb = trainer.Train(s.view);

  serving::EmbeddingService::Options eopts;
  eopts.index = serving::EmbeddingService::IndexKind::kIvf;
  eopts.ivf_lists = 16;
  eopts.enable_breaker = true;
  eopts.breaker.failure_threshold = 3;
  eopts.breaker.open_ms = 200.0;
  eopts.breaker_slow_call_ms = 5.0;
  s.service = std::make_unique<serving::EmbeddingService>(
      embedding::EmbeddingStore::FromTrained(emb, s.view), &s.gen.kg,
      eopts);

  serving::AdmissionController::Options aopts;
  aopts.max_concurrent = max_concurrent;
  aopts.low_priority_max_concurrent = low_max;
  s.admission = std::make_unique<serving::AdmissionController>(aopts);
  return s;
}

struct ClassStats {
  Histogram latency_ms;  // admitted + served requests
  uint64_t served = 0;
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
};

/// One closed-loop client: `attempts` admission attempts back-to-back.
void RunClient(Stack* s, Priority priority, int attempts, uint32_t seed,
               ClassStats* out) {
  for (int i = 0; i < attempts; ++i) {
    RequestContext ctx = RequestContext::WithTimeoutMillis(250.0, priority);
    auto ticket = s->admission->TryAdmit(ctx);
    if (!ticket.ok()) {
      ++out->shed;
      continue;
    }
    const kg::EntityId probe =
        s->view.global_entity((seed + static_cast<uint32_t>(i) * 31) % 400);
    Stopwatch sw;
    auto r = s->service->TopKNeighbors(probe, 10, kg::TypeId::Invalid(), ctx);
    if (r.ok()) {
      out->latency_ms.Add(sw.ElapsedMillis());
      ++out->served;
    } else if (r.status().IsDeadlineExceeded()) {
      ++out->deadline_exceeded;
    }
  }
}

const char* StateName(CircuitBreaker::State s) {
  switch (s) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

}  // namespace
}  // namespace saga::bench

int main() {
  using namespace saga;
  using namespace saga::bench;
  ObsSession obs_session;

  // ---- Phase 1: unloaded baseline ----------------------------------
  Section("phase 1: unloaded baseline (1 client, admission on)");
  Stack stack = BuildStack(/*max_concurrent=*/4, /*low_max=*/1);
  // Warm caches/index before measuring.
  {
    ClassStats warm;
    RunClient(&stack, Priority::kHigh, 200, 7, &warm);
  }
  ClassStats unloaded;
  RunClient(&stack, Priority::kHigh, 1000, 13, &unloaded);
  const double unloaded_p50 = unloaded.latency_ms.Percentile(50.0);
  const double unloaded_p99 = unloaded.latency_ms.Percentile(99.0);
  Table t1({"clients", "served", "shed", "p50 ms", "p99 ms"});
  t1.AddRow({"1", std::to_string(unloaded.served),
             std::to_string(unloaded.shed), Fmt(unloaded_p50),
             Fmt(unloaded_p99)});
  t1.Print();

  // ---- Phase 2: 2x saturation with priority mix --------------------
  Section("phase 2: 2x saturation (8 clients vs 4 slots, 4 high / 4 low)");
  std::vector<ClassStats> high_stats(4), low_stats(4);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back(RunClient, &stack, Priority::kHigh, 1000,
                           100 + c, &high_stats[c]);
      clients.emplace_back(RunClient, &stack, Priority::kLow, 1000,
                           200 + c, &low_stats[c]);
    }
    for (auto& c : clients) c.join();
  }
  ClassStats high, low;
  for (const auto& cs : high_stats) {
    high.latency_ms.Merge(cs.latency_ms);
    high.served += cs.served;
    high.shed += cs.shed;
    high.deadline_exceeded += cs.deadline_exceeded;
  }
  for (const auto& cs : low_stats) {
    low.latency_ms.Merge(cs.latency_ms);
    low.served += cs.served;
    low.shed += cs.shed;
    low.deadline_exceeded += cs.deadline_exceeded;
  }
  const double high_p99 = high.latency_ms.Percentile(99.0);
  Table t2({"class", "attempts", "served", "shed", "ddl_exceeded", "p50 ms",
            "p99 ms"});
  t2.AddRow({"high", "4000", std::to_string(high.served),
             std::to_string(high.shed),
             std::to_string(high.deadline_exceeded),
             Fmt(high.latency_ms.Percentile(50.0)), Fmt(high_p99)});
  t2.AddRow({"low", "4000", std::to_string(low.served),
             std::to_string(low.shed),
             std::to_string(low.deadline_exceeded),
             Fmt(low.latency_ms.Percentile(50.0)),
             Fmt(low.latency_ms.Percentile(99.0))});
  t2.Print();
  const double p99_ratio = unloaded_p99 > 0 ? high_p99 / unloaded_p99 : 0;
  std::printf("high-priority p99 under 2x load = %.2fx unloaded p99 "
              "(graceful-degradation target: <= 5x)\n",
              p99_ratio);
  std::printf("low-priority shed rate = %.1f%% (shed with "
              "ResourceExhausted at admission, never queued)\n",
              100.0 * static_cast<double>(low.shed) / 4000.0);

  // ---- Phase 3: slow ANN trips the breaker, then recovers ----------
  Section("phase 3: 20ms ANN latency fault -> breaker trip -> recovery");
  CircuitBreaker* breaker = stack.service->ann_breaker();
  Table t3({"step", "breaker", "served", "p99 ms", "note"});
  auto serve_burst = [&](int n, uint32_t seed) {
    ClassStats cs;
    RunClient(&stack, Priority::kHigh, n, seed, &cs);
    return cs;
  };
  {
    ClassStats before = serve_burst(200, 17);
    t3.AddRow({"healthy", StateName(breaker->state()),
               std::to_string(before.served),
               Fmt(before.latency_ms.Percentile(99.0)), "accelerated ANN"});
  }
  Faults().InjectDelay("ann.search", 20.0);
  {
    // First few searches eat the 20ms stall and blow the 5ms slow-call
    // SLO; the breaker trips after 3 and the rest go to the exact
    // backup at normal latency.
    ClassStats tripped = serve_burst(200, 23);
    t3.AddRow({"ann +20ms", StateName(breaker->state()),
               std::to_string(tripped.served),
               Fmt(tripped.latency_ms.Percentile(99.0)),
               "slow calls trip breaker; exact fallback serves"});
  }
  Faults().DisarmAll();
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  {
    // Cool-down elapsed: the next search is the half-open probe; its
    // success closes the breaker and accelerated serving resumes.
    ClassStats healed = serve_burst(200, 29);
    t3.AddRow({"healed", StateName(breaker->state()),
               std::to_string(healed.served),
               Fmt(healed.latency_ms.Percentile(99.0)),
               "half-open probe closed the breaker"});
  }
  t3.Print();
  auto& reg = obs::Registry::Global();
  std::printf("breaker: opened=%lld rejected=%lld failures=%lld "
              "successes=%lld\n",
              static_cast<long long>(
                  reg.counter("serving.breaker.ann_opened").Value()),
              static_cast<long long>(
                  reg.counter("serving.breaker.ann_rejected").Value()),
              static_cast<long long>(
                  reg.counter("serving.breaker.ann_failures").Value()),
              static_cast<long long>(
                  reg.counter("serving.breaker.ann_successes").Value()));

  // Hedged reads under the same fault: 8 clients against 2 hedge
  // workers that each stall 20ms per primary.
  serving::EmbeddingService::Options hopts;
  hopts.index = serving::EmbeddingService::IndexKind::kIvf;
  hopts.ivf_lists = 16;
  hopts.hedge.enabled = true;
  hopts.hedge.fixed_hedge_ms = 2.0;
  auto hedged = std::make_unique<serving::EmbeddingService>(
      stack.service->store(), &stack.gen.kg, hopts);
  const size_t queue_limit = serving::EmbeddingService::kHedgeThreads *
                             serving::EmbeddingService::kHedgeQueuePerThread;
  const int64_t shed_before = reg.counter("serving.hedge.shed").Value();
  const int64_t skipped_before =
      reg.counter("serving.hedge.primary_skipped").Value();
  Faults().InjectDelay("ann.search", 20.0);
  std::atomic<bool> done{false};
  size_t max_depth = 0;
  std::thread monitor([&] {
    while (!done.load()) {
      max_depth = std::max(max_depth, hedged->HedgeQueueDepth());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<ClassStats> hedge_stats(8);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 8; ++c) {
      clients.emplace_back([&, c] {
        for (int i = 0; i < 100; ++i) {
          RequestContext ctx = RequestContext::WithTimeoutMillis(250.0);
          const kg::EntityId probe = stack.view.global_entity(
              static_cast<uint32_t>((300 + c * 100 + i * 31) % 400));
          Stopwatch sw;
          if (hedged->TopKNeighbors(probe, 10, kg::TypeId::Invalid(), ctx)
                  .ok()) {
            hedge_stats[static_cast<size_t>(c)].latency_ms.Add(
                sw.ElapsedMillis());
            ++hedge_stats[static_cast<size_t>(c)].served;
          }
        }
      });
    }
    for (auto& c : clients) c.join();
  }
  done.store(true);
  monitor.join();
  hedged.reset();  // drains the queued primaries
  Faults().DisarmAll();
  ClassStats all;
  for (const auto& cs : hedge_stats) {
    all.latency_ms.Merge(cs.latency_ms);
    all.served += cs.served;
  }
  Table t4({"clients", "served", "p99 ms", "max queue", "queue limit",
            "shed", "primary skipped"});
  t4.AddRow({"8", std::to_string(all.served),
             Fmt(all.latency_ms.Percentile(99.0)), std::to_string(max_depth),
             std::to_string(queue_limit),
             std::to_string(reg.counter("serving.hedge.shed").Value() -
                            shed_before),
             std::to_string(
                 reg.counter("serving.hedge.primary_skipped").Value() -
                 skipped_before)});
  t4.Print();
  std::printf("hedge queue depth peaked at %zu of %zu (ann +20ms, 2 hedge "
              "workers)\n",
              max_depth, queue_limit);
  return 0;
}
