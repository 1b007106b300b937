// Overload-safety suite: deadline propagation, admission control,
// circuit breakers, hedged reads, and bounded-queue load shedding.
// Everything time-dependent runs on injected fake clocks so the suite
// is deterministic; it is also expected to pass under TSan (the
// stress tests at the bottom exist for exactly that).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "annotation/query_answering.h"
#include "common/circuit_breaker.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/retry.h"
#include "common/threadpool.h"
#include "embedding/trainer.h"
#include "graph_engine/ppr.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/admission_controller.h"
#include "serving/embedding_service.h"
#include "serving/related_entities.h"
#include "storage/kv_store.h"

namespace saga {
namespace {

/// Shared fake monotonic clock for breaker / admission tests.
struct FakeClock {
  std::atomic<uint64_t> now_ns{1'000'000'000};
  void AdvanceMillis(double ms) {
    now_ns.fetch_add(static_cast<uint64_t>(ms * 1e6));
  }
  std::function<uint64_t()> Fn() {
    return [this] { return now_ns.load(); };
  }
};

struct Fixture {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  embedding::TrainedEmbeddings emb;

  static Fixture Make() {
    kg::KgGeneratorConfig config;
    config.num_persons = 100;
    config.num_movies = 30;
    config.num_songs = 15;
    config.num_teams = 5;
    config.num_bands = 6;
    config.num_cities = 10;
    Fixture f{kg::GenerateKg(config), {}, {}};
    f.view = graph_engine::GraphView::Build(f.gen.kg,
                                            graph_engine::ViewDefinition());
    embedding::TrainingConfig tc;
    tc.model = embedding::ModelKind::kDistMult;
    tc.dim = 16;
    tc.epochs = 3;
    embedding::InMemoryTrainer trainer(tc);
    f.emb = trainer.Train(f.view);
    return f;
  }
};

class OverloadTest : public ::testing::Test {
 protected:
  void TearDown() override { Faults().DisarmAll(); }
};

// ---------- Deadline / RequestContext ----------

TEST_F(OverloadTest, DefaultDeadlineIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GE(d.RemainingMillis(), Deadline::kInfiniteMillis);

  RequestContext ctx;
  EXPECT_FALSE(ctx.expired());
  EXPECT_TRUE(ctx.Check("test").ok());
}

TEST_F(OverloadTest, ExpiredDeadlineFailsCheck) {
  RequestContext ctx = RequestContext::WithTimeoutMillis(-1.0);
  EXPECT_TRUE(ctx.expired());
  const Status s = ctx.Check("unit.loop");
  EXPECT_TRUE(s.IsDeadlineExceeded());
  // The error names the loop that hit the deadline.
  EXPECT_NE(s.message().find("unit.loop"), std::string::npos);
}

TEST_F(OverloadTest, BudgetOnlyTightens) {
  Deadline parent = Deadline::AfterMillis(5.0);
  // A huge child budget cannot extend past the parent.
  Deadline child = parent.WithBudgetMillis(1e6);
  EXPECT_LE(child.RemainingMillis(), parent.RemainingMillis() + 1e-3);
  // A small child budget tightens.
  Deadline tight = parent.WithBudgetMillis(1.0);
  EXPECT_LT(tight.RemainingMillis(), 2.0);

  EXPECT_TRUE(Deadline::Min(parent, Deadline()).time_point() ==
              parent.time_point());
}

TEST_F(OverloadTest, CancellationPropagatesAcrossCopies) {
  RequestContext ctx;
  ctx.EnableSharedCancel();
  RequestContext copy = ctx;
  EXPECT_TRUE(copy.Check("x").ok());
  ctx.Cancel();
  EXPECT_TRUE(copy.expired());
  EXPECT_TRUE(copy.Check("x").IsDeadlineExceeded());
}

// ---------- Deadline propagation through engines ----------

TEST_F(OverloadTest, PprHonorsDeadline) {
  Fixture f = Fixture::Make();
  graph_engine::PprEngine ppr(&f.view);

  RequestContext expired = RequestContext::WithTimeoutMillis(-1.0);
  auto dead = ppr.TopKRelated(0, 10, expired);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsDeadlineExceeded());

  RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  auto alive = ppr.TopKRelated(0, 10, generous);
  ASSERT_TRUE(alive.ok());
  // Same answer as under a context with no deadline.
  auto unbounded = ppr.TopKRelated(0, 10, RequestContext());
  ASSERT_TRUE(unbounded.ok());
  EXPECT_EQ(*alive, *unbounded);
}

TEST_F(OverloadTest, QueryAnsweringHonorsDeadline) {
  Fixture f = Fixture::Make();
  annotation::QueryAnswerer qa(&f.gen.kg, nullptr);

  RequestContext expired = RequestContext::WithTimeoutMillis(-1.0);
  auto dead = qa.Ask("anything at all", expired);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsDeadlineExceeded());

  RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  const std::string query = f.gen.kg.catalog().name(f.view.global_entity(0));
  auto alive = qa.Ask(query, generous);
  ASSERT_TRUE(alive.ok());
}

// ---------- KvStore: deadline + read breaker ----------

TEST_F(OverloadTest, KvStoreGetHonorsDeadline) {
  auto dir = MakeTempDir("saga_overload_kv");
  ASSERT_TRUE(dir.ok());
  auto store = storage::KvStore::Open(*dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());

  RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  auto hit = (*store)->Get("k", generous);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(*hit, "v");

  // A 20ms injected stall blows a 2ms budget: the deadline re-check
  // after the fault point fires.
  Faults().InjectDelay("kv.read", 20.0);
  RequestContext tight = RequestContext::WithTimeoutMillis(2.0);
  auto slow = (*store)->Get("k", tight);
  ASSERT_FALSE(slow.ok());
  EXPECT_TRUE(slow.status().IsDeadlineExceeded());
  (void)RemoveDirRecursively(*dir);
}

TEST_F(OverloadTest, KvStoreGetWithoutDeadlineConsultsReadFault) {
  auto dir = MakeTempDir("saga_overload_kvfault");
  ASSERT_TRUE(dir.ok());
  auto store = storage::KvStore::Open(*dir);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());

  // The deadline-free overload is the production read (embedding
  // cache, version canary); it runs the same path, fault point included.
  const uint64_t fired = Faults().fires("kv.read");
  Faults().Arm("kv.read", FaultSpec{FaultKind::kFail});
  EXPECT_TRUE((*store)->Get("k").status().IsIOError());
  EXPECT_EQ(Faults().fires("kv.read"), fired + 1);
  auto healed = (*store)->Get("k");
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, "v");
  (void)RemoveDirRecursively(*dir);
}

TEST_F(OverloadTest, KvStoreReadBreakerTripsAndRecovers) {
  auto dir = MakeTempDir("saga_overload_kvbr");
  ASSERT_TRUE(dir.ok());
  FakeClock clock;
  storage::KvStore::Options opts;
  opts.enable_read_breaker = true;
  opts.read_breaker.failure_threshold = 2;
  opts.read_breaker.open_ms = 100.0;
  opts.read_breaker.now_ns = clock.Fn();
  auto store = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  ASSERT_NE((*store)->read_breaker(), nullptr);

  RequestContext ctx = RequestContext::WithTimeoutMillis(60'000.0);
  FaultSpec fail;
  fail.kind = FaultKind::kFail;
  fail.fail_nth = 0;  // every hit
  fail.repeat = true;
  Faults().Arm("kv.read", fail);
  EXPECT_TRUE((*store)->Get("k", ctx).status().IsIOError());
  EXPECT_TRUE((*store)->Get("k", ctx).status().IsIOError());
  EXPECT_EQ((*store)->read_breaker()->state(),
            CircuitBreaker::State::kOpen);

  // Open: fast-fail with Unavailable, without consulting the store.
  const uint64_t fires_before = Faults().fires("kv.read");
  EXPECT_TRUE((*store)->Get("k", ctx).status().IsUnavailable());
  EXPECT_EQ(Faults().fires("kv.read"), fires_before);

  // Dependency heals + cool-down elapses: half-open probe closes it.
  Faults().DisarmAll();
  clock.AdvanceMillis(150.0);
  auto healed = (*store)->Get("k", ctx);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, "v");
  EXPECT_EQ((*store)->read_breaker()->state(),
            CircuitBreaker::State::kClosed);
  // NotFound is a business outcome, not a breaker failure.
  EXPECT_TRUE((*store)->Get("absent", ctx).status().IsNotFound());
  EXPECT_EQ((*store)->read_breaker()->state(),
            CircuitBreaker::State::kClosed);
  (void)RemoveDirRecursively(*dir);
}

// ---------- CircuitBreaker unit ----------

TEST_F(OverloadTest, BreakerStateMachine) {
  FakeClock clock;
  CircuitBreaker::Options opts;
  opts.failure_threshold = 3;
  opts.open_ms = 50.0;
  opts.close_threshold = 2;
  opts.now_ns = clock.Fn();
  CircuitBreaker breaker("serving.breaker.unit", opts);

  // Closed: failures below threshold keep it closed; a success resets
  // the consecutive count.
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  // Open: reject until the cool-down elapses.
  EXPECT_TRUE(breaker.Allow().IsUnavailable());
  EXPECT_GE(breaker.stats().rejected, 1u);
  clock.AdvanceMillis(60.0);

  // Half-open: one probe at a time (the second concurrent Allow is
  // rejected), and close_threshold=2 successes are needed to close.
  EXPECT_TRUE(breaker.Allow().ok());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow().IsUnavailable());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);

  // A probe failure would have re-opened instead.
  breaker.RecordFailure();
  breaker.RecordFailure();
  breaker.RecordFailure();
  clock.AdvanceMillis(60.0);
  EXPECT_TRUE(breaker.Allow().ok());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_GE(breaker.stats().opened, 2u);
}

TEST_F(OverloadTest, BreakerFailureClassification) {
  EXPECT_TRUE(CircuitBreaker::IsFailure(Status::IOError("x")));
  EXPECT_TRUE(CircuitBreaker::IsFailure(Status::DeadlineExceeded("x")));
  EXPECT_TRUE(CircuitBreaker::IsFailure(Status::ResourceExhausted("x")));
  EXPECT_FALSE(CircuitBreaker::IsFailure(Status::OK()));
  EXPECT_FALSE(CircuitBreaker::IsFailure(Status::NotFound("x")));
  EXPECT_FALSE(CircuitBreaker::IsFailure(Status::InvalidArgument("x")));
}

TEST_F(OverloadTest, RetryRespectsOpenBreaker) {
  FakeClock clock;
  CircuitBreaker::Options bopts;
  bopts.failure_threshold = 1;
  bopts.now_ns = clock.Fn();
  CircuitBreaker breaker("serving.breaker.retry", bopts);
  breaker.RecordFailure();  // trip it
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  RetryPolicy::Options ropts;
  ropts.max_attempts = 5;
  ropts.initial_backoff_ms = 0.0;
  RetryPolicy retry(ropts);
  int calls = 0;
  const Status s = retry.Run(
      "unit.op",
      [&] {
        ++calls;
        return Status::OK();
      },
      &breaker);
  // Unavailable-from-breaker is terminal: no attempts reach the op and
  // the retry loop does not spin against a tripped breaker.
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_EQ(calls, 0);
}

// ---------- ThreadPool bounded queue ----------

TEST_F(OverloadTest, BoundedQueueShedsWhenFull) {
  ThreadPool pool(1, 2);
  std::atomic<bool> release{false};
  std::atomic<int> ran{0};
  // Park the single worker so submissions pile into the queue.
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    ++ran;
  });
  while (pool.queue_depth() > 0) std::this_thread::yield();

  ASSERT_TRUE(pool.TrySubmit([&] { ++ran; }).ok());
  ASSERT_TRUE(pool.TrySubmit([&] { ++ran; }).ok());
  const Status shed = pool.TrySubmit([&] { ++ran; });
  EXPECT_TRUE(shed.IsResourceExhausted());

  release = true;
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);
  // Capacity freed: submissions flow again.
  EXPECT_TRUE(pool.TrySubmit([&] { ++ran; }).ok());
  pool.Wait();
  EXPECT_EQ(ran.load(), 4);
}

// ---------- AdmissionController ----------

TEST_F(OverloadTest, AdmissionShedsLowPriorityFirst) {
  serving::AdmissionController::Options opts;
  opts.max_concurrent = 4;
  opts.low_priority_max_concurrent = 1;
  serving::AdmissionController admission(opts);

  RequestContext high;
  RequestContext low;
  low.set_priority(Priority::kLow);

  auto low1 = admission.TryAdmit(low);
  EXPECT_TRUE(low1.ok());
  // Second low-priority request exceeds the sub-limit even though the
  // tier has slots free.
  auto low2 = admission.TryAdmit(low);
  EXPECT_FALSE(low2.ok());
  EXPECT_TRUE(low2.status().IsResourceExhausted());

  // High-priority traffic still gets the remaining capacity.
  std::vector<serving::AdmissionController::Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    auto t = admission.TryAdmit(high);
    EXPECT_TRUE(t.ok());
    tickets.push_back(std::move(t));
  }
  // Tier full now: even high priority sheds.
  auto overflow = admission.TryAdmit(high);
  EXPECT_FALSE(overflow.ok());
  EXPECT_TRUE(overflow.status().IsResourceExhausted());

  EXPECT_EQ(admission.stats().in_flight, 4);
  EXPECT_EQ(admission.stats().shed_low, 1u);
  EXPECT_EQ(admission.stats().shed_high, 1u);

  // Releasing a slot (RAII) restores capacity.
  tickets.pop_back();
  EXPECT_EQ(admission.stats().in_flight, 3);
  EXPECT_TRUE(admission.TryAdmit(high).ok());
}

TEST_F(OverloadTest, AdmissionRejectsExpiredRequests) {
  serving::AdmissionController admission;
  RequestContext expired = RequestContext::WithTimeoutMillis(-1.0);
  auto t = admission.TryAdmit(expired);
  EXPECT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsDeadlineExceeded());
  EXPECT_EQ(admission.stats().rejected_expired, 1u);
  EXPECT_EQ(admission.stats().in_flight, 0);
}

TEST_F(OverloadTest, AdmissionTokenBucketSmoothsLowPriority) {
  FakeClock clock;
  serving::AdmissionController::Options opts;
  opts.max_concurrent = 100;
  opts.low_priority_max_concurrent = 100;
  opts.low_priority_rate_per_sec = 10.0;
  opts.low_priority_burst = 2.0;
  opts.now_ns = clock.Fn();
  serving::AdmissionController admission(opts);

  RequestContext low;
  low.set_priority(Priority::kLow);
  // Burst of 2 passes; the third is rate-shed.
  EXPECT_TRUE(admission.TryAdmit(low).ok());
  EXPECT_TRUE(admission.TryAdmit(low).ok());
  auto shed = admission.TryAdmit(low);
  EXPECT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted());

  // 100ms at 10/s refills one token.
  clock.AdvanceMillis(100.0);
  EXPECT_TRUE(admission.TryAdmit(low).ok());
  EXPECT_FALSE(admission.TryAdmit(low).ok());

  // High priority is never rate-limited.
  RequestContext high;
  EXPECT_TRUE(admission.TryAdmit(high).ok());
}

// ---------- EmbeddingService: breaker + hedged reads ----------

TEST_F(OverloadTest, AnnBreakerFallsBackToExactAndRecovers) {
  Fixture f = Fixture::Make();
  FakeClock clock;
  serving::EmbeddingService::Options opts;
  opts.index = serving::EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 8;
  opts.enable_breaker = true;
  opts.breaker.failure_threshold = 2;
  opts.breaker.open_ms = 100.0;
  opts.breaker.now_ns = clock.Fn();
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  ASSERT_FALSE(service.degraded());
  ASSERT_NE(service.ann_breaker(), nullptr);

  const kg::EntityId probe = f.view.global_entity(0);
  RequestContext ctx = RequestContext::WithTimeoutMillis(60'000.0);

  FaultSpec fail;
  fail.kind = FaultKind::kFail;
  fail.fail_nth = 0;
  fail.repeat = true;
  Faults().Arm("ann.search", fail);
  obs::Counter& masked = SAGA_COUNTER("serving.embedding.exact_fallbacks");
  obs::Counter& bypassed = SAGA_COUNTER("serving.breaker.fallbacks");
  const int64_t masked_before = masked.Value();
  const int64_t bypassed_before = bypassed.Value();
  // Injected ANN failures are masked by the exact backup — callers
  // still get answers — while the breaker counts them. The first two
  // fail while it is closed and trip it; the third finds it open.
  for (int i = 0; i < 3; ++i) {
    auto r = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->empty());
  }
  EXPECT_EQ(service.ann_breaker()->state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(masked.Value() - masked_before, 2);
  EXPECT_EQ(bypassed.Value() - bypassed_before, 1);

  // While open, searches bypass the (still-faulty) ANN index entirely.
  const uint64_t fires_before = Faults().fires("ann.search");
  auto open_r = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
  ASSERT_TRUE(open_r.ok());
  EXPECT_EQ(Faults().fires("ann.search"), fires_before);
  EXPECT_EQ(masked.Value() - masked_before, 2);
  EXPECT_EQ(bypassed.Value() - bypassed_before, 2);

  // Heal + cool-down: the half-open probe closes the breaker.
  Faults().DisarmAll();
  clock.AdvanceMillis(150.0);
  auto healed = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(service.ann_breaker()->state(),
            CircuitBreaker::State::kClosed);
}

TEST_F(OverloadTest, HedgedReadMasksSlowPrimary) {
  Fixture f = Fixture::Make();
  serving::EmbeddingService::Options opts;
  opts.index = serving::EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 8;
  opts.hedge.enabled = true;
  opts.hedge.fixed_hedge_ms = 2.0;
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  ASSERT_FALSE(service.degraded());
  EXPECT_EQ(service.HedgeDelayMs(), 2.0);

  const kg::EntityId probe = f.view.global_entity(0);
  RequestContext ctx = RequestContext::WithTimeoutMillis(60'000.0);

  // Sanity: hedged path returns results with a healthy primary.
  auto fast = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
  ASSERT_TRUE(fast.ok());
  EXPECT_FALSE(fast->empty());

  // Primary now stalls 200ms per search; the 2ms hedge timer fires the
  // exact backup, which answers long before the primary wakes up.
  Faults().InjectDelay("ann.search", 200.0);
  Stopwatch sw;
  auto hedged = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
  const double elapsed_ms = sw.ElapsedMillis();
  ASSERT_TRUE(hedged.ok());
  EXPECT_FALSE(hedged->empty());
  EXPECT_LT(elapsed_ms, 150.0);
}

// A slow primary holds its hedge worker, so under load the queued
// primaries would pile up without bound. The queue is bounded: a search
// that finds it full sheds straight to the exact backup, and a queued
// primary whose backup already answered skips its search.
TEST_F(OverloadTest, HedgePoolQueueStaysBoundedUnderSlowPrimaries) {
  Fixture f = Fixture::Make();
  serving::EmbeddingService::Options opts;
  opts.index = serving::EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 8;
  opts.hedge.enabled = true;
  opts.hedge.fixed_hedge_ms = 1.0;
  opts.hedge.threads = 1;
  auto service = std::make_unique<serving::EmbeddingService>(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  ASSERT_FALSE(service->degraded());
  const size_t limit = serving::EmbeddingService::kHedgeQueuePerThread;

  auto& reg = obs::Registry::Global();
  const int64_t shed_before = reg.counter("serving.hedge.shed").Value();
  const int64_t skipped_before =
      reg.counter("serving.hedge.primary_skipped").Value();
  Faults().InjectDelay("ann.search", 30.0);
  std::atomic<bool> done{false};
  std::atomic<size_t> max_depth{0};
  std::thread monitor([&] {
    while (!done.load()) {
      const size_t d = service->HedgeQueueDepth();
      if (d > max_depth.load()) max_depth.store(d);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 8; ++t) {
    clients.emplace_back([&, t] {
      RequestContext ctx = RequestContext::WithTimeoutMillis(60'000.0);
      for (int i = 0; i < 10; ++i) {
        const kg::EntityId probe = f.view.global_entity(
            static_cast<uint32_t>((t * 10 + i) % 50));
        if (service->TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx).ok()) {
          ++ok_count;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  done.store(true);
  monitor.join();
  EXPECT_LE(service->HedgeQueueDepth(), limit);
  // Destruction drains the queue: every queued primary has run or
  // skipped by the time the counters are read.
  service.reset();
  Faults().DisarmAll();

  EXPECT_EQ(ok_count.load(), 80);
  EXPECT_LE(max_depth.load(), limit);
  EXPECT_GT(reg.counter("serving.hedge.shed").Value(), shed_before);
  EXPECT_GT(reg.counter("serving.hedge.primary_skipped").Value(),
            skipped_before);
}

TEST_F(OverloadTest, RelatedEntitiesHonorsDeadline) {
  Fixture f = Fixture::Make();
  serving::EmbeddingService embeddings(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  serving::RelatedEntitiesService::Options opts;
  opts.mode = serving::RelatedEntitiesService::Mode::kBlend;
  serving::RelatedEntitiesService related(&f.gen.kg, &f.view, &embeddings,
                                          opts);
  const kg::EntityId probe = f.view.global_entity(0);

  RequestContext expired = RequestContext::WithTimeoutMillis(-1.0);
  auto dead = related.Related(probe, 5, kg::TypeId::Invalid(), expired);
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsDeadlineExceeded());

  RequestContext generous = RequestContext::WithTimeoutMillis(60'000.0);
  auto alive = related.Related(probe, 5, kg::TypeId::Invalid(), generous);
  ASSERT_TRUE(alive.ok());
  EXPECT_FALSE(alive->empty());
}

// ---------- Concurrency stress (the TSan targets) ----------

TEST_F(OverloadTest, AdmissionAndBreakerAreThreadSafe) {
  serving::AdmissionController::Options aopts;
  aopts.max_concurrent = 8;
  aopts.low_priority_max_concurrent = 3;
  serving::AdmissionController admission(aopts);
  CircuitBreaker::Options bopts;
  bopts.failure_threshold = 4;
  bopts.open_ms = 0.01;
  CircuitBreaker breaker("serving.breaker.stress");

  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> shed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 500; ++i) {
        RequestContext ctx;
        if ((t + i) % 2 == 0) ctx.set_priority(Priority::kLow);
        auto ticket = admission.TryAdmit(ctx);
        if (!ticket.ok()) {
          ++shed;
          continue;
        }
        ++admitted;
        if (breaker.Allow().ok()) {
          if (i % 7 == 0) {
            breaker.RecordFailure();
          } else {
            breaker.RecordSuccess();
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_GT(admitted.load(), 0u);
  EXPECT_EQ(admission.stats().in_flight, 0);
  EXPECT_EQ(admission.stats().in_flight_low, 0);
  const auto s = admission.stats();
  EXPECT_EQ(s.admitted, admitted.load());
  EXPECT_EQ(s.shed_low + s.shed_high, shed.load());
}

TEST_F(OverloadTest, ConcurrentHedgedSearchesAreThreadSafe) {
  Fixture f = Fixture::Make();
  serving::EmbeddingService::Options opts;
  opts.index = serving::EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 8;
  opts.hedge.enabled = true;
  opts.hedge.fixed_hedge_ms = 0.5;
  opts.hedge.threads = 4;
  opts.enable_breaker = true;
  opts.breaker.failure_threshold = 1000;  // never trips in this test
  serving::EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  ASSERT_FALSE(service.degraded());

  std::atomic<int> ok_count{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      RequestContext ctx = RequestContext::WithTimeoutMillis(60'000.0);
      for (int i = 0; i < 25; ++i) {
        const kg::EntityId probe = f.view.global_entity(
            static_cast<uint32_t>((t * 25 + i) % 50));
        auto r = service.TopKNeighbors(probe, 5, kg::TypeId::Invalid(), ctx);
        if (r.ok()) ++ok_count;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok_count.load(), 100);
}

}  // namespace
}  // namespace saga
