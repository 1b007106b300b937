// Tests for request-scoped distributed tracing: trace identity on span
// nodes, segment fragmentation via ScopedTraceContext, cross-thread
// re-parenting over ThreadPool, trace stitching across the replicated
// write path, error marking and the Chrome export of the trace store,
// histogram exemplars, and RequestContext trace capture. The concurrent
// cases are meant to run under the `tsan` CMake preset as well as
// asan-ubsan.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/request_context.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "replication/replica_group.h"

namespace saga {
namespace {

/// Completed fragment roots the trace store holds.
size_t CollectedTraces() {
  size_t n = 0;
  obs::VisitCollectedTraces([&n](const obs::SpanNode&) { ++n; });
  return n;
}

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetEnabled(true);
    obs::Registry::Global().ResetAll();
    obs::ClearTraces();
    obs::SetTracingEnabled(true);
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::ClearTraces();
    obs::Registry::Global().ResetAll();
  }

  /// All collected fragment roots, flattened to (name, trace linkage)
  /// via a caller-supplied visitor over every node in every fragment.
  static void VisitAllNodes(
      const std::function<void(const obs::SpanNode&)>& fn) {
    obs::VisitCollectedTraces([&fn](const obs::SpanNode& root) {
      VisitNode(root, fn);
    });
  }

  static void VisitNode(const obs::SpanNode& node,
                        const std::function<void(const obs::SpanNode&)>& fn) {
    fn(node);
    for (const auto& child : node.children) VisitNode(*child, fn);
  }

  using TraceKey = std::pair<uint64_t, uint64_t>;

  /// Collected fragments grouped by trace id. The pointers stay valid
  /// until the next ClearTraces (the store owns the fragments), which
  /// no test calls while it holds them.
  static std::map<TraceKey, std::vector<const obs::SpanNode*>> TracesById() {
    std::map<TraceKey, std::vector<const obs::SpanNode*>> traces;
    obs::VisitCollectedTraces([&traces](const obs::SpanNode& fragment) {
      traces[{fragment.trace_id_hi, fragment.trace_id_lo}].push_back(
          &fragment);
    });
    return traces;
  }
};

// ---------- trace identity ----------

TEST_F(TraceTest, SpansCarryTraceIdentity) {
  {
    obs::ScopedSpan root("test.trace.root");
    obs::ScopedSpan child("test.trace.child");
  }
  ASSERT_EQ(CollectedTraces(), 1u);
  obs::VisitCollectedTraces([](const obs::SpanNode& root) {
    EXPECT_EQ(root.name, "test.trace.root");
    EXPECT_NE(root.trace_id_hi | root.trace_id_lo, 0u);
    EXPECT_NE(root.span_id, 0u);
    EXPECT_EQ(root.parent_span_id, 0u) << "trace-initiating span";
    ASSERT_EQ(root.children.size(), 1u);
    const obs::SpanNode& child = *root.children[0];
    EXPECT_EQ(child.trace_id_hi, root.trace_id_hi);
    EXPECT_EQ(child.trace_id_lo, root.trace_id_lo);
    EXPECT_EQ(child.parent_span_id, root.span_id);
  });
}

TEST_F(TraceTest, NoAmbientContextOutsideSpans) {
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
  {
    obs::ScopedSpan span("test.trace.ambient");
    const obs::TraceContext ctx = obs::CurrentTraceContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_NE(ctx.span_id, 0u);
    EXPECT_EQ(ctx.TraceIdHex().size(), 32u);
  }
  EXPECT_FALSE(obs::CurrentTraceContext().valid());
}

// ---------- segment fragmentation ----------

TEST_F(TraceTest, ScopedTraceContextOpensNewFragment) {
  obs::TraceContext captured;
  {
    obs::ScopedSpan outer("test.frag.outer");
    captured = obs::CurrentTraceContext();
    {
      // Same OS thread, adopted context — the model for SimTransport
      // delivering a "remote" message inside the client's call stack.
      obs::ScopedTraceContext adopt(captured);
      obs::ScopedSpan handler("test.frag.handler");
    }
  }
  // Two fragments: the handler segment and the outer root.
  EXPECT_EQ(CollectedTraces(), 2u);
  bool saw_handler = false;
  obs::VisitCollectedTraces([&](const obs::SpanNode& root) {
    EXPECT_EQ(root.trace_id_hi, captured.trace_id_hi);
    EXPECT_EQ(root.trace_id_lo, captured.trace_id_lo);
    if (root.name == "test.frag.handler") {
      saw_handler = true;
      // Fragment root is parented by id, not by the enclosing span
      // object of the thread.
      EXPECT_EQ(root.parent_span_id, captured.span_id);
    }
  });
  EXPECT_TRUE(saw_handler);
}

TEST_F(TraceTest, InvalidContextDetachesIntoFreshTrace) {
  obs::TraceContext outer_ctx;
  uint64_t detached_hi = 0, detached_lo = 0;
  {
    obs::ScopedSpan outer("test.frag.outer");
    outer_ctx = obs::CurrentTraceContext();
    {
      obs::ScopedTraceContext detach{obs::TraceContext{}};
      obs::ScopedSpan fresh("test.frag.fresh");
      detached_hi = obs::CurrentTraceContext().trace_id_hi;
      detached_lo = obs::CurrentTraceContext().trace_id_lo;
    }
    // Ambient context restored after the detached segment.
    EXPECT_EQ(obs::CurrentTraceContext().span_id, outer_ctx.span_id);
  }
  EXPECT_TRUE(detached_hi || detached_lo);
  EXPECT_FALSE(detached_hi == outer_ctx.trace_id_hi &&
               detached_lo == outer_ctx.trace_id_lo);
}

// ---------- cross-thread propagation (the orphaning fix) ----------

TEST_F(TraceTest, ThreadPoolReparentsPoolHoppedSpans) {
  ThreadPool pool(2);
  obs::TraceContext outer_ctx;
  {
    obs::ScopedSpan outer("test.pool.outer");
    outer_ctx = obs::CurrentTraceContext();
    for (int i = 0; i < 4; ++i) {
      pool.Submit([] { obs::ScopedSpan inner("test.pool.inner"); });
    }
    pool.Wait();
  }
  // 4 worker fragments + the outer root.
  EXPECT_EQ(CollectedTraces(), 5u);
  int inner_fragments = 0;
  obs::VisitCollectedTraces([&](const obs::SpanNode& root) {
    if (root.name != "test.pool.inner") return;
    ++inner_fragments;
    // The fix under test: pool-hopped spans keep the submitter's trace
    // id and re-parent under its span instead of starting disconnected
    // roots on the worker thread.
    EXPECT_EQ(root.trace_id_hi, outer_ctx.trace_id_hi);
    EXPECT_EQ(root.trace_id_lo, outer_ctx.trace_id_lo);
    EXPECT_EQ(root.parent_span_id, outer_ctx.span_id);
  });
  EXPECT_EQ(inner_fragments, 4);
}

TEST_F(TraceTest, ThreadPoolWithoutAmbientTraceStartsOwnTraces) {
  ThreadPool pool(2);
  pool.Submit([] { obs::ScopedSpan inner("test.pool.orphanless"); });
  pool.Wait();
  ASSERT_EQ(CollectedTraces(), 1u);
  obs::VisitCollectedTraces([](const obs::SpanNode& root) {
    EXPECT_NE(root.trace_id_hi | root.trace_id_lo, 0u);
    EXPECT_EQ(root.parent_span_id, 0u);
  });
}

// ---------- replication stitching ----------

TEST_F(TraceTest, QuorumWriteStitchesIntoOneTrace) {
  replication::ReplicaGroup::Options gopts;
  gopts.num_replicas = 3;
  gopts.seed = 0x5EED;
  auto group = replication::ReplicaGroup::Create(gopts);
  ASSERT_TRUE(group.ok());
  ASSERT_TRUE((*group)->Put("k", "v").ok());

  // Exactly one client write -> exactly one trace, holding the client
  // root, the leader append, and every follower-side handler fragment
  // delivered over the simulated transport.
  const auto traces = TracesById();
  ASSERT_EQ(traces.size(), 1u);
  const auto& [key, fragments] = *traces.begin();
  EXPECT_GE(fragments.size(), 3u)
      << "client + >=1 follower append + >=1 ack fragment";

  std::set<uint64_t> span_ids;
  std::set<std::string> names;
  int roots = 0;
  for (const obs::SpanNode* frag : fragments) {
    if (frag->parent_span_id == 0) {
      ++roots;
      EXPECT_EQ(frag->name, "replication.group.write");
    }
    VisitNode(*frag, [&](const obs::SpanNode& node) {
      EXPECT_EQ(node.trace_id_hi, key.first);
      EXPECT_EQ(node.trace_id_lo, key.second);
      span_ids.insert(node.span_id);
      names.insert(node.name);
    });
  }
  EXPECT_EQ(roots, 1);
  EXPECT_TRUE(names.count("replication.group.write"));
  EXPECT_TRUE(names.count("replication.replica.leader_append"));
  EXPECT_TRUE(names.count("replication.replica.handle_append"));
  EXPECT_TRUE(names.count("replication.replica.handle_append_ack"));
  // Stitching is complete: every fragment's parent id resolves to a
  // span recorded somewhere in the same trace (no orphans).
  for (const obs::SpanNode* frag : fragments) {
    if (frag->parent_span_id == 0) continue;  // the client root
    EXPECT_TRUE(span_ids.count(frag->parent_span_id))
        << frag->name << " parent not found in trace";
  }

  // The dump is loadable Chrome trace JSON carrying the linkage args.
  const std::string json = obs::DumpChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"name\":\"replication.group.write\""),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"replication.replica.handle_append_ack\""),
            std::string::npos);
  obs::TraceContext id;
  id.trace_id_hi = key.first;
  id.trace_id_lo = key.second;
  EXPECT_NE(json.find("\"trace_id\":\"" + id.TraceIdHex() + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\":\""), std::string::npos);
}

TEST_F(TraceTest, UntracedHeartbeatsMintNoTraces) {
  replication::ReplicaGroup::Options gopts;
  gopts.num_replicas = 3;
  gopts.seed = 0x5EED;
  auto group = replication::ReplicaGroup::Create(gopts);
  ASSERT_TRUE(group.ok());
  // Heartbeats, elections, ship-to-all — all without a client span.
  (*group)->Step(500);
  EXPECT_EQ(CollectedTraces(), 0u);
  EXPECT_EQ(obs::DumpChromeTraceJson(), "{\"traceEvents\":[]}");
}

// ---------- error marking ----------

TEST_F(TraceTest, MarkSpanErrorStampsInnermostSpanFirstErrorWins) {
  {
    obs::ScopedSpan root("test.error.root");
    {
      obs::ScopedSpan child("test.error.child");
      obs::MarkSpanError(StatusCode::kUnavailable);
      obs::MarkSpanError(StatusCode::kDeadlineExceeded);  // not the first
      obs::MarkSpanError(Status::OK());                   // no-op
    }
    obs::MarkSpanError(StatusCode::kOk);  // no-op
  }
  ASSERT_EQ(CollectedTraces(), 1u);
  obs::VisitCollectedTraces([](const obs::SpanNode& root) {
    EXPECT_EQ(root.name, "test.error.root");
    EXPECT_EQ(root.error_code, 0u) << "the root was not the open span";
    ASSERT_EQ(root.children.size(), 1u);
    EXPECT_EQ(root.children[0]->error_code,
              static_cast<uint32_t>(StatusCode::kUnavailable));
  });
  const std::string error_arg =
      "\"error\":" +
      std::to_string(static_cast<uint32_t>(StatusCode::kUnavailable));
  EXPECT_NE(obs::DumpChromeTraceJson().find(error_arg), std::string::npos);
}

TEST_F(TraceTest, ConcurrentRootsEachLandInStore) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::ScopedSpan root("test.store.mt");
        obs::ScopedSpan child("test.store.mt_child");
        if ((t + i) % 4 == 0) {
          obs::MarkSpanError(StatusCode::kDeadlineExceeded);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every root became its own trace: N*M fragments, each a trace root
  // with a distinct trace id and span id, none lost or merged.
  std::set<TraceKey> trace_ids;
  std::set<uint64_t> span_ids;
  size_t roots = 0, errored = 0;
  obs::VisitCollectedTraces([&](const obs::SpanNode& root) {
    EXPECT_EQ(root.name, "test.store.mt");
    if (root.parent_span_id == 0) ++roots;
    trace_ids.insert({root.trace_id_hi, root.trace_id_lo});
    span_ids.insert(root.span_id);
    ASSERT_EQ(root.children.size(), 1u);
    if (root.children[0]->error_code != 0) ++errored;
  });
  constexpr size_t kRoots = size_t{kThreads} * kPerThread;
  EXPECT_EQ(roots, kRoots);
  EXPECT_EQ(trace_ids.size(), kRoots);
  EXPECT_EQ(span_ids.size(), kRoots);
  EXPECT_EQ(errored, kRoots / 4);
}

// ---------- exemplars ----------

TEST_F(TraceTest, ExemplarRecordsProducingTrace) {
  obs::LatencyHistogram& h = SAGA_LATENCY("test.exemplar.lat_ns");
  obs::TraceContext ctx;
  {
    obs::ScopedSpan span("test.exemplar.request");
    ctx = obs::CurrentTraceContext();
    h.Record(5'000'000);
  }
  const obs::Exemplar ex = h.exemplar();
  ASSERT_TRUE(ex.valid());
  EXPECT_EQ(ex.ns, 5'000'000u);
  EXPECT_EQ(ex.trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(ex.trace_id_lo, ctx.trace_id_lo);

  // High-water semantics: a faster sample does not displace it, a
  // slower one does.
  h.Record(1000);
  EXPECT_EQ(h.exemplar().ns, 5'000'000u);
  {
    obs::ScopedSpan span("test.exemplar.slower");
    h.Record(9'000'000);
  }
  EXPECT_EQ(h.exemplar().ns, 9'000'000u);

  const std::string dump = obs::DumpAll(obs::DumpFormat::kJson);
  EXPECT_NE(dump.find("\"exemplar\":{\"ns\":9000000,\"trace_id\":\""),
            std::string::npos)
      << dump;
}

TEST_F(TraceTest, ExemplarWithoutTraceStillRecordsLatency) {
  obs::LatencyHistogram& h = SAGA_LATENCY("test.exemplar.untraced_ns");
  h.Record(1'000'000);
  // No ambient trace: no exemplar, but the sample itself counts.
  EXPECT_FALSE(h.exemplar().valid());
  EXPECT_EQ(h.Count(), 1u);
}

// ---------- RequestContext integration ----------

TEST_F(TraceTest, ExpiredDeadlineMarksSpan) {
  {
    obs::ScopedSpan root("test.reqctx.deadline");
    RequestContext ctx(Deadline::AfterMillis(-1.0));
    EXPECT_TRUE(ctx.Check("test").IsDeadlineExceeded());
  }
  const auto traces = TracesById();
  ASSERT_EQ(traces.size(), 1u);
  const std::vector<const obs::SpanNode*>& fragments =
      traces.begin()->second;
  ASSERT_EQ(fragments.size(), 1u);
  EXPECT_EQ(fragments[0]->name, "test.reqctx.deadline");
  EXPECT_EQ(fragments[0]->parent_span_id, 0u);
  EXPECT_EQ(fragments[0]->error_code,
            static_cast<uint32_t>(StatusCode::kDeadlineExceeded));
}

}  // namespace
}  // namespace saga
