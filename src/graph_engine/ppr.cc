#include "graph_engine/ppr.h"

#include <algorithm>
#include <span>

#include "common/fault_injection.h"

namespace saga::graph_engine {

PprEngine::PprEngine(const GraphView* view) : PprEngine(view, Options()) {}

PprEngine::PprEngine(const GraphView* view, Options options)
    : view_(view), options_(options) {}

namespace {

constexpr uint8_t kTouched = 1;    // listed in `touched`
constexpr uint8_t kQueued = 2;     // in the push queue
constexpr uint8_t kEstimated = 4;  // has a PPR estimate entry

/// Dense push-loop state for one thread. Between calls every array
/// entry is zero and `touched` is empty; a call lists each node it
/// writes in `touched`, and ScratchLease zeroes exactly those on exit.
struct PprScratch {
  std::vector<double> r;  // residual
  std::vector<double> p;  // estimate
  std::vector<uint8_t> state;
  std::vector<uint32_t> touched;
  /// FIFO ring; a node is queued at most once at a time, so capacity
  /// >= node count never overflows.
  std::vector<uint32_t> queue;

  void Touch(uint32_t u) {
    if ((state[u] & kTouched) == 0) {
      state[u] = kTouched;
      touched.push_back(u);
    }
  }
};

/// Hands out this thread's scratch grown to `n` nodes, and resets it
/// through the touched list when the call ends, whatever the exit path.
class ScratchLease {
 public:
  explicit ScratchLease(size_t n) : s_(ThreadScratch()) {
    if (s_.r.size() < n) {
      s_.r.resize(n, 0.0);
      s_.p.resize(n, 0.0);
      s_.state.resize(n, 0);
      s_.queue.resize(n);
    }
  }
  ~ScratchLease() {
    for (uint32_t u : s_.touched) {
      s_.r[u] = 0.0;
      s_.p[u] = 0.0;
      s_.state[u] = 0;
    }
    s_.touched.clear();
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  PprScratch& get() { return s_; }

 private:
  static PprScratch& ThreadScratch() {
    thread_local PprScratch scratch;
    return scratch;
  }

  PprScratch& s_;
};

/// Andersen-Chung-Lang forward push from `source` into `s`, FIFO order.
/// Checks the deadline every 256 steps and consults the
/// `graph.traverse` fault point every step.
Status Push(const GraphView& view, const PprEngine::Options& o,
            uint32_t source, const RequestContext& ctx, PprScratch& s) {
  const size_t cap = s.queue.size();
  size_t head = 0;
  size_t queued = 0;
  auto enqueue = [&](uint32_t v) {
    s.queue[(head + queued++) % cap] = v;
    s.state[v] |= kQueued;
  };
  s.Touch(source);
  s.r[source] = 1.0;
  enqueue(source);

  size_t pushes = 0;
  size_t steps = 0;
  while (queued > 0 && pushes < o.max_pushes) {
    // Push-loop boundary: cooperative deadline check (strided — a push
    // touches at most one adjacency list) + fault consultation.
    if ((steps++ & 255) == 0) {
      SAGA_RETURN_IF_ERROR(ctx.Check("graph_engine.ppr"));
    }
    if (Faults().armed()) {
      SAGA_RETURN_IF_ERROR(Faults().InjectOp("graph.traverse"));
    }
    const uint32_t u = s.queue[head];
    head = head + 1 == cap ? 0 : head + 1;
    --queued;
    s.state[u] &= ~kQueued;
    const double ru = s.r[u];
    const std::span<const uint32_t> nbrs = view.Neighbors(u);
    const size_t deg = nbrs.size();
    if (deg == 0) {
      // Dangling node: absorb the residual.
      s.p[u] += ru;
      s.state[u] |= kEstimated;
      s.r[u] = 0.0;
      continue;
    }
    if (ru / static_cast<double>(deg) < o.epsilon) continue;
    ++pushes;
    s.p[u] += o.alpha * ru;
    s.state[u] |= kEstimated;
    const double push = (1.0 - o.alpha) * ru / static_cast<double>(deg);
    s.r[u] = 0.0;
    for (uint32_t v : nbrs) {
      s.Touch(v);
      s.r[v] += push;
      if ((s.state[v] & kQueued) == 0 &&
          s.r[v] / std::max<size_t>(1, view.Neighbors(v).size()) >=
              o.epsilon) {
        enqueue(v);
      }
    }
  }
  return Status::OK();
}

std::unordered_map<uint32_t, double> Estimates(const PprScratch& s) {
  std::unordered_map<uint32_t, double> out;
  out.reserve(s.touched.size());
  for (uint32_t u : s.touched) {
    if (s.state[u] & kEstimated) out.emplace(u, s.p[u]);
  }
  return out;
}

/// Top-k estimates excluding the source: score descending, then id.
std::vector<std::pair<uint32_t, double>> RankEstimates(const PprScratch& s,
                                                       uint32_t source,
                                                       size_t k) {
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(s.touched.size());
  for (uint32_t u : s.touched) {
    if ((s.state[u] & kEstimated) && u != source) out.emplace_back(u, s.p[u]);
  }
  auto better = [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  };
  if (out.size() > k) {
    std::partial_sort(out.begin(), out.begin() + k, out.end(), better);
    out.resize(k);
  } else {
    std::sort(out.begin(), out.end(), better);
  }
  return out;
}

}  // namespace

std::unordered_map<uint32_t, double> PprEngine::Ppr(uint32_t source) const {
  ScratchLease lease(view_->num_entities());
  if (!Push(*view_, options_, source, RequestContext(), lease.get()).ok()) {
    return {};
  }
  return Estimates(lease.get());
}

Result<std::vector<std::pair<uint32_t, double>>> PprEngine::TopKRelated(
    uint32_t source, size_t k, const RequestContext& ctx) const {
  ScratchLease lease(view_->num_entities());
  SAGA_RETURN_IF_ERROR(Push(*view_, options_, source, ctx, lease.get()));
  return RankEstimates(lease.get(), source, k);
}

}  // namespace saga::graph_engine
