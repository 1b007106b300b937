#ifndef SAGA_GRAPH_ENGINE_PPR_H_
#define SAGA_GRAPH_ENGINE_PPR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/request_context.h"
#include "common/result.h"
#include "graph_engine/view.h"

namespace saga::graph_engine {

/// Personalized PageRank over a graph view, via the Andersen-Chung-Lang
/// forward-push approximation. Serves as the classical (non-embedding)
/// related-entities baseline and as a graph-signal feature.
///
/// Thread-safe: calls share only the immutable view. The push loop runs
/// on dense per-thread scratch arrays sized to the view, which every
/// call leaves zeroed on every exit path (success, deadline, injected
/// fault), so a failed call never leaks state into the next one.
class PprEngine {
 public:
  struct Options {
    double alpha = 0.15;    // teleport probability
    double epsilon = 1e-4;  // push threshold (residual/degree)
    size_t max_pushes = 1000000;
  };

  explicit PprEngine(const GraphView* view);
  PprEngine(const GraphView* view, Options options);

  /// Top-k highest-PPR entities (local ids) excluding the source
  /// itself, score descending then id. Checks `ctx` at push-loop
  /// boundaries (forward push is the PPR hot loop) and returns
  /// DeadlineExceeded once the budget is spent. Consults the
  /// `graph.traverse` fault point for latency/failure injection.
  Result<std::vector<std::pair<uint32_t, double>>> TopKRelated(
      uint32_t source, size_t k, const RequestContext& ctx) const;

  /// Offline accessor: the full approximate PPR vector from `source`
  /// (local id), nonzero entries only. Runs the same push loop under
  /// `RequestContext()`, which never expires, so only an armed
  /// `graph.traverse` fault can stop it; it then returns an empty map.
  std::unordered_map<uint32_t, double> Ppr(uint32_t source) const;

 private:
  const GraphView* view_;
  Options options_;
};

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_PPR_H_
