#ifndef SAGA_TESTS_REFERENCE_GRAPH_H_
#define SAGA_TESTS_REFERENCE_GRAPH_H_

// Reference personalized PageRank for oracle tests and gates: the
// hash-map forward push PprEngine ran before it moved to dense scratch
// arrays. It pops in the same FIFO order over the same adjacency order,
// so PprEngine must reproduce its scores bit for bit.

#include <algorithm>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph_engine/ppr.h"
#include "graph_engine/view.h"

namespace saga::graph_engine::reference {

/// The undirected adjacency the view served before it kept a CSR array:
/// per node, the other end of each incident edge, in edge order.
inline std::vector<std::vector<uint32_t>> EdgeOrderAdjacency(
    const GraphView& view) {
  std::vector<std::vector<uint32_t>> adj(view.num_entities());
  for (const ViewEdge& e : view.edges()) {
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  return adj;
}

struct OraclePpr {
  std::unordered_map<uint32_t, double> p;
  size_t steps = 0;  // queue pops, as the engine's deadline stride counts
};

/// Forward push from `source` over `adj` (EdgeOrderAdjacency of the
/// view) with PprEngine's constants.
inline OraclePpr HashMapPpr(const std::vector<std::vector<uint32_t>>& adj,
                            uint32_t source) {
  OraclePpr out;
  std::unordered_map<uint32_t, double>& p = out.p;
  std::unordered_map<uint32_t, double> r;
  r[source] = 1.0;
  std::deque<uint32_t> queue{source};
  std::unordered_map<uint32_t, bool> queued;
  queued[source] = true;
  size_t pushes = 0;
  while (!queue.empty() && pushes < PprEngine::kMaxPushes) {
    ++out.steps;
    const uint32_t u = queue.front();
    queue.pop_front();
    queued[u] = false;
    const double ru = r[u];
    const size_t deg = adj[u].size();
    if (deg == 0) {
      p[u] += ru;
      r[u] = 0.0;
      continue;
    }
    if (ru / static_cast<double>(deg) < PprEngine::kEpsilon) continue;
    ++pushes;
    p[u] += PprEngine::kAlpha * ru;
    const double push =
        (1.0 - PprEngine::kAlpha) * ru / static_cast<double>(deg);
    r[u] = 0.0;
    for (uint32_t v : adj[u]) {
      r[v] += push;
      if (!queued[v] &&
          r[v] / std::max<size_t>(1, adj[v].size()) >= PprEngine::kEpsilon) {
        queue.push_back(v);
        queued[v] = true;
      }
    }
  }
  return out;
}

/// The top k of `scores` excluding `source`: score descending, then id.
inline std::vector<std::pair<uint32_t, double>> OracleTopK(
    const std::unordered_map<uint32_t, double>& scores, uint32_t source,
    size_t k) {
  std::vector<std::pair<uint32_t, double>> out;
  for (const auto& [node, score] : scores) {
    if (node != source) out.emplace_back(node, score);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace saga::graph_engine::reference

#endif  // SAGA_TESTS_REFERENCE_GRAPH_H_
