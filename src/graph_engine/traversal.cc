#include "graph_engine/traversal.h"

#include <deque>

namespace saga::graph_engine {

std::unordered_map<kg::EntityId, int> KHopNeighbors(
    const kg::KnowledgeGraph& kg, kg::EntityId start, int k,
    size_t max_nodes) {
  std::unordered_map<kg::EntityId, int> dist;
  std::deque<kg::EntityId> frontier{start};
  dist[start] = 0;
  while (!frontier.empty() && dist.size() < max_nodes) {
    const kg::EntityId cur = frontier.front();
    frontier.pop_front();
    const int d = dist[cur];
    if (d >= k) continue;
    for (kg::EntityId nb : kg.Neighbors(cur)) {
      if (dist.emplace(nb, d + 1).second) {
        frontier.push_back(nb);
        if (dist.size() >= max_nodes) break;
      }
    }
  }
  dist.erase(start);
  return dist;
}

}  // namespace saga::graph_engine
