#include "graph_engine/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

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

int ShortestPathLength(const kg::KnowledgeGraph& kg, kg::EntityId a,
                       kg::EntityId b, int max_depth) {
  if (a == b) return 0;
  std::unordered_map<kg::EntityId, int> dist;
  std::deque<kg::EntityId> frontier{a};
  dist[a] = 0;
  while (!frontier.empty()) {
    const kg::EntityId cur = frontier.front();
    frontier.pop_front();
    const int d = dist[cur];
    if (d >= max_depth) continue;
    for (kg::EntityId nb : kg.Neighbors(cur)) {
      if (nb == b) return d + 1;
      if (dist.emplace(nb, d + 1).second) frontier.push_back(nb);
    }
  }
  return -1;
}

std::vector<kg::EntityId> CommonNeighbors(const kg::KnowledgeGraph& kg,
                                          kg::EntityId a, kg::EntityId b) {
  std::vector<kg::EntityId> na = kg.Neighbors(a);
  std::vector<kg::EntityId> nb = kg.Neighbors(b);
  std::vector<kg::EntityId> out;
  std::set_intersection(na.begin(), na.end(), nb.begin(), nb.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace saga::graph_engine
