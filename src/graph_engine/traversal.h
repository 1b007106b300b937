#ifndef SAGA_GRAPH_ENGINE_TRAVERSAL_H_
#define SAGA_GRAPH_ENGINE_TRAVERSAL_H_

#include <unordered_map>
#include <vector>

#include "kg/knowledge_graph.h"

namespace saga::graph_engine {

/// Entities within `k` hops of `start` over entity edges (undirected),
/// excluding `start`, mapped to their hop distance. Traversal stops
/// after visiting `max_nodes` entities.
std::unordered_map<kg::EntityId, int> KHopNeighbors(
    const kg::KnowledgeGraph& kg, kg::EntityId start, int k,
    size_t max_nodes = 100000);

/// Undirected shortest-path length between a and b, or -1 if no path is
/// found within `max_depth` hops.
int ShortestPathLength(const kg::KnowledgeGraph& kg, kg::EntityId a,
                       kg::EntityId b, int max_depth = 6);

/// Entities adjacent to both a and b.
std::vector<kg::EntityId> CommonNeighbors(const kg::KnowledgeGraph& kg,
                                          kg::EntityId a, kg::EntityId b);

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_TRAVERSAL_H_
