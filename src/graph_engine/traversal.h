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

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_TRAVERSAL_H_
