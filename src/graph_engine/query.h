#ifndef SAGA_GRAPH_ENGINE_QUERY_H_
#define SAGA_GRAPH_ENGINE_QUERY_H_

#include <optional>
#include <vector>

#include "kg/knowledge_graph.h"

namespace saga::graph_engine {

/// A triple pattern with any combination of bound positions; unbound
/// positions are wildcards. ("benicio del toro", directed, ?movie).
struct TriplePattern {
  std::optional<kg::EntityId> subject;
  std::optional<kg::PredicateId> predicate;
  std::optional<kg::Value> object;
};

/// Live triples matching the pattern, using the cheapest available
/// index (SP > S > O-entity > P > full scan).
std::vector<kg::TripleIdx> Match(const kg::KnowledgeGraph& kg,
                                 const TriplePattern& pattern);

/// Multi-hop path composition (§2 "multi-hop reasoning"): the sorted
/// set of entities reachable from `start` by following the predicates
/// in order over entity edges, e.g. spouse -> plays_for -> team_city =
/// "cities of the teams of X's spouse".
std::vector<kg::EntityId> FollowPath(
    const kg::KnowledgeGraph& kg, kg::EntityId start,
    const std::vector<kg::PredicateId>& path);

}  // namespace saga::graph_engine

#endif  // SAGA_GRAPH_ENGINE_QUERY_H_
