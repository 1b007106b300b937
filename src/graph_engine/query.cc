#include "graph_engine/query.h"

#include <algorithm>

namespace saga::graph_engine {

std::vector<kg::TripleIdx> Match(const kg::KnowledgeGraph& kg,
                                 const TriplePattern& pattern) {
  const kg::TripleStore& store = kg.triples();
  std::vector<kg::TripleIdx> candidates;

  if (pattern.subject && pattern.predicate) {
    candidates = store.BySubjectPredicate(*pattern.subject,
                                          *pattern.predicate);
  } else if (pattern.subject) {
    const auto live = store.BySubject(*pattern.subject);
    candidates.assign(live.begin(), live.end());
  } else if (pattern.object && pattern.object->is_entity()) {
    candidates = store.ByObjectEntity(pattern.object->entity());
  } else if (pattern.predicate) {
    candidates = store.ByPredicate(*pattern.predicate);
  } else {
    store.ForEach([&candidates](kg::TripleIdx idx, const kg::Triple&) {
      candidates.push_back(idx);
    });
  }

  std::vector<kg::TripleIdx> out;
  out.reserve(candidates.size());
  for (kg::TripleIdx idx : candidates) {
    const kg::Triple& t = store.triple(idx);
    if (pattern.subject && t.subject != *pattern.subject) continue;
    if (pattern.predicate && t.predicate != *pattern.predicate) continue;
    if (pattern.object && !(t.object == *pattern.object)) continue;
    out.push_back(idx);
  }
  return out;
}

std::vector<kg::EntityId> FollowPath(
    const kg::KnowledgeGraph& kg, kg::EntityId start,
    const std::vector<kg::PredicateId>& path) {
  std::vector<kg::EntityId> frontier{start};
  for (kg::PredicateId p : path) {
    std::vector<kg::EntityId> next;
    for (kg::EntityId e : frontier) {
      for (const kg::Value& v : kg.ObjectsOf(e, p)) {
        if (v.is_entity()) next.push_back(v.entity());
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  if (!path.empty() || frontier.empty()) return frontier;
  return {};  // empty path: no hop taken, by convention no results
}

}  // namespace saga::graph_engine
