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

std::vector<kg::EntityId> FindEntities(
    const kg::KnowledgeGraph& kg,
    const std::vector<std::pair<kg::PredicateId, kg::Value>>& constraints) {
  if (constraints.empty()) return {};
  // Seed with subjects matching the first constraint, then filter.
  TriplePattern first;
  first.predicate = constraints[0].first;
  first.object = constraints[0].second;
  std::vector<kg::EntityId> candidates;
  for (kg::TripleIdx idx : Match(kg, first)) {
    candidates.push_back(kg.triples().triple(idx).subject);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::vector<kg::EntityId> out;
  for (kg::EntityId e : candidates) {
    bool all = true;
    for (size_t i = 1; i < constraints.size(); ++i) {
      if (!kg.triples().Contains(e, constraints[i].first,
                                 constraints[i].second)) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(e);
  }
  return out;
}

std::vector<kg::EntityId> JoinTwoHop(const kg::KnowledgeGraph& kg,
                                     kg::PredicateId p1, kg::PredicateId p2,
                                     const kg::Value& final_object) {
  TriplePattern mid_pattern;
  mid_pattern.predicate = p2;
  mid_pattern.object = final_object;
  std::vector<kg::EntityId> out;
  for (kg::TripleIdx mid_idx : Match(kg, mid_pattern)) {
    const kg::EntityId mid = kg.triples().triple(mid_idx).subject;
    TriplePattern outer;
    outer.predicate = p1;
    outer.object = kg::Value::Entity(mid);
    for (kg::TripleIdx idx : Match(kg, outer)) {
      out.push_back(kg.triples().triple(idx).subject);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
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

std::vector<kg::EntityId> IntersectSets(const std::vector<kg::EntityId>& a,
                                        const std::vector<kg::EntityId>& b) {
  std::vector<kg::EntityId> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<kg::EntityId> UnionSets(const std::vector<kg::EntityId>& a,
                                    const std::vector<kg::EntityId>& b) {
  std::vector<kg::EntityId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<kg::EntityId> DifferenceSets(
    const std::vector<kg::EntityId>& a, const std::vector<kg::EntityId>& b) {
  std::vector<kg::EntityId> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

}  // namespace saga::graph_engine
