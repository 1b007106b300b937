#include "odke/query_log.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"

namespace saga::odke {

std::vector<FactQuery> GenerateQueryLog(const kg::GeneratedKg& gen,
                                        size_t num_queries, Rng* rng) {
  const kg::KnowledgeGraph& kg = gen.kg;
  // Askable facts: every functional ground-truth fact (present or
  // withheld — users do not know what the KG lacks).
  const auto& facts = gen.functional_facts;
  std::vector<FactQuery> log;
  if (facts.empty()) return log;

  // Popularity-proportional sampling via cumulative weights.
  std::vector<double> cumulative;
  cumulative.reserve(facts.size());
  double total = 0.0;
  for (const auto& f : facts) {
    total += kg.catalog().popularity(f.subject) + 0.01;
    cumulative.push_back(total);
  }
  for (size_t i = 0; i < num_queries; ++i) {
    const double u = rng->UniformDouble(0.0, total);
    const size_t idx = static_cast<size_t>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    const auto& f = facts[std::min(idx, facts.size() - 1)];
    FactQuery q;
    q.subject = f.subject;
    q.predicate = f.predicate;
    q.text = ToLower(kg.catalog().name(f.subject)) + " " +
             kg.ontology().predicate(f.predicate).surface_form;
    log.push_back(std::move(q));
  }
  return log;
}

std::vector<FactGap> FindUnansweredQueries(
    const kg::KnowledgeGraph& kg, const std::vector<FactQuery>& log) {
  // (subject, predicate) -> ask count, for unanswered queries only.
  std::map<std::pair<kg::EntityId, kg::PredicateId>, size_t> unanswered;
  for (const FactQuery& q : log) {
    if (!kg.triples().HasFact(q.subject, q.predicate)) {
      ++unanswered[{q.subject, q.predicate}];
    }
  }
  std::vector<std::pair<std::pair<kg::EntityId, kg::PredicateId>, size_t>>
      ordered(unanswered.begin(), unanswered.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  std::vector<FactGap> gaps;
  gaps.reserve(ordered.size());
  for (const auto& [key, count] : ordered) {
    gaps.push_back(
        FactGap{key.first, key.second, GapReason::kQueryLog,
                kg::kInvalidTripleIdx});
  }
  return gaps;
}

std::vector<FactGap> FindTrendingGaps(const kg::KnowledgeGraph& kg,
                                      const std::vector<FactQuery>& old_window,
                                      const std::vector<FactQuery>& new_window,
                                      double min_growth, size_t min_asks) {
  using Key = std::pair<kg::EntityId, kg::PredicateId>;
  std::map<Key, size_t> old_counts;
  std::map<Key, size_t> new_counts;
  for (const FactQuery& q : old_window) {
    ++old_counts[{q.subject, q.predicate}];
  }
  for (const FactQuery& q : new_window) {
    ++new_counts[{q.subject, q.predicate}];
  }
  std::vector<std::pair<double, Key>> trending;
  for (const auto& [key, count] : new_counts) {
    if (count < min_asks) continue;
    auto it = old_counts.find(key);
    const double old_count =
        it == old_counts.end() ? 0.0 : static_cast<double>(it->second);
    const double growth = static_cast<double>(count) / (old_count + 1.0);
    if (growth < min_growth) continue;
    if (kg.triples().HasFact(key.first, key.second)) {
      continue;  // already covered
    }
    trending.emplace_back(growth, key);
  }
  std::sort(trending.begin(), trending.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<FactGap> gaps;
  gaps.reserve(trending.size());
  for (const auto& [growth, key] : trending) {
    gaps.push_back(FactGap{key.first, key.second, GapReason::kTrending,
                           kg::kInvalidTripleIdx});
  }
  return gaps;
}

}  // namespace saga::odke
