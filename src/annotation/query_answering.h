#ifndef SAGA_ANNOTATION_QUERY_ANSWERING_H_
#define SAGA_ANNOTATION_QUERY_ANSWERING_H_

#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/annotator.h"
#include "common/request_context.h"
#include "common/result.h"
#include "kg/knowledge_graph.h"
#include "serving/fact_ranker.h"

namespace saga::annotation {

/// Answers entity-centric queries — the paper's §1 motivating example:
/// "benicio del toro movies" is semantically annotated as
/// ("benicio del toro" -> entity, "movies" -> relation surface form),
/// then resolved against the KG with importance-ranked facts.
class QueryAnswerer {
 public:
  struct Answer {
    bool answered = false;
    /// The linked subject entity of the query.
    kg::EntityId subject;
    double subject_score = 0.0;
    /// The relation resolved from the non-entity query tokens.
    kg::PredicateId predicate;
    /// Ranked objects (entity facts ranked by the fact ranker; literal
    /// facts in KG order).
    std::vector<serving::FactRanker::RankedFact> facts;
    /// Human-readable derivation, e.g.
    /// `"benicio del toro" -> E123 | "movies" -> acted_in`.
    std::string explanation;
  };

  /// `ranker` may be null: facts then keep KG order.
  QueryAnswerer(const kg::KnowledgeGraph* kg,
                const serving::FactRanker* ranker);

  /// Annotates the query, resolves the relation, then retrieves and
  /// ranks facts. Checks the budget between those stages and returns
  /// DeadlineExceeded rather than a half-computed answer. Annotation is
  /// the expensive stage; a budget that survives it usually finishes.
  /// Under `RequestContext()` (no deadline) it always answers.
  Result<Answer> Ask(std::string_view query, const RequestContext& ctx) const;

 private:
  /// Best predicate whose surface-form tokens all appear in the query
  /// remainder `tokens`; ties break toward longer surface matches and
  /// predicates the subject actually holds. Invalid() if none match.
  kg::PredicateId ResolvePredicate(
      const std::set<std::string, std::less<>>& tokens,
      kg::EntityId subject) const;

  const kg::KnowledgeGraph* kg_;
  const serving::FactRanker* ranker_;
  Annotator annotator_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_QUERY_ANSWERING_H_
