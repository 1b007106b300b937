#include "annotation/query_answering.h"

#include "common/metrics.h"
#include "text/tokenizer.h"

namespace saga::annotation {

QueryAnswerer::QueryAnswerer(const kg::KnowledgeGraph* kg,
                             const serving::FactRanker* ranker)
    : kg_(kg), ranker_(ranker), annotator_(kg, nullptr) {}

kg::PredicateId QueryAnswerer::ResolvePredicate(
    const std::set<std::string, std::less<>>& tokens,
    kg::EntityId subject) const {
  kg::PredicateId best;
  double best_score = 0.0;
  for (const kg::PredicateMeta& meta : kg_->ontology().predicates()) {
    // Base score: fraction of the predicate's surface-form tokens
    // present in the query remainder; only full matches qualify.
    size_t total = 0;
    size_t hits = 0;
    text::ForEachToken(meta.surface_form,
                       [&](std::string_view tok, size_t, size_t, bool) {
                         ++total;
                         if (tokens.find(tok) != tokens.end()) ++hits;
                       });
    if (total == 0) continue;
    double score = static_cast<double>(hits) / static_cast<double>(total);
    if (score < 0.99) continue;
    // Tiebreakers among full matches: prefer longer surface matches
    // ("movies directed" beats "movies") and relations the linked
    // subject actually holds.
    score += 0.01 * static_cast<double>(hits);
    if (subject.valid() && kg_->triples().HasFact(subject, meta.id)) {
      score += 0.005;
    }
    if (score > best_score) {
      best_score = score;
      best = meta.id;
    }
  }
  return best_score >= 0.99 ? best : kg::PredicateId::Invalid();
}

Result<QueryAnswerer::Answer> QueryAnswerer::Ask(
    std::string_view query, const RequestContext& ctx) const {
  auto stage = SAGA_STAGE("serving.qa.ask");
  Answer answer;
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.qa.annotate"));

  // 1. Link the entity mention with full contextual annotation (the
  //    query text itself is the disambiguation context: "michael
  //    jordan stats" vs "michael jordan students").
  const std::vector<Annotation> annotations = annotator_.Annotate(query);
  if (annotations.empty()) {
    answer.explanation = "no entity mention recognized";
    return answer;
  }
  const Annotation* subject_ann = &annotations[0];
  for (const Annotation& a : annotations) {
    if (a.mention.surface.size() > subject_ann->mention.surface.size()) {
      subject_ann = &a;
    }
  }
  answer.subject = subject_ann->entity;
  answer.subject_score = subject_ann->score;
  // Stage boundary: annotation (the expensive stage) is done.
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.qa.resolve"));

  // 2. Resolve the relation from the tokens outside the mention span.
  std::set<std::string, std::less<>> remainder;
  text::ForEachToken(query, [&](std::string_view tok, size_t begin,
                                size_t end, bool) {
    if (begin < subject_ann->mention.begin ||
        end > subject_ann->mention.end) {
      remainder.emplace(tok);
    }
  });
  answer.predicate = ResolvePredicate(remainder, answer.subject);
  answer.explanation = "\"" + subject_ann->mention.surface + "\" -> " +
                       kg_->catalog().name(answer.subject);
  if (!answer.predicate.valid()) {
    answer.explanation += " | no relation resolved";
    return answer;
  }
  answer.explanation +=
      " | relation: " + kg_->ontology().predicate_name(answer.predicate);
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.qa.rank"));

  // 3. Retrieve + rank facts.
  if (ranker_ != nullptr) {
    answer.facts = ranker_->Rank(answer.subject, answer.predicate);
  }
  if (answer.facts.empty()) {
    for (const kg::Value& v :
         kg_->ObjectsOf(answer.subject, answer.predicate)) {
      serving::FactRanker::RankedFact f;
      f.object = v;
      answer.facts.push_back(std::move(f));
    }
  }
  answer.answered = !answer.facts.empty();
  return answer;
}

}  // namespace saga::annotation
