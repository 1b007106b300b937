#include "odke/query_synthesizer.h"

#include "common/string_util.h"

namespace saga::odke {

namespace {

/// Cap on generated query variants per gap.
constexpr size_t kMaxQueries = 4;

}  // namespace

QuerySynthesizer::QuerySynthesizer(const kg::KnowledgeGraph* kg) : kg_(kg) {}

std::vector<std::string> QuerySynthesizer::Synthesize(
    const FactGap& gap) const {
  const kg::EntityRecord& rec = kg_->catalog().record(gap.subject);
  const kg::PredicateMeta& pred = kg_->ontology().predicate(gap.predicate);
  std::vector<std::string> queries;

  // Context term: first occupation-ish entity neighbor name (cheap
  // proxy for "music artist" vs "actress").
  std::string context;
  auto occ = kg_->ontology().FindPredicate("occupation");
  if (occ.ok()) {
    for (const kg::Value& v : kg_->ObjectsOf(gap.subject, occ.value())) {
      if (v.is_entity()) {
        context = kg_->catalog().name(v.entity());
        break;
      }
    }
  }

  queries.push_back(rec.canonical_name + " " + pred.surface_form);
  if (!context.empty()) {
    queries.push_back(rec.canonical_name + " " + context + " " +
                      pred.surface_form);
  }
  for (const std::string& alias : rec.aliases) {
    if (queries.size() >= kMaxQueries) break;
    if (alias == rec.canonical_name) continue;
    queries.push_back(alias + " " + pred.surface_form);
  }
  if (queries.size() < kMaxQueries) {
    queries.push_back(rec.canonical_name + " profile");
  }
  if (queries.size() > kMaxQueries) queries.resize(kMaxQueries);
  return queries;
}

}  // namespace saga::odke
