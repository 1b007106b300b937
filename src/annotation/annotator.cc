#include "annotation/annotator.h"

#include "common/metrics.h"

namespace saga::annotation {

namespace {

/// kBalanced skips mentions whose best prior is under this.
constexpr double kMinPrior = 0.15;

}  // namespace

Annotator::Annotator(const kg::KnowledgeGraph* kg,
                     serving::EmbeddingKvCache* cache)
    : Annotator(kg, cache, Options()) {}

Annotator::Annotator(const kg::KnowledgeGraph* kg,
                     serving::EmbeddingKvCache* cache, Options options)
    : kg_(kg),
      cache_(cache),
      options_(options),
      detector_(&kg->catalog()),
      candidates_(&kg->catalog()),
      reranker_(kg),
      cheap_reranker_(kg, [] {
        ContextReranker::Options cheap;
        cheap.name_only_profiles = true;
        cheap.context_window = 60;
        return cheap;
      }()) {}

kg::TypeId Annotator::MostSpecificType(kg::EntityId id) const {
  // Most specific = the type with no subtype also present.
  const auto& types = kg_->catalog().record(id).types;
  kg::TypeId best = kg::TypeId::Invalid();
  for (kg::TypeId t : types) {
    bool has_more_specific = false;
    for (kg::TypeId other : types) {
      if (other != t && kg_->ontology().IsSubtypeOf(other, t)) {
        has_more_specific = true;
        break;
      }
    }
    if (!has_more_specific) best = t;
  }
  return best;
}

std::vector<Annotation> Annotator::Annotate(std::string_view text) const {
  obs::ScopedLatency timer(SAGA_LATENCY("annotation.annotator.annotate_ns"));
  std::vector<Annotation> out;
  for (const Mention& mention : detector_.Detect(text)) {
    SAGA_COUNTER("annotation.annotator.mentions").Add();
    std::vector<Candidate> cands = candidates_.Candidates(mention.surface);
    if (cands.empty()) continue;  // NIL mention

    Annotation ann;
    ann.mention = mention;
    switch (options_.preset) {
      case DeploymentPreset::kFast: {
        ann.entity = cands[0].entity;
        ann.score = cands[0].prior;
        break;
      }
      case DeploymentPreset::kBalanced: {
        if (cands[0].prior < kMinPrior) continue;
        if (cands.size() == 1) {
          ann.entity = cands[0].entity;
          ann.score = cands[0].prior;
          break;
        }
        // Distilled reranker: no profile cache (profiles are cheap).
        const auto scored =
            cheap_reranker_.Rerank(cands, text, mention, nullptr);
        ann.entity = scored[0].candidate.entity;
        ann.score = scored[0].score;
        break;
      }
      case DeploymentPreset::kAccurate: {
        if (options_.rerank_only_ambiguous && cands.size() == 1) {
          ann.entity = cands[0].entity;
          ann.score = cands[0].prior;
          break;
        }
        const auto scored =
            reranker_.Rerank(cands, text, mention, cache_);
        ann.entity = scored[0].candidate.entity;
        ann.score = scored[0].score;
        break;
      }
    }
    if (ann.score < kMinScore) continue;
    ann.type = MostSpecificType(ann.entity);
    SAGA_COUNTER("annotation.annotator.annotations").Add();
    out.push_back(std::move(ann));
  }
  return out;
}

}  // namespace saga::annotation
