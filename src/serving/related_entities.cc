#include "serving/related_entities.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace saga::serving {

RelatedEntitiesService::RelatedEntitiesService(
    const kg::KnowledgeGraph* kg, const graph_engine::GraphView* view,
    const EmbeddingService* embeddings)
    : RelatedEntitiesService(kg, view, embeddings, Options()) {}

RelatedEntitiesService::RelatedEntitiesService(
    const kg::KnowledgeGraph* kg, const graph_engine::GraphView* view,
    const EmbeddingService* embeddings, Options options)
    : kg_(kg), view_(view), embeddings_(embeddings), options_(options) {
  ppr_ = std::make_unique<graph_engine::PprEngine>(view_);
}

bool RelatedEntitiesService::PassesTypeFilter(kg::EntityId id,
                                              kg::TypeId type) const {
  if (!type.valid()) return true;
  for (kg::TypeId has : kg_->catalog().record(id).types) {
    if (kg_->ontology().IsSubtypeOf(has, type)) return true;
  }
  return false;
}

Result<std::vector<std::pair<kg::EntityId, double>>>
RelatedEntitiesService::PprRelated(kg::EntityId id, size_t k,
                                   kg::TypeId type_filter,
                                   const RequestContext& ctx) const {
  const uint32_t local = view_->local_entity(id);
  std::vector<std::pair<kg::EntityId, double>> out;
  if (local == graph_engine::GraphView::kNotInView) return out;
  SAGA_ASSIGN_OR_RETURN(auto ranked, ppr_->TopKRelated(local, k * 8 + 16, ctx));
  for (const auto& [l, score] : ranked) {
    const kg::EntityId e = view_->global_entity(l);
    if (!PassesTypeFilter(e, type_filter)) continue;
    out.emplace_back(e, score);
    if (out.size() == k) break;
  }
  return out;
}

Result<std::vector<std::pair<kg::EntityId, double>>>
RelatedEntitiesService::Related(kg::EntityId id, size_t k,
                                kg::TypeId type_filter,
                                const RequestContext& ctx) const {
  SAGA_RETURN_IF_ERROR(ctx.Check("serving.related.start"));
  std::unordered_set<kg::EntityId> excluded;
  excluded.insert(id);
  if (options_.exclude_direct_neighbors) {
    for (kg::EntityId nb : kg_->Neighbors(id)) excluded.insert(nb);
  }
  auto filter = [&](std::vector<std::pair<kg::EntityId, double>> hits) {
    std::vector<std::pair<kg::EntityId, double>> out;
    for (auto& [e, s] : hits) {
      if (excluded.count(e)) continue;
      out.emplace_back(e, s);
      if (out.size() == k) break;
    }
    return out;
  };

  switch (options_.mode) {
    case Mode::kEmbedding: {
      SAGA_ASSIGN_OR_RETURN(
          auto hits,
          embeddings_->TopKNeighbors(
              id, k + excluded.size() + 8, type_filter, ctx));
      return filter(std::move(hits));
    }
    case Mode::kPpr: {
      SAGA_ASSIGN_OR_RETURN(
          auto hits,
          PprRelated(id, k + excluded.size() + 8, type_filter, ctx));
      return filter(std::move(hits));
    }
    case Mode::kBlend: {
      SAGA_ASSIGN_OR_RETURN(
          auto emb_hits,
          embeddings_->TopKNeighbors(id, k * 4 + 16, type_filter, ctx));
      SAGA_ASSIGN_OR_RETURN(auto ppr_hits,
                            PprRelated(id, k * 4 + 16, type_filter, ctx));
      // Reciprocal-rank fusion: robust to incomparable score scales.
      std::unordered_map<kg::EntityId, double> fused;
      const double w = options_.blend_embedding_weight;
      for (size_t i = 0; i < emb_hits.size(); ++i) {
        fused[emb_hits[i].first] += w / (60.0 + static_cast<double>(i));
      }
      for (size_t i = 0; i < ppr_hits.size(); ++i) {
        fused[ppr_hits[i].first] +=
            (1.0 - w) / (60.0 + static_cast<double>(i));
      }
      std::vector<std::pair<kg::EntityId, double>> merged(fused.begin(),
                                                          fused.end());
      std::sort(merged.begin(), merged.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second > b.second;
                  return a.first < b.first;
                });
      return filter(std::move(merged));
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace saga::serving
