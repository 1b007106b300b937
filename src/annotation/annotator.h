#ifndef SAGA_ANNOTATION_ANNOTATOR_H_
#define SAGA_ANNOTATION_ANNOTATOR_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/candidate_generator.h"
#include "annotation/context_reranker.h"
#include "annotation/mention_detector.h"
#include "annotation/types.h"
#include "kg/knowledge_graph.h"
#include "serving/kv_cache.h"

namespace saga::annotation {

/// Modular deployment presets trading quality for cost (§3.2: services
/// are "modular, allowing custom deployments ... to balance quality
/// (precision and recall) and performance (latency and throughput)").
enum class DeploymentPreset {
  /// Mention detection + top-prior candidate. Cheapest.
  kFast,
  /// + distilled reranker for ambiguous mentions: name/type-only
  /// profiles over a narrow context window (§3.2 distillation).
  kBalanced,
  /// + full contextual reranking (graph-neighborhood profiles, wide
  /// window, cached embeddings). Best quality, highest cost.
  kAccurate,
};

/// End-to-end semantic annotator: detect -> candidates -> (rerank) ->
/// threshold.
class Annotator {
 public:
  struct Options {
    DeploymentPreset preset = DeploymentPreset::kAccurate;
    /// kAccurate: skip reranking for unambiguous mentions (1 candidate).
    bool rerank_only_ambiguous = true;
  };

  /// Annotations scoring below this (a context that points away from
  /// the entity's profile) are dropped (NIL).
  static constexpr double kMinScore = 0.0;

  /// `cache` may be null; kAccurate then computes profiles on the fly.
  Annotator(const kg::KnowledgeGraph* kg, serving::EmbeddingKvCache* cache);
  Annotator(const kg::KnowledgeGraph* kg, serving::EmbeddingKvCache* cache,
            Options options);

  /// Annotates free text.
  std::vector<Annotation> Annotate(std::string_view text) const;

  const ContextReranker& reranker() const { return reranker_; }

 private:
  kg::TypeId MostSpecificType(kg::EntityId id) const;

  const kg::KnowledgeGraph* kg_;
  serving::EmbeddingKvCache* cache_;
  Options options_;
  MentionDetector detector_;
  CandidateGenerator candidates_;
  ContextReranker reranker_;
  /// Cheap distilled reranker used by the balanced preset.
  ContextReranker cheap_reranker_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_ANNOTATOR_H_
