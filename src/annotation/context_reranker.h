#ifndef SAGA_ANNOTATION_CONTEXT_RERANKER_H_
#define SAGA_ANNOTATION_CONTEXT_RERANKER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "annotation/types.h"
#include "common/result.h"
#include "kg/knowledge_graph.h"
#include "serving/kv_cache.h"
#include "text/hashing_vectorizer.h"

namespace saga::annotation {

/// Contextual entity disambiguation (§3): "Michael Jordan stats" links
/// to the basketball player, "Michael Jordan students" to the
/// professor. Each entity gets a textual-profile embedding built from
/// its name, description, types, and graph neighborhood; candidates are
/// scored by similarity between that profile and the mention's textual
/// context, blended with the popularity prior.
class ContextReranker {
 public:
  struct Options {
    /// Characters of document text around the mention used as context.
    size_t context_window = 200;
    /// Distilled profile: name + type names only, skipping the graph
    /// neighborhood — the cheap model tier of §3.2 ("model distillation
    /// and compression ... to meet different price/performance SLAs").
    bool name_only_profiles = false;
  };

  struct Scored {
    Candidate candidate;
    double score = 0.0;
    double context_similarity = 0.0;
  };

  ContextReranker(const kg::KnowledgeGraph* kg);
  ContextReranker(const kg::KnowledgeGraph* kg, Options options);

  /// Builds the textual profile text of an entity: its profile pieces
  /// (see ForEachProfilePiece) joined with " ".
  std::string EntityProfileText(kg::EntityId id) const;

  /// Precomputes every entity's profile embedding into the given cache
  /// (the §3.2 "precompute and cache in a low-latency KV store" step).
  Status PrecomputeProfiles(serving::EmbeddingKvCache* cache) const;

  /// Reranks candidates for a mention given the surrounding document
  /// text. When `cache` is non-null, a candidate it holds is scored by
  /// a sparse dot product against its stored profile; any other is
  /// computed on the fly (the path the Fig-4 ablation measures) as a
  /// sparse vector straight from the KG. Either way the score is
  /// Cosine(context, profile) bit for bit.
  std::vector<Scored> Rerank(const std::vector<Candidate>& candidates,
                             std::string_view document_text,
                             const Mention& mention,
                             serving::EmbeddingKvCache* cache) const;

  /// The on-the-fly context similarity Rerank gives `id` without a
  /// cache: `context_vec` (an Embed of vectorizer()) against the
  /// profile embedding, built as a sparse vector straight from the KG.
  /// Bit-identical to Cosine(context_vec, Embed(EntityProfileText(id))).
  double ProfileSimilarity(kg::EntityId id,
                           const std::vector<float>& context_vec) const;

  const text::HashingVectorizer& vectorizer() const { return vectorizer_; }

 private:
  /// Calls fn(piece) for each piece of the entity's profile, in order:
  /// name, description, type names, then (unless name_only_profiles)
  /// the predicate surface form of each of its first 24 live triples,
  /// each followed by the object's name when the object is an entity.
  template <typename Fn>
  void ForEachProfilePiece(kg::EntityId id, Fn&& fn) const;
  /// Sparse profile embedding of `id` in this thread's scratch storage,
  /// valid until the thread's next call.
  const text::SparseVector& ProfileSparse(kg::EntityId id) const;
  std::string_view ContextText(std::string_view document_text,
                               const Mention& mention) const;

  const kg::KnowledgeGraph* kg_;
  Options options_;
  text::HashingVectorizer vectorizer_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_CONTEXT_RERANKER_H_
