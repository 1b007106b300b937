#include "annotation/context_reranker.h"

#include <algorithm>

namespace saga::annotation {

ContextReranker::ContextReranker(const kg::KnowledgeGraph* kg)
    : ContextReranker(kg, Options()) {}

ContextReranker::ContextReranker(const kg::KnowledgeGraph* kg,
                                 Options options)
    : kg_(kg), options_(options) {}

template <typename Fn>
void ContextReranker::ForEachProfilePiece(kg::EntityId id, Fn&& fn) const {
  const kg::EntityRecord& rec = kg_->catalog().record(id);
  fn(std::string_view(rec.canonical_name));
  fn(std::string_view(rec.description));
  for (kg::TypeId t : rec.types) {
    fn(std::string_view(kg_->ontology().type_name(t)));
  }
  if (options_.name_only_profiles) return;  // distilled tier
  // Graph neighborhood: names of linked entities carry exactly the
  // context words that disambiguate namesakes (team names for the
  // player, university names for the professor).
  size_t neighbors = 0;
  for (kg::TripleIdx idx : kg_->triples().BySubject(id)) {
    const kg::Triple& t = kg_->triples().triple(idx);
    fn(std::string_view(kg_->ontology().predicate(t.predicate).surface_form));
    if (t.object.is_entity()) {
      fn(std::string_view(kg_->catalog().name(t.object.entity())));
    }
    if (++neighbors >= 24) break;
  }
}

std::string ContextReranker::EntityProfileText(kg::EntityId id) const {
  std::string profile;
  bool first = true;
  ForEachProfilePiece(id, [&](std::string_view piece) {
    if (!first) profile += ' ';
    profile += piece;
    first = false;
  });
  return profile;
}

const text::SparseVector& ContextReranker::ProfileSparse(
    kg::EntityId id) const {
  // Reused across calls, so a warm thread allocates nothing here.
  thread_local std::vector<std::string_view> pieces;
  thread_local text::SparseVector vec;
  pieces.clear();
  ForEachProfilePiece(id,
                      [](std::string_view piece) { pieces.push_back(piece); });
  vectorizer_.EmbedPieces(pieces, &vec);
  return vec;
}

double ContextReranker::ProfileSimilarity(
    kg::EntityId id, const std::vector<float>& context_vec) const {
  return text::HashingVectorizer::Dot(ProfileSparse(id), context_vec);
}

Status ContextReranker::PrecomputeProfiles(
    serving::EmbeddingKvCache* cache) const {
  for (const auto& rec : kg_->catalog().records()) {
    SAGA_RETURN_IF_ERROR(
        cache->Put(rec.id, vectorizer_.ToDense(ProfileSparse(rec.id))));
  }
  SAGA_RETURN_IF_ERROR(cache->kv()->Flush());
  return Status::OK();
}

std::string_view ContextReranker::ContextText(std::string_view document_text,
                                              const Mention& mention) const {
  const size_t window = options_.context_window;
  const size_t begin = mention.begin > window ? mention.begin - window : 0;
  const size_t end =
      std::min(document_text.size(), mention.end + window);
  return document_text.substr(begin, end - begin);
}

std::vector<ContextReranker::Scored> ContextReranker::Rerank(
    const std::vector<Candidate>& candidates,
    std::string_view document_text, const Mention& mention,
    serving::EmbeddingKvCache* cache) const {
  const std::vector<float> context_vec =
      vectorizer_.Embed(ContextText(document_text, mention));

  auto similarity = [&](kg::EntityId id) {
    if (cache != nullptr) {
      if (const auto stored = cache->Find(id)) {
        return text::HashingVectorizer::Dot(stored->sparse, context_vec);
      }
    }
    return ProfileSimilarity(id, context_vec);
  };

  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    Scored s;
    s.candidate = c;
    s.context_similarity = similarity(c.entity);
    s.score = options_.context_weight * s.context_similarity +
              options_.prior_weight * c.prior;
    scored.push_back(std::move(s));
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.candidate.entity < b.candidate.entity;
  });
  return scored;
}

}  // namespace saga::annotation
