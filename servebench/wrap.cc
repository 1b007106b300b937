// Link-time wrappers that time calls into the program's public
// functions during the traced run.
//
// The build links the benchmark with `-Wl,--wrap=<symbol>` for every
// symbol named in a SERVEBENCH_WRAP line below (CMakeLists.txt reads
// them from this file). The linker then sends every call to <symbol>
// made from another object file to `__wrap_<symbol>`, and
// `__real_<symbol>` names the original. A call inside the callee's own
// source file is not redirected; its time stays in the caller's self
// time. Each wrapper passes straight through when the calling thread
// has no trace state installed, so the untraced run pays one
// thread-local load per wrapped call.
//
// On x86-64 and AArch64 a member function takes `this` as its first
// argument, so a free function with the object pointer first has the
// same calling convention. The static_asserts tie every declaration to
// the header: a changed signature fails to compile rather than
// mis-calling.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/candidate_generator.h"
#include "annotation/context_reranker.h"
#include "annotation/mention_detector.h"
#include "annotation/query_answering.h"
#include "common/request_context.h"
#include "common/result.h"
#include "graph_engine/ppr.h"
#include "kg/knowledge_graph.h"
#include "serving/admission_controller.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/kv_cache.h"
#include "serving/related_entities.h"
#include "storage/kv_store.h"
#include "text/hashing_vectorizer.h"
#include "trace.h"

namespace {

using namespace saga;
using servebench::Current;
using servebench::Layer;
using servebench::ScopedSpan;
using servebench::Tally;
using servebench::TraceState;

template <typename MemberPointer>
constexpr bool Declared(MemberPointer p) {
  return p != nullptr;
}

using Hits = std::vector<std::pair<kg::EntityId, double>>;
using LocalHits = std::vector<std::pair<uint32_t, double>>;

}  // namespace

// Declares Real<Name> (the original) and Wrap<Name> (the wrapper) for
// the mangled symbol `Sym`.
#define SERVEBENCH_WRAP(Ret, Name, Sym, ...)         \
  Ret Real##Name(__VA_ARGS__) __asm__("__real_" Sym); \
  Ret Wrap##Name(__VA_ARGS__) __asm__("__wrap_" Sym)

// ---- serving: admission ----
static_assert(Declared<serving::AdmissionController::Ticket (
                  serving::AdmissionController::*)(const RequestContext&)>(
    &serving::AdmissionController::TryAdmit));
SERVEBENCH_WRAP(serving::AdmissionController::Ticket, TryAdmit,
                "_ZN4saga7serving19AdmissionController8TryAdmitERKNS_14RequestContextE",
                serving::AdmissionController* self, const RequestContext& ctx);
serving::AdmissionController::Ticket WrapTryAdmit(
    serving::AdmissionController* self, const RequestContext& ctx) {
  ScopedSpan span(Current(), Layer::kAdmission);
  return RealTryAdmit(self, ctx);
}

// ---- serving: query answering ----
static_assert(Declared<Result<annotation::QueryAnswerer::Answer> (
                  annotation::QueryAnswerer::*)(std::string_view,
                                                const RequestContext&) const>(
    &annotation::QueryAnswerer::Ask));
SERVEBENCH_WRAP(Result<annotation::QueryAnswerer::Answer>, Ask,
                "_ZNK4saga10annotation13QueryAnswerer3AskESt17basic_string_viewIcSt11char_traitsIcEERKNS_14RequestContextE",
                const annotation::QueryAnswerer* self, std::string_view query,
                const RequestContext& ctx);
Result<annotation::QueryAnswerer::Answer> WrapAsk(
    const annotation::QueryAnswerer* self, std::string_view query,
    const RequestContext& ctx) {
  ScopedSpan span(Current(), Layer::kQaGlue);
  return RealAsk(self, query, ctx);
}

// ---- annotation ----
static_assert(Declared<std::vector<annotation::Annotation> (
                  annotation::Annotator::*)(std::string_view) const>(
    &annotation::Annotator::Annotate));
SERVEBENCH_WRAP(std::vector<annotation::Annotation>, Annotate,
                "_ZNK4saga10annotation9Annotator8AnnotateESt17basic_string_viewIcSt11char_traitsIcEE",
                const annotation::Annotator* self, std::string_view text);
std::vector<annotation::Annotation> WrapAnnotate(
    const annotation::Annotator* self, std::string_view text) {
  ScopedSpan span(Current(), Layer::kAnnotate);
  return RealAnnotate(self, text);
}

static_assert(Declared<std::vector<annotation::Mention> (
                  annotation::MentionDetector::*)(std::string_view) const>(
    &annotation::MentionDetector::Detect));
SERVEBENCH_WRAP(std::vector<annotation::Mention>, Detect,
                "_ZNK4saga10annotation15MentionDetector6DetectESt17basic_string_viewIcSt11char_traitsIcEE",
                const annotation::MentionDetector* self, std::string_view text);
std::vector<annotation::Mention> WrapDetect(
    const annotation::MentionDetector* self, std::string_view text) {
  TraceState* t = Current();
  ScopedSpan span(t, Layer::kDetect);
  std::vector<annotation::Mention> out = RealDetect(self, text);
  if (t != nullptr) t->Add(Tally::kMentions, out.size());
  return out;
}

static_assert(Declared<std::vector<annotation::Candidate> (
                  annotation::CandidateGenerator::*)(std::string_view) const>(
    &annotation::CandidateGenerator::Candidates));
SERVEBENCH_WRAP(std::vector<annotation::Candidate>, Candidates,
                "_ZNK4saga10annotation18CandidateGenerator10CandidatesESt17basic_string_viewIcSt11char_traitsIcEE",
                const annotation::CandidateGenerator* self,
                std::string_view surface);
std::vector<annotation::Candidate> WrapCandidates(
    const annotation::CandidateGenerator* self, std::string_view surface) {
  TraceState* t = Current();
  ScopedSpan span(t, Layer::kCandidates);
  std::vector<annotation::Candidate> out = RealCandidates(self, surface);
  if (t != nullptr) t->Add(Tally::kCandidates, out.size());
  return out;
}

static_assert(Declared<std::vector<annotation::ContextReranker::Scored> (
                  annotation::ContextReranker::*)(
                  const std::vector<annotation::Candidate>&, std::string_view,
                  const annotation::Mention&, serving::EmbeddingKvCache*)
                  const>(&annotation::ContextReranker::Rerank));
SERVEBENCH_WRAP(std::vector<annotation::ContextReranker::Scored>, Rerank,
                "_ZNK4saga10annotation15ContextReranker6RerankERKSt6vectorINS0_9CandidateESaIS3_EESt17basic_string_viewIcSt11char_traitsIcEERKNS0_7MentionEPNS_7serving16EmbeddingKvCacheE",
                const annotation::ContextReranker* self,
                const std::vector<annotation::Candidate>& candidates,
                std::string_view document_text,
                const annotation::Mention& mention,
                serving::EmbeddingKvCache* cache);
std::vector<annotation::ContextReranker::Scored> WrapRerank(
    const annotation::ContextReranker* self,
    const std::vector<annotation::Candidate>& candidates,
    std::string_view document_text, const annotation::Mention& mention,
    serving::EmbeddingKvCache* cache) {
  ScopedSpan span(Current(), Layer::kRerank);
  return RealRerank(self, candidates, document_text, mention, cache);
}

static_assert(Declared<std::string (annotation::ContextReranker::*)(
                  kg::EntityId) const>(
    &annotation::ContextReranker::EntityProfileText));
SERVEBENCH_WRAP(std::string, ProfileText,
                "_ZNK4saga10annotation15ContextReranker17EntityProfileTextB5cxx11ENS_2kg2IdINS2_9EntityTagEEE",
                const annotation::ContextReranker* self, kg::EntityId id);
std::string WrapProfileText(const annotation::ContextReranker* self,
                            kg::EntityId id) {
  ScopedSpan span(Current(), Layer::kProfileText);
  return RealProfileText(self, id);
}

// ---- text ----
static_assert(Declared<std::vector<float> (text::HashingVectorizer::*)(
                  std::string_view) const>(&text::HashingVectorizer::Embed));
SERVEBENCH_WRAP(std::vector<float>, Embed,
                "_ZNK4saga4text17HashingVectorizer5EmbedESt17basic_string_viewIcSt11char_traitsIcEE",
                const text::HashingVectorizer* self, std::string_view text);
std::vector<float> WrapEmbed(const text::HashingVectorizer* self,
                             std::string_view text) {
  TraceState* t = Current();
  // Rerank's first call embeds the mention's context, not a profile;
  // that time stays in the reranker's self time.
  if (t != nullptr && t->TakeFirstChildOf(Layer::kRerank)) t = nullptr;
  ScopedSpan span(t, Layer::kProfileEmbed);
  return RealEmbed(self, text);
}

// ---- kg ----
static_assert(Declared<std::vector<kg::Value> (kg::KnowledgeGraph::*)(
                  kg::EntityId, kg::PredicateId) const>(
    &kg::KnowledgeGraph::ObjectsOf));
SERVEBENCH_WRAP(std::vector<kg::Value>, ObjectsOf,
                "_ZNK4saga2kg14KnowledgeGraph9ObjectsOfENS0_2IdINS0_9EntityTagEEENS2_INS0_12PredicateTagEEE",
                const kg::KnowledgeGraph* self, kg::EntityId s,
                kg::PredicateId p);
std::vector<kg::Value> WrapObjectsOf(const kg::KnowledgeGraph* self,
                                     kg::EntityId s, kg::PredicateId p) {
  ScopedSpan span(Current(), Layer::kKgObjects);
  return RealObjectsOf(self, s, p);
}

// ---- serving: fact ranking ----
static_assert(Declared<std::vector<serving::FactRanker::RankedFact> (
                  serving::FactRanker::*)(kg::EntityId, kg::PredicateId)
                                       const>(&serving::FactRanker::Rank));
SERVEBENCH_WRAP(std::vector<serving::FactRanker::RankedFact>, Rank,
                "_ZNK4saga7serving10FactRanker4RankENS_2kg2IdINS2_9EntityTagEEENS3_INS2_12PredicateTagEEE",
                const serving::FactRanker* self, kg::EntityId subject,
                kg::PredicateId predicate);
std::vector<serving::FactRanker::RankedFact> WrapRank(
    const serving::FactRanker* self, kg::EntityId subject,
    kg::PredicateId predicate) {
  TraceState* t = Current();
  ScopedSpan span(t, Layer::kRank);
  std::vector<serving::FactRanker::RankedFact> out =
      RealRank(self, subject, predicate);
  if (t != nullptr) t->Add(Tally::kRankedFacts, out.size());
  return out;
}

// ---- serving: related entities, ann, graph_engine ----
static_assert(Declared<Result<Hits> (serving::RelatedEntitiesService::*)(
                  kg::EntityId, size_t, kg::TypeId, const RequestContext&)
                                       const>(
    &serving::RelatedEntitiesService::Related));
SERVEBENCH_WRAP(Result<Hits>, Related,
                "_ZNK4saga7serving22RelatedEntitiesService7RelatedENS_2kg2IdINS2_9EntityTagEEEmNS3_INS2_7TypeTagEEERKNS_14RequestContextE",
                const serving::RelatedEntitiesService* self, kg::EntityId id,
                size_t k, kg::TypeId type_filter, const RequestContext& ctx);
Result<Hits> WrapRelated(const serving::RelatedEntitiesService* self,
                         kg::EntityId id, size_t k, kg::TypeId type_filter,
                         const RequestContext& ctx) {
  ScopedSpan span(Current(), Layer::kRelatedFuse);
  return RealRelated(self, id, k, type_filter, ctx);
}

static_assert(Declared<Result<Hits> (serving::EmbeddingService::*)(
                  kg::EntityId, size_t, kg::TypeId, const RequestContext&)
                                       const>(
    &serving::EmbeddingService::TopKNeighbors));
SERVEBENCH_WRAP(Result<Hits>, TopKNeighbors,
                "_ZNK4saga7serving16EmbeddingService13TopKNeighborsENS_2kg2IdINS2_9EntityTagEEEmNS3_INS2_7TypeTagEEERKNS_14RequestContextE",
                const serving::EmbeddingService* self, kg::EntityId id,
                size_t k, kg::TypeId type_filter, const RequestContext& ctx);
Result<Hits> WrapTopKNeighbors(const serving::EmbeddingService* self,
                               kg::EntityId id, size_t k,
                               kg::TypeId type_filter,
                               const RequestContext& ctx) {
  ScopedSpan span(Current(), Layer::kAnnSearch);
  return RealTopKNeighbors(self, id, k, type_filter, ctx);
}

static_assert(Declared<Result<LocalHits> (graph_engine::PprEngine::*)(
                  uint32_t, size_t, const RequestContext&) const>(
    &graph_engine::PprEngine::TopKRelated));
SERVEBENCH_WRAP(Result<LocalHits>, TopKRelated,
                "_ZNK4saga12graph_engine9PprEngine11TopKRelatedEjmRKNS_14RequestContextE",
                const graph_engine::PprEngine* self, uint32_t source,
                size_t k, const RequestContext& ctx);
Result<LocalHits> WrapTopKRelated(const graph_engine::PprEngine* self,
                                  uint32_t source, size_t k,
                                  const RequestContext& ctx) {
  ScopedSpan span(Current(), Layer::kPpr);
  return RealTopKRelated(self, source, k, ctx);
}

// ---- serving: embedding cache, storage ----
static_assert(Declared<Result<std::vector<float>> (
                  serving::EmbeddingKvCache::*)(kg::EntityId)>(
    &serving::EmbeddingKvCache::Get));
SERVEBENCH_WRAP(Result<std::vector<float>>, CacheGet,
                "_ZN4saga7serving16EmbeddingKvCache3GetENS_2kg2IdINS2_9EntityTagEEE",
                serving::EmbeddingKvCache* self, kg::EntityId id);
Result<std::vector<float>> WrapCacheGet(serving::EmbeddingKvCache* self,
                                        kg::EntityId id) {
  ScopedSpan span(Current(), Layer::kKvCacheGet);
  return RealCacheGet(self, id);
}

static_assert(Declared<Status (serving::EmbeddingKvCache::*)(
                  kg::EntityId, const std::vector<float>&)>(
    &serving::EmbeddingKvCache::Put));
SERVEBENCH_WRAP(Status, CachePut,
                "_ZN4saga7serving16EmbeddingKvCache3PutENS_2kg2IdINS2_9EntityTagEEERKSt6vectorIfSaIfEE",
                serving::EmbeddingKvCache* self, kg::EntityId id,
                const std::vector<float>& vec);
Status WrapCachePut(serving::EmbeddingKvCache* self, kg::EntityId id,
                    const std::vector<float>& vec) {
  ScopedSpan span(Current(), Layer::kKvCachePut);
  return RealCachePut(self, id, vec);
}

static_assert(Declared<Result<std::string> (storage::KvStore::*)(
                  std::string_view)>(&storage::KvStore::Get));
SERVEBENCH_WRAP(Result<std::string>, KvGet,
                "_ZN4saga7storage7KvStore3GetB5cxx11ESt17basic_string_viewIcSt11char_traitsIcEE",
                storage::KvStore* self, std::string_view key);
Result<std::string> WrapKvGet(storage::KvStore* self, std::string_view key) {
  ScopedSpan span(Current(), Layer::kKvStoreGet);
  return RealKvGet(self, key);
}

static_assert(Declared<Status (storage::KvStore::*)(std::string_view,
                                                    std::string_view)>(
    &storage::KvStore::Put));
SERVEBENCH_WRAP(Status, KvPut,
                "_ZN4saga7storage7KvStore3PutESt17basic_string_viewIcSt11char_traitsIcEES5_",
                storage::KvStore* self, std::string_view key,
                std::string_view value);
Status WrapKvPut(storage::KvStore* self, std::string_view key,
                 std::string_view value) {
  ScopedSpan span(Current(), Layer::kKvStorePut);
  return RealKvPut(self, key, value);
}
