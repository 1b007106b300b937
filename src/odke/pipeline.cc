#include "odke/pipeline.h"

#include <set>

#include "common/metrics.h"
#include "common/trace.h"

namespace saga::odke {

namespace {

/// Documents fetched per synthesized query.
constexpr size_t kDocsPerQuery = 5;

}  // namespace

OdkePipeline::OdkePipeline(kg::KnowledgeGraph* kg,
                           const websim::WebCorpus* corpus,
                           const websim::SearchEngine* search,
                           const annotation::AnnotationIndex* annotations,
                           const CorroborationModel* model)
    : OdkePipeline(kg, corpus, search, annotations, model, Options()) {}

OdkePipeline::OdkePipeline(kg::KnowledgeGraph* kg,
                           const websim::WebCorpus* corpus,
                           const websim::SearchEngine* search,
                           const annotation::AnnotationIndex* annotations,
                           const CorroborationModel* model, Options options)
    : kg_(kg),
      corpus_(corpus),
      search_(search),
      annotations_(annotations),
      model_(model),
      options_(options),
      synthesizer_(kg),
      infobox_extractor_(kg),
      text_extractor_(kg),
      profiler_(kg) {
  odke_source_ = kg_->AddSource("odke", 0.75);
}

std::vector<CandidateFact> OdkePipeline::ExtractCandidates(
    const FactGap& gap, size_t* docs_fetched) const {
  // 1. Targeted retrieval (Fig 5: Query Synthesizer + Web Search) or a
  //    full corpus scan for the ablation.
  std::set<websim::DocId> doc_ids;
  {
    obs::ScopedSpan span("odke.pipeline.search");
    if (options_.targeted_search) {
      for (const std::string& query : synthesizer_.Synthesize(gap)) {
        for (const auto& hit : search_->Search(query, kDocsPerQuery)) {
          doc_ids.insert(hit.doc);
        }
      }
    } else {
      for (websim::DocId id = 0; id < corpus_->size(); ++id) {
        doc_ids.insert(id);
      }
    }
  }
  if (docs_fetched != nullptr) *docs_fetched = doc_ids.size();
  SAGA_COUNTER("odke.pipeline.docs_fetched").Add(
      static_cast<int64_t>(doc_ids.size()));
  obs::ScopedSpan extract_span("odke.pipeline.extract");

  // 2. Per-document extraction with both extractor families, scoring
  //    each source document against the subject's KG context (its
  //    occupation and graph neighbors) so the corroborator can tell
  //    the target apart from namesakes.
  const std::vector<float> subject_profile = profiler_.vectorizer().Embed(
      profiler_.EntityProfileText(gap.subject));
  std::vector<CandidateFact> candidates;
  for (websim::DocId id : doc_ids) {
    const websim::WebDocument& doc = corpus_->doc(id);
    const annotation::AnnotatedDocument* ann =
        annotations_ == nullptr ? nullptr : annotations_->ForDoc(id);
    std::vector<CandidateFact> from_doc;
    for (auto& c : infobox_extractor_.Extract(doc, gap, ann)) {
      from_doc.push_back(std::move(c));
    }
    for (auto& c : text_extractor_.Extract(doc, gap, ann)) {
      from_doc.push_back(std::move(c));
    }
    if (!from_doc.empty()) {
      const double context = text::HashingVectorizer::Cosine(
          subject_profile, profiler_.vectorizer().Embed(doc.body));
      for (auto& c : from_doc) {
        c.subject_context = context;
        candidates.push_back(std::move(c));
      }
    }
  }
  // Normalize context scores within the gap: only relative match
  // matters when choosing among this gap's candidates.
  double lo = 1e300;
  double hi = -1e300;
  for (const auto& c : candidates) {
    lo = std::min(lo, c.subject_context);
    hi = std::max(hi, c.subject_context);
  }
  if (hi - lo > 1e-9) {
    for (auto& c : candidates) {
      c.subject_context = (c.subject_context - lo) / (hi - lo);
    }
  } else {
    for (auto& c : candidates) c.subject_context = 1.0;
  }
  return candidates;
}

GapResult OdkePipeline::HarvestGap(const FactGap& gap) const {
  auto stage = SAGA_STAGE("odke.pipeline.harvest");
  GapResult result;
  result.gap = gap;
  std::vector<CandidateFact> candidates =
      ExtractCandidates(gap, &result.docs_fetched);
  result.candidates_extracted = candidates.size();
  if (candidates.empty()) return result;

  obs::ScopedSpan corroborate_span("odke.pipeline.corroborate");
  const std::vector<ValueGroup> groups = GroupByValue(candidates);
  result.value_groups = groups.size();
  Corroborator corroborator(model_, options_.corroborator);
  const Corroborator::Decision decision = corroborator.Decide(groups);
  result.probability = decision.probability;
  if (decision.accepted) {
    result.filled = true;
    result.value = decision.value;
    result.winning_evidence = groups[decision.group_index].evidence;
  }
  return result;
}

OdkeRunStats OdkePipeline::Run(const std::vector<FactGap>& gaps) {
  obs::ScopedSpan span("odke.pipeline.run");
  OdkeRunStats stats;
  for (const FactGap& gap : gaps) {
    ++stats.gaps_processed;
    SAGA_COUNTER("odke.pipeline.gaps_processed").Add();
    const GapResult result = HarvestGap(gap);
    stats.docs_fetched += result.docs_fetched;
    stats.candidates_extracted += result.candidates_extracted;
    if (!result.filled) continue;
    ++stats.gaps_filled;
    SAGA_COUNTER("odke.pipeline.gaps_filled").Add();
    if (gap.reason == GapReason::kStale &&
        gap.stale_triple != kg::kInvalidTripleIdx) {
      kg_->triples().Remove(gap.stale_triple);
      ++stats.stale_replaced;
    }
    kg_->AddFact(gap.subject, gap.predicate, result.value, odke_source_,
                 result.probability);
  }
  return stats;
}

}  // namespace saga::odke
