#ifndef SAGA_ODKE_PIPELINE_H_
#define SAGA_ODKE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "annotation/context_reranker.h"
#include "annotation/web_linker.h"
#include "kg/knowledge_graph.h"
#include "odke/corroborator.h"
#include "odke/extractor.h"
#include "odke/fact_gap.h"
#include "odke/query_synthesizer.h"
#include "websim/corpus_generator.h"
#include "websim/search_engine.h"

namespace saga::odke {

/// Outcome of harvesting one gap.
struct GapResult {
  FactGap gap;
  bool filled = false;
  kg::Value value;
  double probability = 0.0;
  size_t docs_fetched = 0;
  size_t candidates_extracted = 0;
  size_t value_groups = 0;
  /// The evidence rows of the winning value (Fig 6 step 5 display).
  std::vector<CandidateFact> winning_evidence;
};

struct OdkeRunStats {
  size_t gaps_processed = 0;
  size_t gaps_filled = 0;
  size_t docs_fetched = 0;
  size_t candidates_extracted = 0;
  size_t stale_replaced = 0;
};

/// End-to-end Open-Domain Knowledge Extraction (Fig 5): gap -> query
/// synthesis -> targeted web search -> per-document extraction (rules +
/// text patterns, with annotation weak labels) -> corroboration ->
/// fusion into the KG with provenance.
class OdkePipeline {
 public:
  struct Options {
    Corroborator::Options corroborator;
    /// When false, skips search and scans the whole corpus per gap —
    /// the "volume" ablation showing why targeted search matters.
    bool targeted_search = true;
  };

  OdkePipeline(kg::KnowledgeGraph* kg, const websim::WebCorpus* corpus,
               const websim::SearchEngine* search,
               const annotation::AnnotationIndex* annotations,
               const CorroborationModel* model);
  OdkePipeline(kg::KnowledgeGraph* kg, const websim::WebCorpus* corpus,
               const websim::SearchEngine* search,
               const annotation::AnnotationIndex* annotations,
               const CorroborationModel* model, Options options);

  /// Harvests one gap without touching the KG.
  GapResult HarvestGap(const FactGap& gap) const;

  /// Harvests all gaps and fuses accepted facts into the KG (replacing
  /// the old triple for stale gaps).
  OdkeRunStats Run(const std::vector<FactGap>& gaps);

  /// All candidate extractions for a gap (exposed for corroboration
  /// model training and the Fig-6 example).
  std::vector<CandidateFact> ExtractCandidates(const FactGap& gap,
                                               size_t* docs_fetched) const;

 private:
  kg::KnowledgeGraph* kg_;
  const websim::WebCorpus* corpus_;
  const websim::SearchEngine* search_;
  const annotation::AnnotationIndex* annotations_;
  const CorroborationModel* model_;
  Options options_;
  QuerySynthesizer synthesizer_;
  InfoboxExtractor infobox_extractor_;
  TextPatternExtractor text_extractor_;
  /// Builds subject KG-context profiles for the namesake-
  /// disambiguation evidence feature.
  annotation::ContextReranker profiler_;
  kg::SourceId odke_source_;
};

}  // namespace saga::odke

#endif  // SAGA_ODKE_PIPELINE_H_
