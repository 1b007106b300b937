#ifndef SAGA_WEBSIM_CORPUS_GENERATOR_H_
#define SAGA_WEBSIM_CORPUS_GENERATOR_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "kg/kg_generator.h"
#include "kg/knowledge_graph.h"
#include "websim/web_document.h"

namespace saga::websim {

/// A mutable collection of synthetic web pages.
class WebCorpus {
 public:
  DocId Add(WebDocument doc);
  const WebDocument& doc(DocId id) const { return docs_[id]; }
  WebDocument* mutable_doc(DocId id) { return &docs_[id]; }
  size_t size() const { return docs_.size(); }

 private:
  std::vector<WebDocument> docs_;
};

struct CorpusGeneratorConfig {
  uint64_t seed = 123;
  int num_news_pages = 400;
  int num_noise_pages = 100;
  /// Probability an entity page states a wrong value for a fact. For
  /// ambiguous names the wrong value is preferentially the namesake's
  /// true value (the Fig-6 "Michelle Williams" confusion).
  double wrong_fact_rate = 0.08;
};

/// Renders a synthetic Web from the KG + ground truth: evidence for
/// every functional fact (including the ones withheld from the KG, so
/// ODKE has something to find), ambiguity, wrong facts, and gold
/// mention spans. See DESIGN.md §1 for the substitution argument.
WebCorpus GenerateCorpus(const kg::GeneratedKg& gen,
                         const CorpusGeneratorConfig& config);

/// Rewrites `fraction` of documents (appends a fresh sentence, bumps
/// version + timestamp). Returns the changed doc ids. Drives the
/// incremental-annotation experiment (§3.1 "rate of change").
std::vector<DocId> MutateCorpus(WebCorpus* corpus, double fraction,
                                Rng* rng);

/// "July 23, 1979" (long-form date used in rendered prose).
std::string RenderDateLong(kg::Date date);
/// Parses RenderDateLong output; false on mismatch.
bool ParseDateLong(std::string_view text, kg::Date* out);

}  // namespace saga::websim

#endif  // SAGA_WEBSIM_CORPUS_GENERATOR_H_
