#ifndef SAGA_WEBSIM_SEARCH_ENGINE_H_
#define SAGA_WEBSIM_SEARCH_ENGINE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "websim/web_document.h"

namespace saga::websim {

class WebCorpus;

/// BM25 full-text search over a WebCorpus — the stand-in for the
/// production Web search engine ODKE's Query Synthesizer targets (§4).
class SearchEngine {
 public:
  struct Hit {
    DocId doc = 0;
    double score = 0.0;
  };

  explicit SearchEngine(const WebCorpus* corpus);

  /// Top-k BM25 hits for a free-text query.
  std::vector<Hit> Search(std::string_view query, size_t k) const;

 private:
  void IndexDoc(DocId id);
  void BuildAll();

  const WebCorpus* corpus_;
  /// term -> (doc, weighted term frequency) postings.
  std::unordered_map<std::string, std::vector<std::pair<DocId, double>>>
      postings_;
  std::vector<double> doc_lengths_;
  double avg_doc_length_ = 0.0;
};

}  // namespace saga::websim

#endif  // SAGA_WEBSIM_SEARCH_ENGINE_H_
