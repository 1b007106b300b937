#ifndef SAGA_ODKE_QUERY_SYNTHESIZER_H_
#define SAGA_ODKE_QUERY_SYNTHESIZER_H_

#include <string>
#include <vector>

#include "kg/knowledge_graph.h"
#include "odke/fact_gap.h"

namespace saga::odke {

/// Auto-composes Web search queries for a missing fact (§4, Fig 6 step
/// 2: "auto-generated search queries based on the missing fact"). One
/// variant appends a disambiguating context term (the entity's primary
/// occupation) so namesakes retrieve the right pages — the Fig-6
/// "music artist Michelle Williams" trick.
class QuerySynthesizer {
 public:
  explicit QuerySynthesizer(const kg::KnowledgeGraph* kg);

  std::vector<std::string> Synthesize(const FactGap& gap) const;

 private:
  const kg::KnowledgeGraph* kg_;
};

}  // namespace saga::odke

#endif  // SAGA_ODKE_QUERY_SYNTHESIZER_H_
