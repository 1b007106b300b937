#ifndef SAGA_ONDEVICE_ENRICHMENT_H_
#define SAGA_ONDEVICE_ENRICHMENT_H_

#include <vector>

#include "common/rng.h"
#include "kg/knowledge_graph.h"

namespace saga::ondevice {

/// Global-knowledge enrichment path 1 (§5): a static asset of popular
/// entities and their facts, shipped to every device with no
/// client-side request (so it leaks nothing). Implemented as a
/// maintainable view over the global KG that counts the member
/// entities and the facts the asset ships: its size is all the platform
/// reads of it.
class StaticKnowledgeAsset {
 public:
  /// Member entities: the most popular this many.
  static constexpr size_t kTopKEntities = 200;
  /// Facts the asset ships per member entity, at most.
  static constexpr size_t kMaxFactsPerEntity = 16;

  static StaticKnowledgeAsset Build(const kg::KnowledgeGraph& kg);

  size_t num_facts() const { return num_facts_; }
  /// Approximate shipped size.
  size_t EstimatedBytes() const;

  /// View maintenance: recomputes membership + facts as the global KG
  /// evolves.
  void Refresh(const kg::KnowledgeGraph& kg);

 private:
  size_t num_entities_ = 0;
  size_t num_facts_ = 0;
};

/// Path 2: piggy-back enrichment. A server interaction about `entity`
/// ("what's the score in the Blue Jays game?") carries back up to
/// `max_facts` general facts about it for free.
std::vector<kg::Triple> PiggybackEnrich(const kg::KnowledgeGraph& kg,
                                        kg::EntityId entity,
                                        size_t max_facts);

/// Path 3a: differentially private counting queries against server
/// knowledge (Laplace mechanism with an epsilon budget).
class DpCounter {
 public:
  DpCounter(double epsilon_per_query, double epsilon_budget, uint64_t seed);

  /// Laplace-noised count; fails closed (returns -1) once the privacy
  /// budget is exhausted.
  double NoisyCount(double true_count);

  double epsilon_spent() const { return spent_; }
  bool budget_exhausted() const { return spent_ >= budget_; }

 private:
  double epsilon_;
  double budget_;
  double spent_ = 0.0;
  Rng rng_;
};

/// Path 3b: private information retrieval cost simulator. A PIR fetch
/// returns the requested entity's facts but the server must touch
/// every database cell (that is what makes it private) — the cost the
/// paper calls "expensive ... for high-value use cases".
class PirServer {
 public:
  explicit PirServer(const kg::KnowledgeGraph* kg);

  struct FetchResult {
    std::vector<kg::Triple> facts;
    size_t cells_scanned = 0;      // = database size
    uint64_t bytes_transferred = 0;
  };

  FetchResult Fetch(kg::EntityId id) const;

  /// Non-private baseline for cost comparison: touches one cell.
  FetchResult DirectFetch(kg::EntityId id) const;


 private:
  const kg::KnowledgeGraph* kg_;
};

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_ENRICHMENT_H_
