#ifndef SAGA_ODKE_FACT_GAP_H_
#define SAGA_ODKE_FACT_GAP_H_

#include "kg/ids.h"
#include "kg/triple.h"

namespace saga::odke {

/// How a coverage/freshness issue was identified (§4: reactively from
/// query logs, proactively from KG profiling, or predictively from
/// trends).
enum class GapReason {
  kQueryLog,
  kProfiling,
  kTrending,
  kStale,
};

/// A missing or stale fact ODKE should harvest: "entity X lacks
/// predicate P" (or "holds a stale value for P").
struct FactGap {
  kg::EntityId subject;
  kg::PredicateId predicate;
  GapReason reason = GapReason::kProfiling;
  /// For kStale: the existing outdated triple to replace.
  kg::TripleIdx stale_triple = kg::kInvalidTripleIdx;
};

}  // namespace saga::odke

#endif  // SAGA_ODKE_FACT_GAP_H_
