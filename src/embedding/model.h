#ifndef SAGA_EMBEDDING_MODEL_H_
#define SAGA_EMBEDDING_MODEL_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"

namespace saga::embedding {

/// Shallow KG embedding model families (§2 "shallow embedding models").
enum class ModelKind {
  kTransE,    // translational distance, L2: s = -||h + r - t||
  kDistMult,  // bilinear diagonal:      s = <h, r, t>
  kComplEx,   // complex bilinear:       s = Re(<h, r, conj(t)>)
};

std::string_view ModelKindName(ModelKind kind);

/// Scoring function + gradient of the score w.r.t. each embedding.
/// Implementations are stateless; vectors are length `dim`.
class KgeModel {
 public:
  virtual ~KgeModel() = default;

  virtual ModelKind kind() const = 0;

  /// Plausibility score of (h, r, t); larger = more plausible.
  virtual double Score(const float* h, const float* r, const float* t,
                       int dim) const = 0;

  /// Accumulates d(score)/d{h,r,t} scaled by `dscore` into the grad
  /// buffers (which the caller zero-initializes or accumulates across
  /// negatives).
  virtual void AccumulateGrad(const float* h, const float* r, const float* t,
                              int dim, double dscore, float* gh, float* gr,
                              float* gt) const = 0;

  /// TransE benefits from renormalizing entity rows after updates.
  virtual bool wants_entity_renorm() const { return false; }
};

std::unique_ptr<KgeModel> MakeModel(ModelKind kind);

}  // namespace saga::embedding

#endif  // SAGA_EMBEDDING_MODEL_H_
