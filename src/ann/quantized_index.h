#ifndef SAGA_ANN_QUANTIZED_INDEX_H_
#define SAGA_ANN_QUANTIZED_INDEX_H_

#include <vector>

#include "ann/index.h"
#include "ann/quantization.h"

namespace saga::ann {

/// Exact k-NN over int8-quantized vectors: 4x smaller than float
/// storage at a small similarity-error cost. The on-device / compressed
/// serving configuration (§3.2 model compression, §5 resource
/// constraints). It keeps only the int8 codes; labels come from the
/// shared matrix.
///
/// Cosine is implemented by L2-normalizing rows before they are
/// quantized, so the quantized dot product approximates cosine
/// similarity directly.
class QuantizedBruteForceIndex : public VectorIndex {
 public:
  /// `metric` must be kDot or kCosine (L2 is not supported in the
  /// asymmetric int8 scheme).
  QuantizedBruteForceIndex(std::shared_ptr<const RowMatrix> rows,
                           Metric metric);

  std::vector<Neighbor> Search(std::span<const float> query,
                               size_t k) const override;

  /// Bytes used by the quantized payload (vs dim*4 per float vector).
  size_t PayloadBytes() const;

 private:
  std::vector<QuantizedVector> vectors_;
};

}  // namespace saga::ann

#endif  // SAGA_ANN_QUANTIZED_INDEX_H_
