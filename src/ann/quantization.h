#ifndef SAGA_ANN_QUANTIZATION_H_
#define SAGA_ANN_QUANTIZATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace saga::ann {

/// Per-vector symmetric int8 scalar quantization: x ~ scale * q with
/// q in [-127, 127]. Used for the on-device / price-performance
/// configurations (§3.2 model compression, §5 resource constraints):
/// 4x smaller embeddings at a small recall cost.
struct QuantizedVector {
  std::vector<int8_t> q;
  float scale = 1.0f;
};

QuantizedVector QuantizeInt8(const std::vector<float>& x);

/// Approximate dot product between a float query and a quantized vector
/// without dequantizing to a temporary.
double DotQuantized(const std::vector<float>& query,
                    const QuantizedVector& v);

/// Bytes used by a quantized vector vs its float form.
inline size_t QuantizedBytes(const QuantizedVector& v) {
  return v.q.size() + sizeof(float);
}

}  // namespace saga::ann

#endif  // SAGA_ANN_QUANTIZATION_H_
