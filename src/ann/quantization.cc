#include "ann/quantization.h"

#include <algorithm>
#include <cmath>

namespace saga::ann {

QuantizedVector QuantizeInt8(const std::vector<float>& x) {
  QuantizedVector out;
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::abs(v));
  out.scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  out.q.resize(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const float scaled = x[i] / out.scale;
    out.q[i] = static_cast<int8_t>(
        std::clamp(std::lround(scaled), -127L, 127L));
  }
  return out;
}

double DotQuantized(const std::vector<float>& query,
                    const QuantizedVector& v) {
  double s = 0.0;
  const size_t n = std::min(query.size(), v.q.size());
  for (size_t i = 0; i < n; ++i) {
    s += static_cast<double>(query[i]) * v.q[i];
  }
  return s * v.scale;
}

}  // namespace saga::ann
