#ifndef SAGA_ANN_DISTANCE_H_
#define SAGA_ANN_DISTANCE_H_

#include <cmath>
#include <cstddef>

namespace saga::ann {

enum class Metric {
  kDot,     // maximize inner product
  kCosine,  // maximize cosine similarity
  kL2,      // minimize squared euclidean distance
};

/// Inner product in double over eight independent accumulators, so the
/// additions pipeline instead of waiting on one serial chain. The
/// summation order is fixed: every caller (Norm, CosineSim and the
/// index scans) gets bit-identical scores for the same inputs. `a` is a
/// float vector, or one widened to double once for many calls; widening
/// is exact, so both give the same products and the same result.
template <typename T>
inline double Dot(const T* a, const float* b, size_t dim) {
  // Named accumulators, not an array: gcc keeps them in registers and
  // pairs them into SIMD lanes.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  double s4 = 0.0, s5 = 0.0, s6 = 0.0, s7 = 0.0;
  const size_t blocked = dim - dim % 8;
  for (size_t i = 0; i < blocked; i += 8) {
    s0 += static_cast<double>(a[i]) * b[i];
    s1 += static_cast<double>(a[i + 1]) * b[i + 1];
    s2 += static_cast<double>(a[i + 2]) * b[i + 2];
    s3 += static_cast<double>(a[i + 3]) * b[i + 3];
    s4 += static_cast<double>(a[i + 4]) * b[i + 4];
    s5 += static_cast<double>(a[i + 5]) * b[i + 5];
    s6 += static_cast<double>(a[i + 6]) * b[i + 6];
    s7 += static_cast<double>(a[i + 7]) * b[i + 7];
  }
  for (size_t i = blocked; i < dim; ++i) {
    s0 += static_cast<double>(a[i]) * b[i];
  }
  return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7));
}

/// Squared euclidean distance; `a` as for Dot().
template <typename T>
inline double L2Sq(const T* a, const float* b, size_t dim) {
  double s = 0.0;
  for (size_t i = 0; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return s;
}

inline double Norm(const float* a, size_t dim) {
  return std::sqrt(Dot(a, a, dim));
}

/// Cosine from a dot product and both norms; 0 when either is zero.
inline double CosineFromDot(double dot, double na, double nb) {
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (na * nb);
}

inline double CosineSim(const float* a, const float* b, size_t dim) {
  return CosineFromDot(Dot(a, b, dim), Norm(a, dim), Norm(b, dim));
}

/// Unified "higher is better" similarity under a metric (L2 is negated).
inline double Similarity(Metric metric, const float* a, const float* b,
                         size_t dim) {
  switch (metric) {
    case Metric::kDot:
      return Dot(a, b, dim);
    case Metric::kCosine:
      return CosineSim(a, b, dim);
    case Metric::kL2:
      return -L2Sq(a, b, dim);
  }
  return 0.0;
}

}  // namespace saga::ann

#endif  // SAGA_ANN_DISTANCE_H_
