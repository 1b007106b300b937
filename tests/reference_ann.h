#ifndef SAGA_TESTS_REFERENCE_ANN_H_
#define SAGA_TESTS_REFERENCE_ANN_H_

// Reference exact k-NN for oracle tests and gates: every row scored
// straight from the scalar distance kernels, norms included, then a
// stable sort. BruteForceIndex and IvfIndex at full probe must return
// exactly its hits (same labels, bit-identical scores).

#include <algorithm>
#include <span>
#include <vector>

#include "ann/distance.h"
#include "ann/index.h"

namespace saga::ann::reference {

/// The score every index must reproduce: "higher is better" under a
/// metric (L2 negated), from the scalar kernels.
inline double Similarity(Metric metric, const float* a, const float* b,
                         size_t dim) {
  switch (metric) {
    case Metric::kDot:
      return Dot(a, b, dim);
    case Metric::kCosine:
      return CosineFromDot(Dot(a, b, dim), Norm(a, dim), Norm(b, dim));
    case Metric::kL2:
      return -L2Sq(a, b, dim);
  }
  return 0.0;
}

/// The top k of `rows` for `query`: Similarity() of every row, stable-
/// sorted so the earlier row wins a tie.
inline std::vector<Neighbor> Search(const RowMatrix& rows, Metric metric,
                                    std::span<const float> query, size_t k) {
  std::vector<Neighbor> all;
  all.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    all.push_back({rows.labels()[i], Similarity(metric, query.data(),
                                                rows.row(i), query.size())});
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Neighbor& a, const Neighbor& b) {
                     return a.similarity > b.similarity;
                   });
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace saga::ann::reference

#endif  // SAGA_TESTS_REFERENCE_ANN_H_
