#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/distance.h"
#include "ann/ivf_index.h"
#include "ann/quantization.h"
#include "ann/quantized_index.h"
#include "common/rng.h"
#include "reference_ann.h"

namespace saga::ann {
namespace {

std::vector<std::vector<float>> RandomVectors(size_t n, int dim,
                                              uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (auto& v : out) {
    for (float& x : v) {
      x = static_cast<float>(rng.NextGaussian());
    }
  }
  return out;
}

using reference::Similarity;

/// `vecs` packed into the row matrix the indexes share, row i labelled
/// first + step * i.
std::shared_ptr<const RowMatrix> Matrix(
    int dim, const std::vector<std::vector<float>>& vecs, uint64_t first = 0,
    uint64_t step = 1) {
  std::vector<uint64_t> labels;
  std::vector<float> data;
  for (size_t i = 0; i < vecs.size(); ++i) {
    labels.push_back(first + step * i);
    data.insert(data.end(), vecs[i].begin(), vecs[i].end());
  }
  return std::make_shared<const RowMatrix>(dim, std::move(labels),
                                           std::move(data));
}

// ---------- Distance ----------

TEST(DistanceTest, BasicIdentities) {
  const float a[] = {1.0f, 0.0f, 2.0f};
  const float b[] = {0.0f, 3.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 2.0);
  EXPECT_DOUBLE_EQ(L2Sq(a, a, 3), 0.0);
  EXPECT_DOUBLE_EQ(L2Sq(a, b, 3), 1.0 + 9.0 + 1.0);
  EXPECT_NEAR(Similarity(Metric::kCosine, a, a, 3), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Similarity(Metric::kL2, a, b, 3), -11.0);
  EXPECT_DOUBLE_EQ(Similarity(Metric::kDot, a, b, 3), 2.0);
}

TEST(DistanceTest, CosineOfZeroVectorIsZero) {
  const float z[] = {0.0f, 0.0f};
  const float a[] = {1.0f, 1.0f};
  EXPECT_DOUBLE_EQ(Similarity(Metric::kCosine, z, a, 2), 0.0);
}

// Rows of the serving table's shape (8,621 Gaussian rows) plus rows
// of the floats a kernel could round differently: signed zeros,
// subnormals and magnitudes from 1e-30 to 1e30, whose sums cancel.
std::vector<std::vector<float>> KernelRows(int dim) {
  auto rows = RandomVectors(8621, dim, 2023);
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            std::numeric_limits<float>::min() / 3.0f,
                            -std::numeric_limits<float>::min(),
                            1e-30f,
                            -1e30f};
  Rng rng(dim);
  for (int r = 0; r < 256; ++r) {
    std::vector<float> row(dim);
    for (float& x : row) {
      x = rng.Bernoulli(0.3)
              ? specials[rng.Uniform(std::size(specials))]
              : static_cast<float>(rng.NextGaussian() *
                                   std::pow(10.0, rng.UniformInt(-30, 30)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// DotAvx2Fma must return Dot()'s bits, for a query widened to double,
// at lengths with and without a tail after the 8-wide blocks.
TEST(DistanceTest, SimdDotMatchesScalarBitForBit) {
  const bool simd = CpuHasAvx2Fma();
  EXPECT_EQ(WideDot(), simd ? &DotAvx2Fma : &Dot<double>);
  for (int dim : {1, 7, 8, 31, 32, 37, 64}) {
    SCOPED_TRACE(testing::Message() << "dim " << dim);
    const auto rows = KernelRows(dim);
    // Gaussian queries and queries drawn from the special rows.
    std::vector<std::vector<float>> queries = RandomVectors(6, dim, 7);
    queries.insert(queries.end(), rows.end() - 6, rows.end());
    size_t compared = 0;
    size_t mismatches = 0;
    for (const auto& query : queries) {
      const std::vector<double> wide(query.begin(), query.end());
      for (const auto& row : rows) {
        // Widening is exact: the scalar kernel agrees with itself.
        const double narrow = Dot(query.data(), row.data(), dim);
        const double scalar = Dot(wide.data(), row.data(), dim);
        ASSERT_EQ(std::memcmp(&narrow, &scalar, sizeof(double)), 0);
        if (!simd) continue;
        const double wide_simd = DotAvx2Fma(wide.data(), row.data(), dim);
        ++compared;
        if (std::memcmp(&scalar, &wide_simd, sizeof(double)) != 0 &&
            mismatches++ == 0) {
          ADD_FAILURE() << "scalar " << scalar << " simd " << wide_simd;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "of " << compared;
  }
  if (!simd) GTEST_SKIP() << "no AVX2/FMA: scalar half only";
}

// ---------- BruteForce ----------

TEST(BruteForceTest, FindsExactNearestByEachMetric) {
  for (Metric metric : {Metric::kDot, Metric::kCosine, Metric::kL2}) {
    auto vecs = RandomVectors(200, 4, 42);
    BruteForceIndex index(Matrix(4, vecs), metric);

    const auto query = RandomVectors(1, 4, 99)[0];
    const auto hits = index.Search(query, 10);
    ASSERT_EQ(hits.size(), 10u);
    // Verify against a straightforward scan.
    double best = -1e300;
    uint64_t best_label = 0;
    for (size_t i = 0; i < vecs.size(); ++i) {
      const double s = Similarity(metric, query.data(), vecs[i].data(), 4);
      if (s > best) {
        best = s;
        best_label = i;
      }
    }
    EXPECT_EQ(hits[0].label, best_label);
    EXPECT_NEAR(hits[0].similarity, best, 1e-9);
    // Sorted descending.
    for (size_t i = 1; i < hits.size(); ++i) {
      EXPECT_GE(hits[i - 1].similarity, hits[i].similarity);
    }
  }
}

TEST(BruteForceTest, SelfIsNearestUnderCosine) {
  auto vecs = RandomVectors(100, 8, 7);
  BruteForceIndex index(Matrix(8, vecs), Metric::kCosine);
  for (size_t i = 0; i < 20; ++i) {
    const auto hits = index.Search(vecs[i], 1);
    ASSERT_EQ(hits.size(), 1u);
    EXPECT_EQ(hits[0].label, i);
  }
}

TEST(BruteForceTest, KLargerThanIndexReturnsAll) {
  BruteForceIndex index(Matrix(2, {{1.0f, 0.0f}, {0.0f, 1.0f}}, 1),
                        Metric::kDot);
  EXPECT_EQ(index.Search(std::vector<float>{1.0f, 1.0f}, 10).size(), 2u);
}

TEST(BruteForceTest, EmptyIndexReturnsNothing) {
  BruteForceIndex index(Matrix(2, {}), Metric::kDot);
  EXPECT_TRUE(index.Search(std::vector<float>{1.0f, 0.0f}, 5).empty());
}

// ---------- Exact-scan oracle ----------

// Gaussian rows plus the ties a scan must break by row order: zero
// rows, duplicates, and power-of-two rescalings (equal cosine exactly),
// shuffled so copies land before and after their originals.
std::vector<std::vector<float>> TieHeavyRows(int dim, uint64_t seed,
                                             size_t n = 80) {
  auto rows = RandomVectors(n, dim, seed);
  rows.push_back(std::vector<float>(dim, 0.0f));
  rows.push_back(std::vector<float>(dim, 0.0f));
  for (size_t src : {3, 3, 10, 41}) rows.push_back(rows[src]);
  for (size_t src : {10, 20}) {
    std::vector<float> scaled = rows[src];
    for (float& x : scaled) x *= 2.0f;
    rows.push_back(scaled);
  }
  Rng rng(seed + 1);
  rng.Shuffle(&rows);
  return rows;
}

void ExpectSameHits(const std::vector<Neighbor>& got,
                    const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].label, want[i].label) << "rank " << i;
    EXPECT_EQ(got[i].similarity, want[i].similarity) << "rank " << i;
  }
}

// Random queries, a duplicated row (ties at the top) and the zero
// vector (every cosine 0, so the whole ranking is row order).
std::vector<std::vector<float>> OracleQueries(
    const std::vector<std::vector<float>>& rows, int dim) {
  auto queries = RandomVectors(4, dim, 123);
  for (const auto& row : rows) {
    if (std::count(rows.begin(), rows.end(), row) > 1) {
      queries.push_back(row);
      break;
    }
  }
  queries.push_back(std::vector<float>(dim, 0.0f));
  return queries;
}

TEST(ExactScanTest, MatchesStableSortOracleUnderEachMetric) {
  // 37 exercises the dot product's tail after the 8-wide blocks.
  for (int dim : {32, 37}) {
    const auto rows = TieHeavyRows(dim, 17, 600);
    const auto queries = OracleQueries(rows, dim);
    for (Metric metric : {Metric::kDot, Metric::kCosine, Metric::kL2}) {
      const auto matrix = Matrix(dim, rows, 1000, 7);
      BruteForceIndex exact(matrix, metric);
      IvfIndex::Options opts;
      opts.num_lists = 8;
      opts.nprobe = 8;  // every list: exact
      IvfIndex ivf(matrix, metric, opts);
      for (const auto& query : queries) {
        // 20, 57, 176 and 472 are the related-entities service's fetch
        // sizes (embedding and blend requests, filtered or not); 700 is
        // more than the table holds.
        for (size_t k : {1, 5, 17, 20, 57, 176, 472, 700}) {
          SCOPED_TRACE(testing::Message() << "dim " << dim << " metric "
                                          << static_cast<int>(metric)
                                          << " k " << k);
          const auto want = reference::Search(*matrix, metric, query, k);
          ExpectSameHits(exact.Search(query, k), want);
          ExpectSameHits(ivf.Search(query, k), want);
        }
      }
    }
  }
}

TEST(ExactScanTest, QuantizedMatchesStableSortOracle) {
  const int dim = 37;
  const auto rows = TieHeavyRows(dim, 29);
  const auto queries = OracleQueries(rows, dim);
  for (Metric metric : {Metric::kDot, Metric::kCosine}) {
    // What the index stores and searches with: cosine rows and queries
    // are unit-normalized in float before int8 quantization.
    auto prepare = [&](std::vector<float> v) {
      const double norm = Norm(v.data(), v.size());
      if (metric == Metric::kCosine && norm > 0.0) {
        const float inv = static_cast<float>(1.0 / norm);
        for (float& x : v) x *= inv;
      }
      return v;
    };
    QuantizedBruteForceIndex index(Matrix(dim, rows, 1000, 7), metric);
    std::vector<QuantizedVector> codes;
    for (size_t i = 0; i < rows.size(); ++i) {
      codes.push_back(QuantizeInt8(prepare(rows[i])));
    }
    for (const auto& query : queries) {
      const std::vector<float> q = prepare(query);
      std::vector<Neighbor> want;
      for (size_t i = 0; i < rows.size(); ++i) {
        want.push_back({1000 + 7 * i, DotQuantized(q, codes[i])});
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const Neighbor& a, const Neighbor& b) {
                         return a.similarity > b.similarity;
                       });
      want.resize(10);
      ExpectSameHits(index.Search(query, 10), want);
    }
  }
}

// ---------- IVF ----------

TEST(IvfTest, FullProbeMatchesBruteForce) {
  const int dim = 8;
  auto vecs = RandomVectors(500, dim, 3);
  const auto matrix = Matrix(dim, vecs);
  BruteForceIndex exact(matrix, Metric::kCosine);
  IvfIndex::Options opts;
  opts.num_lists = 10;
  opts.nprobe = 10;  // probe everything -> exact
  IvfIndex ivf(matrix, Metric::kCosine, opts);

  const auto query = RandomVectors(1, dim, 77)[0];
  const auto exact_hits = exact.Search(query, 10);
  const auto ivf_hits = ivf.Search(query, 10);
  ASSERT_EQ(ivf_hits.size(), exact_hits.size());
  for (size_t i = 0; i < exact_hits.size(); ++i) {
    EXPECT_EQ(ivf_hits[i].label, exact_hits[i].label);
  }
}

TEST(IvfTest, RecallImprovesWithNprobe) {
  const int dim = 16;
  const size_t n = 2000;
  auto vecs = RandomVectors(n, dim, 5);
  const auto matrix = Matrix(dim, vecs);
  BruteForceIndex exact(matrix, Metric::kCosine);
  IvfIndex::Options opts;
  opts.num_lists = 32;
  IvfIndex ivf(matrix, Metric::kCosine, opts);

  auto recall_at = [&](int nprobe) {
    ivf.set_nprobe(nprobe);
    double recall_sum = 0.0;
    const int queries = 30;
    for (int q = 0; q < queries; ++q) {
      const auto query = RandomVectors(1, dim, 1000 + q)[0];
      const auto truth = exact.Search(query, 10);
      const auto approx = ivf.Search(query, 10);
      std::set<uint64_t> truth_set;
      for (const auto& h : truth) truth_set.insert(h.label);
      int hit = 0;
      for (const auto& h : approx) {
        if (truth_set.count(h.label)) ++hit;
      }
      recall_sum += hit / 10.0;
    }
    return recall_sum / queries;
  };

  const double recall1 = recall_at(1);
  const double recall8 = recall_at(8);
  const double recall32 = recall_at(32);
  EXPECT_GT(recall8, recall1);
  EXPECT_GT(recall32, 0.99);
  EXPECT_GT(recall8, 0.5);
}

TEST(IvfTest, HandlesFewerPointsThanLists) {
  IvfIndex::Options opts;
  opts.num_lists = 64;
  IvfIndex ivf(Matrix(2, {{0.0f, 0.0f}, {1.0f, 1.0f}}, 1), Metric::kL2,
               opts);
  const auto hits = ivf.Search(std::vector<float>{0.1f, 0.1f}, 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].label, 1u);
}

TEST(IvfTest, EmptyIndexIsFine) {
  IvfIndex ivf(Matrix(4, {}), Metric::kDot, IvfIndex::Options());
  EXPECT_TRUE(ivf.Search(std::vector<float>{0, 0, 0, 0}, 3).empty());
}

// ---------- Quantization ----------

std::vector<float> Dequantize(const QuantizedVector& v) {
  std::vector<float> out(v.q.size());
  for (size_t i = 0; i < v.q.size(); ++i) {
    out[i] = static_cast<float>(v.q[i]) * v.scale;
  }
  return out;
}

TEST(QuantizationTest, RoundTripErrorIsBounded) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<float> x(64);
    float max_abs = 0.0f;
    for (float& v : x) {
      v = static_cast<float>(rng.UniformDouble(-2.0, 2.0));
      max_abs = std::max(max_abs, std::abs(v));
    }
    const QuantizedVector q = QuantizeInt8(x);
    const std::vector<float> restored = Dequantize(q);
    ASSERT_EQ(restored.size(), x.size());
    const float tolerance = max_abs / 127.0f + 1e-6f;
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(restored[i], x[i], tolerance);
    }
  }
}

TEST(QuantizationTest, ZeroVector) {
  const std::vector<float> zero(16, 0.0f);
  const QuantizedVector q = QuantizeInt8(zero);
  for (int8_t v : q.q) EXPECT_EQ(v, 0);
  EXPECT_EQ(Dequantize(q), zero);
}

TEST(QuantizationTest, DotApproximatesFloatDot) {
  Rng rng(11);
  double max_rel_err = 0.0;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<float> a(32);
    std::vector<float> b(32);
    for (int i = 0; i < 32; ++i) {
      a[i] = static_cast<float>(rng.NextGaussian());
      b[i] = static_cast<float>(rng.NextGaussian());
    }
    const double exact = Dot(a.data(), b.data(), 32);
    const double approx = DotQuantized(a, QuantizeInt8(b));
    const double scale = std::abs(exact) + 1.0;
    max_rel_err = std::max(max_rel_err, std::abs(exact - approx) / scale);
  }
  EXPECT_LT(max_rel_err, 0.05);
}

TEST(QuantizationTest, CompressionRatioIsFourX) {
  const std::vector<float> x(128, 1.0f);
  const QuantizedVector q = QuantizeInt8(x);
  EXPECT_EQ(QuantizedBytes(q), 128u + sizeof(float));
  EXPECT_LT(QuantizedBytes(q) * 3, x.size() * sizeof(float));
}

}  // namespace
}  // namespace saga::ann
