#ifndef SAGA_COMMON_RNG_H_
#define SAGA_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace saga {

/// Deterministic pseudo-random number generator (xoshiro256** seeded via
/// splitmix64). Every stochastic component in the platform draws from an
/// explicitly seeded Rng so experiments and tests are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Uniform in [0, 2^64).
  uint64_t NextUint64();

  /// Uniform in [0, n). n must be > 0.
  uint64_t Uniform(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// True with probability p.
  bool Bernoulli(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->size() < 2) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Uniform(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Uniformly chosen element. v must be non-empty.
  template <typename T>
  const T& Pick(const std::vector<T>& v) {
    return v[Uniform(v.size())];
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t state_[4];
  bool has_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace saga

#endif  // SAGA_COMMON_RNG_H_
