#include "ann/distance.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace saga::ann {

#if defined(__x86_64__) || defined(__i386__)

// s0..s3 are the four lanes of `lo`, s4..s7 those of `hi`, so lane j
// adds the products Dot() adds into s_j, in the same order. A float
// times a float has at most 48 significant bits, so the product is
// exact in double and the FMA rounds only the sum, as Dot()'s add
// does.
__attribute__((target("avx2,fma"))) double DotAvx2Fma(const double* a,
                                                       const float* b,
                                                       size_t dim) {
  __m256d lo = _mm256_setzero_pd();
  __m256d hi = _mm256_setzero_pd();
  const size_t blocked = dim - dim % 8;
  for (size_t i = 0; i < blocked; i += 8) {
    lo = _mm256_fmadd_pd(_mm256_loadu_pd(a + i),
                         _mm256_cvtps_pd(_mm_loadu_ps(b + i)), lo);
    hi = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                         _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)), hi);
  }
  if (blocked < dim) {
    // The tail goes into s0, one product at a time.
    double s0 = _mm256_cvtsd_f64(lo);
    for (size_t i = blocked; i < dim; ++i) {
      s0 += a[i] * static_cast<double>(b[i]);
    }
    lo = _mm256_blend_pd(lo, _mm256_set1_pd(s0), 0b0001);
  }
  // [s0+s1, s4+s5, s2+s3, s6+s7]; adding the halves gives
  // [(s0+s1)+(s2+s3), (s4+s5)+(s6+s7)], and the last add joins those:
  // Dot()'s combine order. Adding lo and hi lane by lane would not be.
  const __m256d pairs = _mm256_hadd_pd(lo, hi);
  const __m128d quads = _mm_add_pd(_mm256_castpd256_pd128(pairs),
                                   _mm256_extractf128_pd(pairs, 1));
  return _mm_cvtsd_f64(_mm_add_sd(quads, _mm_unpackhi_pd(quads, quads)));
}

bool CpuHasAvx2Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

#else

double DotAvx2Fma(const double* a, const float* b, size_t dim) {
  return Dot(a, b, dim);
}

bool CpuHasAvx2Fma() { return false; }

#endif

WideDotFn WideDot() {
  static const WideDotFn kernel =
      CpuHasAvx2Fma() ? &DotAvx2Fma : &Dot<double>;
  return kernel;
}

}  // namespace saga::ann
