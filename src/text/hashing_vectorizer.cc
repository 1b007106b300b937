#include "text/hashing_vectorizer.h"

#include <array>
#include <bit>
#include <cmath>

#include "common/hash.h"
#include "text/tokenizer.h"

namespace saga::text {

namespace {

constexpr uint64_t kFnvOffsetBasis = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

/// One thread's accumulator for EmbedPieces: a float per dimension and
/// a bitmap of the dimensions touched. Both are all zero between calls,
/// so a call clears only what it touched.
struct Accumulator {
  std::array<float, HashingVectorizer::kDim> sum{};
  std::array<uint64_t, HashingVectorizer::kDim / 64> touched{};
};

}  // namespace

void HashingVectorizer::EmbedPieces(std::span<const std::string_view> pieces,
                                    SparseVector* out) const {
  thread_local Accumulator acc;
  float* const sum = acc.sum.data();
  uint64_t* const touched = acc.touched.data();
  auto add = [&](uint64_t h, double weight) {
    const size_t i = h & (kDim - 1);
    const double sign = (Mix64(h) & 1) ? 1.0 : -1.0;
    sum[i] += static_cast<float>(sign * weight);
    touched[i >> 6] |= uint64_t{1} << (i & 63);
  };
  // Tokens are ForEachToken's: maximal runs of word characters, here
  // read once each. Float adds keep the order unigram 0, bigram 0-1,
  // unigram 1, ...
  bool first = true;
  uint64_t prev = 0;
  for (std::string_view piece : pieces) {
    const auto* p = reinterpret_cast<const unsigned char*>(piece.data());
    const auto* const end = p + piece.size();
    while (true) {
      while (p != end && kLoweredWordByte[*p] == 0) ++p;
      if (p == end) break;  // a piece boundary is a token break
      // Two FNV-1a lanes over the lowered bytes: the unigram
      // Hash64(tok), and the bigram, which continues the previous
      // token's state over "_" so it equals Hash64(prev_tok + "_" + tok)
      // (common/hash.h), across piece boundaries too.
      uint64_t uni = kFnvOffsetBasis;
      uint64_t bi = (prev ^ '_') * kFnvPrime;
      do {
        const unsigned char c = kLoweredWordByte[*p];
        uni = (uni ^ c) * kFnvPrime;
        bi = (bi ^ c) * kFnvPrime;
      } while (++p != end && kLoweredWordByte[*p] != 0);
      if (!first) add(bi, 0.5);
      add(uni, 1.0);
      prev = uni;
      first = false;
    }
  }
  // Untouched dimensions hold exact zeros, so summing only the touched
  // ones in ascending order gives the dense loop's bits.
  constexpr size_t words = kDim / 64;
  double norm_sq = 0.0;
  size_t count = 0;
  for (size_t w = 0; w < words; ++w) {
    count += static_cast<size_t>(std::popcount(touched[w]));
    for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
      const float v = sum[w * 64 + std::countr_zero(bits)];
      norm_sq += static_cast<double>(v) * v;
    }
  }
  const float inv =
      norm_sq > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm_sq)) : 1.0f;
  out->index.resize(count);
  out->value.resize(count);
  size_t k = 0;
  for (size_t w = 0; w < words; ++w) {
    for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1, ++k) {
      const size_t i = w * 64 + std::countr_zero(bits);
      out->index[k] = static_cast<uint16_t>(i);
      out->value[k] = sum[i] * inv;
      sum[i] = 0.0f;
    }
    touched[w] = 0;
  }
}

std::vector<float> HashingVectorizer::Embed(std::string_view text) const {
  thread_local SparseVector sparse;
  EmbedPieces({&text, 1}, &sparse);
  return ToDense(sparse);
}

std::vector<float> HashingVectorizer::ToDense(
    const SparseVector& sparse) const {
  std::vector<float> vec(kDim, 0.0f);
  for (size_t k = 0; k < sparse.index.size(); ++k) {
    vec[sparse.index[k]] = sparse.value[k];
  }
  return vec;
}

double HashingVectorizer::Cosine(const std::vector<float>& a,
                                 const std::vector<float>& b) {
  double dot = 0.0;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) dot += static_cast<double>(a[i]) * b[i];
  return dot;
}

double HashingVectorizer::Dot(const SparseVector& sparse,
                              const std::vector<float>& dense) {
  double dot = 0.0;
  for (size_t k = 0; k < sparse.index.size(); ++k) {
    const size_t i = sparse.index[k];
    // Ascending indices: the rest are past the end too, where Cosine's
    // min(a.size(), b.size()) stops.
    if (i >= dense.size()) break;
    dot += static_cast<double>(dense[i]) * sparse.value[k];
  }
  return dot;
}

}  // namespace saga::text
