#ifndef SAGA_TEXT_HASHING_VECTORIZER_H_
#define SAGA_TEXT_HASHING_VECTORIZER_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace saga::text {

/// A vector stored as its touched dimensions: `index` ascending, each
/// with its `value`. An entity profile touches about 41 of 256
/// dimensions. Callers reuse one across embeddings to keep its storage.
struct SparseVector {
  std::vector<uint16_t> index;
  std::vector<float> value;
};

/// Feature-hashing text embedder: each (lowercased) token and token
/// bigram hashes to a dimension with a sign hash, producing an
/// L2-normalized vector. Plays the role of the paper's learned text
/// encoders for contextual reranking: entity textual features (name,
/// description, facts) embed into the same space as query/document
/// context, and cosine similarity is meaningful because shared tokens
/// land in shared dimensions.
class HashingVectorizer {
 public:
  struct Options {
    /// At most 65536, so a dimension fits SparseVector's uint16_t index.
    int dim = 256;
    bool use_bigrams = true;
    /// Down-weight frequent tokens: weight = 1/log(2 + df) when a
    /// document-frequency table is supplied via FitDf.
    bool use_idf = true;
  };

  HashingVectorizer();
  explicit HashingVectorizer(Options options);

  /// Accumulates document frequencies from a corpus sample so Embed can
  /// idf-weight. Optional; without it all tokens weigh 1.
  void FitDf(const std::vector<std::string_view>& docs);
  void FitDf(const std::vector<std::string>& docs);

  /// The one hashing kernel. Writes into `out` the L2-normalized
  /// embedding of the text that joins `pieces` with " ": each piece
  /// boundary is a token break, and the last token of one piece pairs
  /// with the first of the next into a bigram. ToDense(*out) is
  /// bit-identical to Embed(joined).
  void EmbedPieces(std::span<const std::string_view> pieces,
                   SparseVector* out) const;

  /// Dense L2-normalized embedding of `text`: EmbedPieces of the one
  /// piece, scattered by ToDense.
  std::vector<float> Embed(std::string_view text) const;

  /// `sparse` as a dense vector of dim() floats.
  std::vector<float> ToDense(const SparseVector& sparse) const;

  /// Cosine similarity of two vectors from this vectorizer (assumes
  /// both are L2-normalized, so this is a dot product).
  static double Cosine(const std::vector<float>& a,
                       const std::vector<float>& b);

  /// Cosine(dense, v) bit for bit, where `v` is any dense vector whose
  /// entries are `sparse` and zeros: the same products, summed into a
  /// double in the same ascending index order, less the terms that are
  /// exact zeros. Stops at the first index >= dense.size(), so `v` may
  /// be shorter or longer than `dense`, as in Cosine.
  static double Dot(const SparseVector& sparse,
                    const std::vector<float>& dense);

  int dim() const { return options_.dim; }

 private:
  /// Transparent hash so `df_` is probed with a token's string_view.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };

  double IdfWeight(std::string_view token) const;

  Options options_;
  /// dim - 1 when dim is a power of two, so a bucket is a mask rather
  /// than a 64-bit divide; 0 otherwise.
  uint64_t dim_mask_ = 0;
  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>> df_;
  uint32_t num_docs_ = 0;
};

}  // namespace saga::text

#endif  // SAGA_TEXT_HASHING_VECTORIZER_H_
