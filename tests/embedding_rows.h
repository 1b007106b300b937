#ifndef SAGA_TESTS_EMBEDDING_ROWS_H_
#define SAGA_TESTS_EMBEDDING_ROWS_H_

// Embedding stores built from explicit rows, through the path production
// reads: the rows are laid out as the EMB2 shard EmbeddingStore::Save
// writes, and EmbeddingStore::Load decodes them.

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/file_util.h"
#include "common/result.h"
#include "common/serialization.h"
#include "embedding/embedding_store.h"
#include "kg/ids.h"

namespace saga::embedding::test_shard {

constexpr uint32_t kEmb2Magic = 0x32424D45u;  // "EMB2"

struct Row {
  uint64_t id = 0;
  std::vector<float> vec;
};

/// An EMB2 file image: the magic, `payload`, and the CRC that seals it,
/// so a mutated payload gets past the checksum to the decoder.
inline std::string Sealed(std::string_view payload) {
  return EncodeBinaryFrame(kEmb2Magic, payload);
}

/// The payload Save lays out, with the header's dim and row count given
/// apart from the rows so that they can disagree.
inline std::string Payload(uint64_t dim, uint64_t n,
                           const std::vector<Row>& rows) {
  std::string buf;
  BinaryWriter w(&buf);
  w.PutVarint64(dim);
  w.PutVarint64(n);
  for (const Row& r : rows) {
    w.PutVarint64(r.id);
    w.PutVarint64(r.vec.size());
    for (float f : r.vec) w.PutFloat(f);
  }
  return buf;
}

/// Writes `rows`, in any order and all of one length, as an EMB2 shard.
inline Status WriteShard(
    const std::string& path,
    std::vector<std::pair<kg::EntityId, std::vector<float>>> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Row> out;
  out.reserve(rows.size());
  for (auto& [id, vec] : rows) out.push_back(Row{id.value(), std::move(vec)});
  const uint64_t dim = out.empty() ? 0 : out.front().vec.size();
  return WriteStringToFile(path, Sealed(Payload(dim, out.size(), out)));
}

/// The store EmbeddingStore::Load reads back from WriteShard's image.
inline Result<EmbeddingStore> StoreFromRows(
    std::vector<std::pair<kg::EntityId, std::vector<float>>> rows) {
  SAGA_ASSIGN_OR_RETURN(std::string dir, MakeTempDir("saga_emb_rows"));
  const std::string path = JoinPath(dir, "rows.emb");
  Status written = WriteShard(path, std::move(rows));
  Result<EmbeddingStore> store =
      written.ok() ? EmbeddingStore::Load(path) : Result<EmbeddingStore>(written);
  (void)RemoveDirRecursively(dir);
  return store;
}

}  // namespace saga::embedding::test_shard

#endif  // SAGA_TESTS_EMBEDDING_ROWS_H_
