#ifndef SAGA_STORAGE_SSTABLE_H_
#define SAGA_STORAGE_SSTABLE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/bloom.h"

namespace saga::storage {

/// When (if ever) the read path re-verifies per-block CRCs. Open-time
/// always verifies the whole-file footer CRC; block verification
/// defends against bit rot that appears *after* open (page cache / RAM
/// / remapped sectors) and against long-lived readers.
enum class ReadVerifyMode {
  /// Verify each block the first time a read touches it, then memoize
  /// (one relaxed atomic flag per block) — near-free steady state.
  /// KvStore always reads this way.
  kFirstRead,
  /// Verify the containing block on every read: the scrubber's mode.
  kAlways,
};

/// Immutable sorted string table.
///
/// File layout (magic "SST2"):
///   entries:  (u8 type = 0 | varint klen | key | varint vlen | value)*
///   sparse index: (varint klen | key | varint offset)*   every Nth key
///   bloom: raw bloom bytes
///   block crcs: varint count | fixed32 crc per block — one block per
///       sparse-index entry, spanning to the next indexed offset
///   footer: fixed64 index_off | index_len | bloom_off | bloom_len |
///           blockcrc_off | blockcrc_len | num_entries |
///           fixed32 crc(every preceding byte, footer fields included) |
///           fixed32 magic
///
/// Any other magic is rejected as Corruption at open, and any other
/// entry type as Corruption on read: this repo writes no tombstones.
class SSTableBuilder {
 public:
  /// Every this-many-th key goes into the sparse index.
  static constexpr size_t kIndexInterval = 16;
  /// Bloom filter density.
  static constexpr int kBloomBitsPerKey = 10;

  /// Keys must be added in strictly increasing order.
  Status Add(std::string_view key, std::string_view value);

  /// Writes the finished table to `path` (atomic).
  Status Finish(const std::string& path, size_t expected_keys);

 private:
  std::string data_;
  std::vector<std::pair<std::string, uint64_t>> index_;
  std::vector<std::string> keys_for_bloom_;
  std::string last_key_;
  size_t num_entries_ = 0;
};

/// Reader over one SSTable. Loads the file once; lookups binary-search
/// the sparse index then scan at most SSTableBuilder::kIndexInterval
/// entries.
///
/// Integrity: every accessor (GetChecked / Scan*Checked /
/// VerifyChecksums) verifies per-block CRCs per the configured
/// ReadVerifyMode and answers kDataLoss on mismatch — corruption is
/// surfaced, never silently decoded or treated as a miss.
class SSTableReader {
 public:
  struct Entry {
    std::string key;
    std::string value;
  };

  static Result<std::shared_ptr<SSTableReader>> Open(
      const std::string& path,
      ReadVerifyMode verify = ReadVerifyMode::kFirstRead);

  /// Point lookup: nullopt when the key is not in this table. kDataLoss
  /// when the bytes backing the key's block fail their CRC. Fault
  /// point: `sstable.read_block` (kCorrupt flips a bit in the block
  /// about to be verified).
  Result<std::optional<Entry>> GetChecked(std::string_view key) const;

  /// Entries with the given prefix / all entries, in key order.
  /// kDataLoss on a bad block, kCorruption on an undecodable entry
  /// inside a CRC-clean block.
  Result<std::vector<Entry>> ScanPrefixChecked(std::string_view prefix) const;
  Result<std::vector<Entry>> ScanAllChecked() const;

  /// Re-verifies every block CRC (ignoring the first-read memo), e.g.
  /// for the background scrubber. kDataLoss names the first bad block.
  Status VerifyChecksums() const;

  size_t file_bytes() const { return data_.size(); }
  const std::string& path() const { return path_; }

  /// True if the bloom filter rules the key out (definite miss).
  bool DefinitelyMissing(std::string_view key) const {
    return !bloom_.MayContain(key);
  }

 private:
  SSTableReader(std::string path, std::string data, BloomFilter bloom)
      : path_(std::move(path)),
        data_(std::move(data)),
        bloom_(std::move(bloom)) {}

  Status ParseFooterAndIndex();

  /// Decodes the entry at byte offset `off`; advances *off past it.
  Status DecodeEntry(uint64_t* off, Entry* out) const;

  /// Largest indexed offset whose key <= `key`.
  uint64_t SeekOffset(std::string_view key) const;

  /// Index of the block containing byte offset `off` in the entry area.
  size_t BlockIndexFor(uint64_t off) const;
  /// Verifies (per verify mode, with memoization) the block containing
  /// `off`. kDataLoss on CRC mismatch.
  Status VerifyBlockContaining(uint64_t off) const;
  Status VerifyBlock(size_t block) const;

  std::string path_;
  std::string data_;
  BloomFilter bloom_;
  ReadVerifyMode verify_ = ReadVerifyMode::kFirstRead;
  std::vector<std::pair<std::string, uint64_t>> index_;
  /// Block i spans [block_starts_[i], block_starts_[i+1]) within the
  /// entry area (last block ends at entries_end_).
  std::vector<uint64_t> block_starts_;
  std::vector<uint32_t> block_crcs_;
  /// First-read verification memo, one flag per block; relaxed atomics
  /// so concurrent readers never lock.
  std::unique_ptr<std::atomic<uint8_t>[]> verified_;
  uint64_t entries_end_ = 0;
  uint64_t num_entries_ = 0;
};

}  // namespace saga::storage

#endif  // SAGA_STORAGE_SSTABLE_H_
