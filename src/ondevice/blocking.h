#ifndef SAGA_ONDEVICE_BLOCKING_H_
#define SAGA_ONDEVICE_BLOCKING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "ondevice/source_record.h"

namespace saga::ondevice {

/// Candidate pair of record indexes (i < j).
using CandidatePair = std::pair<uint32_t, uint32_t>;

/// Key-based blocking for entity matching: records sharing a normalized
/// phone, an email, or a name-token key become candidate pairs, so the
/// matcher scores O(candidates) instead of O(n^2) (§5 resource
/// constraints; "pairwise blocking ... spills to disk as necessary").
class Blocker {
 public:
  struct Options {
    /// Memory budget for the key-sort; small budgets spill runs to
    /// disk via ExternalSorter.
    size_t memory_budget_bytes = 1 << 20;
    std::string spill_dir;  // required when spilling possible
  };

  /// Blocks larger than this are skipped (stop-word names like "Tim"
  /// alone would otherwise explode quadratically).
  static constexpr size_t kMaxBlockSize = 64;

  struct Stats {
    size_t keys_emitted = 0;
    size_t blocks = 0;
    size_t oversize_blocks_skipped = 0;
    size_t pairs = 0;
    size_t runs_spilled = 0;
    uint64_t bytes_spilled = 0;
    /// Largest in-memory sort buffer actually held (<= budget + one
    /// record of slack).
    size_t peak_buffer_bytes = 0;
  };

  explicit Blocker(Options options);

  /// Blocking keys of one record (deduplicated).
  static std::vector<std::string> KeysFor(const SourceRecord& record);

  /// All candidate pairs across the records, deduplicated, via a
  /// bounded-memory sort-merge over (key, record) pairs.
  Result<std::vector<CandidatePair>> CandidatePairs(
      const std::vector<SourceRecord>& records);

  const Stats& stats() const { return stats_; }

 private:
  Options options_;
  Stats stats_;
};

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_BLOCKING_H_
