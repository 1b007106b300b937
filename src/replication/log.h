#ifndef SAGA_REPLICATION_LOG_H_
#define SAGA_REPLICATION_LOG_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "replication/message.h"
#include "storage/wal.h"

namespace saga::replication {

/// The sequenced log one replica owns: a contiguous run of LogRecords
/// [first_seq, last_seq], held in memory for shipping and optionally
/// backed by a storage WAL (sequenced-record framing) for durability.
///
/// Invariants:
///  - seqs are contiguous: Append requires seq == last_seq + 1;
///  - entry epochs are non-decreasing in seq order;
///  - the WAL, when configured, always holds exactly the in-memory
///    suffix [first_seq, last_seq] — TruncateFrom and Compact rewrite
///    it through WalWriter::Reset(), so a restart replay reconstructs
///    the same window.
///
/// Compact(upto) drops the applied prefix but the in-memory tail keeps
/// serving ReadFrom() for follower catch-up — resetting the on-disk
/// WAL after shipping must never regress a lagging follower (pinned by
/// replication_test).
class ReplicatedLog {
 public:
  /// Empty `wal_path` = memory-only (the chaos harness's fast mode;
  /// durability is then modeled, not exercised).
  explicit ReplicatedLog(std::string wal_path = "");

  ReplicatedLog(const ReplicatedLog&) = delete;
  ReplicatedLog& operator=(const ReplicatedLog&) = delete;

  /// Opens the backing WAL (if any) and replays it into memory.
  Status Open();

  /// Appends one record; `record.seq` must be last_seq + 1 (or any
  /// value for the very first record, seeding first_seq). When
  /// WAL-backed, the record is fsynced before OK.
  Status Append(const LogRecord& record);

  /// Drops every record with seq >= seq (divergence repair on a
  /// follower that split from a fenced leader). Rewrites the WAL.
  Status TruncateFrom(uint64_t seq);

  /// Drops every record with seq <= upto_seq (they are applied and no
  /// follower needs them). Rewrites the WAL via Reset() + re-append.
  Status Compact(uint64_t upto_seq);

  /// Records with seq >= seq, at most `max`, in order. Empty when seq
  /// is past the end; callers must detect seq < first_seq() themselves
  /// (a compacted-away request needs a snapshot, not a ship).
  std::vector<LogRecord> ReadFrom(uint64_t seq, size_t max) const;

  /// Entry at `seq`, or nullptr when outside [first_seq, last_seq].
  const LogRecord* At(uint64_t seq) const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  /// 0 when empty.
  uint64_t first_seq() const {
    return entries_.empty() ? 0 : entries_.front().seq;
  }
  uint64_t last_seq() const {
    return entries_.empty() ? last_seq_floor_ : entries_.back().seq;
  }
  /// Epoch of the last entry (0 when empty) — the election
  /// restriction's first comparison key.
  uint64_t last_epoch() const {
    return entries_.empty() ? last_epoch_floor_ : entries_.back().epoch;
  }

  /// Epoch of the newest compacted-away entry (0 if never compacted):
  /// the consistency-check epoch for prev_seq == first_seq() - 1.
  uint64_t compacted_upto_epoch() const { return compacted_upto_epoch_; }

  bool wal_backed() const { return wal_ != nullptr; }
  /// Bytes the backing WAL has accepted since its last Reset (0 for
  /// memory-only logs).
  uint64_t wal_bytes_written() const {
    return wal_ ? wal_->bytes_written() : 0;
  }

 private:
  /// Rewrites the backing WAL to exactly the in-memory entries.
  Status RewriteWal();

  std::string wal_path_;
  std::unique_ptr<storage::WalWriter> wal_;
  std::deque<LogRecord> entries_;
  /// After Compact empties the log, remember where it ended so new
  /// appends keep the sequence contiguous.
  uint64_t last_seq_floor_ = 0;
  uint64_t last_epoch_floor_ = 0;
  uint64_t compacted_upto_epoch_ = 0;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_LOG_H_
