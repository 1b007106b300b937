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
/// [first, last_seq], held in memory for shipping and optionally
/// backed by a storage WAL (sequenced-record framing) for durability.
///
/// Invariants:
///  - seqs are contiguous: Append requires seq == last_seq + 1;
///  - entry epochs are non-decreasing in seq order;
///  - the WAL, when configured, always holds exactly the in-memory
///    entries [first, last_seq] — TruncateFrom rewrites it through
///    WalWriter::Reset(), so a restart replay reconstructs the same
///    window.
class ReplicatedLog {
 public:
  /// Empty `wal_path` = memory-only (the chaos harness's fast mode;
  /// durability is then modeled, not exercised).
  explicit ReplicatedLog(std::string wal_path = "");

  ReplicatedLog(const ReplicatedLog&) = delete;
  ReplicatedLog& operator=(const ReplicatedLog&) = delete;

  /// Opens the backing WAL (if any) and replays it into memory; a
  /// memory-only log keeps its entries.
  Status Open();

  /// Appends one record; `record.seq` must be last_seq + 1 (or any
  /// value for the very first record, seeding the window). When
  /// WAL-backed, the record is fsynced before OK.
  Status Append(const LogRecord& record);

  /// Drops every record with seq >= seq (divergence repair on a
  /// follower that split from a fenced leader). Rewrites the WAL.
  Status TruncateFrom(uint64_t seq);

  /// Records with seq >= seq, at most `max`, in order. Empty when seq
  /// is past the end.
  std::vector<LogRecord> ReadFrom(uint64_t seq, size_t max) const;

  /// Entry at `seq`, or nullptr when outside [first, last_seq].
  const LogRecord* At(uint64_t seq) const;

  /// 0 when empty.
  uint64_t last_seq() const {
    return entries_.empty() ? 0 : entries_.back().seq;
  }
  /// Epoch of the last entry (0 when empty) — the election
  /// restriction's first comparison key.
  uint64_t last_epoch() const {
    return entries_.empty() ? 0 : entries_.back().epoch;
  }

 private:
  /// Rewrites the backing WAL to exactly the in-memory entries.
  Status RewriteWal();

  std::string wal_path_;
  std::unique_ptr<storage::WalWriter> wal_;
  std::deque<LogRecord> entries_;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_LOG_H_
