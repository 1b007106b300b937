#ifndef SAGA_STORAGE_WAL_H_
#define SAGA_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace saga::storage {

/// Append-only write-ahead log. Each record: fixed32 crc | fixed32 len |
/// payload. Replay stops cleanly at the first torn or corrupt record so
/// a crash mid-append loses at most the unacknowledged tail.
///
/// Appends accumulate in a small userspace buffer; Sync() writes the
/// buffer to a raw POSIX fd and fsyncs, so a Status::OK from Sync means the
/// records are durable, not merely handed to the OS. Fault points:
/// `wal.open`, `wal.append` (payload-mutating), `wal.sync`.
///
/// Fsync-gate: a failed Sync() poisons the writer. After fsync reports
/// failure the kernel may have dropped the dirty pages, so re-fsyncing
/// the same fd can "succeed" for records that never reached disk;
/// every Append/Sync on a poisoned writer therefore fails fast with a
/// kFsyncGate status until Reset() rebuilds the log on a fresh fd
/// (truncate-to-empty after the memtable is flushed elsewhere).
class WalWriter {
 public:
  explicit WalWriter(std::string path);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens (creating or appending). Must be called before Append.
  Status Open();

  Status Append(std::string_view record);

  /// Flushes buffered records to the file and fsyncs it. A failure
  /// poisons the writer (see class comment).
  Status Sync();

  /// Closes and truncates the log to empty (called after a successful
  /// memtable flush). Clears the fsync-gate poison: the truncated file
  /// on a fresh fd is a rebuilt log with nothing suspect in flight.
  Status Reset();

  /// Seals the current log as `sealed_path` (durable rename) and
  /// reopens a fresh empty log at the original path. Used when a
  /// memtable is sealed for background flush: the segment's replay
  /// coverage matches the sealed memtable exactly, so it can be
  /// deleted once that memtable is flushed and manifest-committed.
  /// Clears the fsync-gate poison on success (fresh fd, and every
  /// byte suspect from the failed fsync is quarantined inside the
  /// sealed segment, never re-fsynced). On failure the writer either
  /// keeps its old log (rename never happened) or is left closed; the
  /// caller must not treat the seal as done.
  Status RotateTo(const std::string& sealed_path);

  /// True after a failed Sync until the log is rebuilt via Reset().
  bool poisoned() const { return poisoned_; }

  /// False when a failed rotation left the writer without a log fd
  /// (Reset() rebuilds it).
  bool is_open() const { return fd_ >= 0; }

  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status FlushBuffer();
  Status WriteRaw(std::string_view data);
  /// Opens path_ for writing with `flags` added to O_WRONLY | O_CREAT.
  Status OpenFd(int flags, const char* what);
  void CloseFd();

  std::string path_;
  std::string buffer_;
  int fd_ = -1;
  uint64_t bytes_written_ = 0;
  bool poisoned_ = false;
};

/// Everything learned from reading a WAL file: the intact records plus
/// how much trailing data was dropped (torn or corrupt tail). Callers
/// that care about silent data loss surface `bytes_dropped` as a
/// metric instead of hiding it.
struct WalReadResult {
  std::vector<std::string> records;
  /// Trailing bytes after the last intact record (0 on a clean log).
  uint64_t bytes_dropped = 0;
  /// False when a torn or corrupt tail was dropped.
  bool clean = true;
};

/// Reads all intact records plus drop accounting. A missing file yields
/// an empty, clean result (fresh database). Fault point: `wal.replay`
/// (kCorrupt flips a bit in the log image before parsing, exercising
/// the stop-at-damage path).
Result<WalReadResult> ReadWalRecordsDetailed(const std::string& path);

/// A WAL payload carrying replication metadata: the leader-assigned
/// monotonic sequence number, the epoch under which it was appended,
/// and the opaque application payload. The replication tier ships
/// these records follower-to-follower; the (seq, epoch) pair is what
/// fencing and divergence repair reason about.
struct SequencedRecord {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  std::string payload;
};

/// fixed64 seq | fixed64 epoch | payload — framed inside the ordinary
/// CRC'd WAL record format, so a sequenced log replays with the same
/// stop-at-damage guarantees as any other WAL.
std::string EncodeSequencedRecord(const SequencedRecord& record);
Result<SequencedRecord> DecodeSequencedRecord(std::string_view encoded);

/// Replays `path` and returns every intact sequenced record with
/// seq >= min_seq, in log order — the follower catch-up iteration
/// ("ship me everything from seq N"). Undecodable payloads stop the
/// scan (same contract as torn-tail handling: nothing past damage is
/// trusted).
Result<std::vector<SequencedRecord>> ReadWalRecordsFrom(
    const std::string& path, uint64_t min_seq);

}  // namespace saga::storage

#endif  // SAGA_STORAGE_WAL_H_
