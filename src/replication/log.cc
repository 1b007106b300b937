#include "replication/log.h"

#include <algorithm>

namespace saga::replication {

ReplicatedLog::ReplicatedLog(std::string wal_path)
    : wal_path_(std::move(wal_path)) {}

Status ReplicatedLog::Open() {
  if (wal_path_.empty()) return Status::OK();
  entries_.clear();
  SAGA_ASSIGN_OR_RETURN(std::vector<storage::SequencedRecord> records,
                        storage::ReadWalRecordsFrom(wal_path_, 0));
  for (storage::SequencedRecord& rec : records) {
    // Replay tolerates a torn tail (the WAL reader already stopped at
    // damage); a mid-log gap means the file was hand-damaged, and we
    // keep the intact prefix — same stop-at-damage stance as KvStore.
    if (!entries_.empty() && rec.seq != entries_.back().seq + 1) break;
    entries_.push_back(LogRecord{rec.seq, rec.epoch, std::move(rec.payload)});
  }
  wal_ = std::make_unique<storage::WalWriter>(wal_path_);
  return wal_->Open();
}

Status ReplicatedLog::Append(const LogRecord& record) {
  if (!entries_.empty() && record.seq != entries_.back().seq + 1) {
    return Status::InvalidArgument("non-contiguous append: seq " +
                                   std::to_string(record.seq) + " after " +
                                   std::to_string(entries_.back().seq));
  }
  if (record.epoch < last_epoch()) {
    return Status::InvalidArgument("epoch regression in log append");
  }
  if (wal_) {
    const storage::SequencedRecord rec{record.seq, record.epoch,
                                       record.payload};
    SAGA_RETURN_IF_ERROR(wal_->Append(storage::EncodeSequencedRecord(rec)));
    SAGA_RETURN_IF_ERROR(wal_->Sync());
  }
  entries_.push_back(record);
  return Status::OK();
}

Status ReplicatedLog::TruncateFrom(uint64_t seq) {
  while (!entries_.empty() && entries_.back().seq >= seq) {
    entries_.pop_back();
  }
  return RewriteWal();
}

Status ReplicatedLog::RewriteWal() {
  if (!wal_) return Status::OK();
  SAGA_RETURN_IF_ERROR(wal_->Reset());
  for (const LogRecord& e : entries_) {
    const storage::SequencedRecord rec{e.seq, e.epoch, e.payload};
    SAGA_RETURN_IF_ERROR(wal_->Append(storage::EncodeSequencedRecord(rec)));
  }
  return wal_->Sync();
}

std::vector<LogRecord> ReplicatedLog::ReadFrom(uint64_t seq,
                                               size_t max) const {
  std::vector<LogRecord> out;
  if (entries_.empty() || max == 0) return out;
  const uint64_t first = entries_.front().seq;
  if (seq < first) seq = first;
  if (seq > entries_.back().seq) return out;
  size_t idx = static_cast<size_t>(seq - first);
  for (; idx < entries_.size() && out.size() < max; ++idx) {
    out.push_back(entries_[idx]);
  }
  return out;
}

const LogRecord* ReplicatedLog::At(uint64_t seq) const {
  if (entries_.empty()) return nullptr;
  const uint64_t first = entries_.front().seq;
  if (seq < first || seq > entries_.back().seq) return nullptr;
  return &entries_[static_cast<size_t>(seq - first)];
}

}  // namespace saga::replication
