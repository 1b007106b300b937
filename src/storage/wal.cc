#include "storage/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/serialization.h"

namespace saga::storage {

namespace {

/// Appends are buffered up to this many bytes before hitting the fd.
constexpr size_t kWalBufferBytes = 64 << 10;

}  // namespace

WalWriter::WalWriter(std::string path) : path_(std::move(path)) {}

WalWriter::~WalWriter() {
  // Best-effort flush of buffered (never-synced, hence unacknowledged)
  // records, matching what an OS page cache would eventually do.
  (void)FlushBuffer();
  CloseFd();
}

void WalWriter::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status WalWriter::OpenFd(int flags, const char* what) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | flags, 0644);
  if (fd_ < 0) {
    return Status::IOError(std::string(what) + " WAL " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status WalWriter::Open() {
  if (Faults().armed()) {
    SAGA_RETURN_IF_ERROR(Faults().InjectOp("wal.open"));
  }
  return OpenFd(O_APPEND, "cannot open");
}

Status WalWriter::WriteRaw(std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("WAL write failed " + path_ + ": " +
                             std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WalWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  SAGA_RETURN_IF_ERROR(WriteRaw(buffer_));
  buffer_.clear();
  return Status::OK();
}

Status WalWriter::Append(std::string_view record) {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  if (poisoned_) {
    return Status::FsyncGate("WAL poisoned by failed fsync: " + path_);
  }
  std::string encoded;
  BinaryWriter w(&encoded);
  w.PutFixed32(Crc32(record));
  w.PutFixed32(static_cast<uint32_t>(record.size()));
  encoded.append(record);
  if (Faults().armed()) {
    const WriteFault f = Faults().InjectWrite("wal.append", &encoded);
    if (f.no_space) {
      return Status::StorageExhausted("injected WAL ENOSPC: " + path_);
    }
    if (f.fail && !f.write_payload) {
      return Status::IOError("injected WAL append failure: " + path_);
    }
    if (f.fail) {
      // Torn append: the truncated prefix reaches the file — exactly the
      // state a crash mid-write leaves behind — and the caller sees an
      // error, so the record was never acknowledged.
      buffer_.append(encoded);
      (void)FlushBuffer();
      return Status::IOError("injected torn WAL append: " + path_);
    }
  }
  buffer_.append(encoded);
  bytes_written_ += encoded.size();
  if (buffer_.size() >= kWalBufferBytes) {
    SAGA_RETURN_IF_ERROR(FlushBuffer());
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  if (poisoned_) {
    return Status::FsyncGate("WAL poisoned by failed fsync: " + path_);
  }
  if (Faults().armed()) {
    Status injected = Faults().InjectOp("wal.sync");
    if (!injected.ok()) {
      // A failed sync poisons the writer whatever its cause: the fd's
      // dirty state is now indeterminate and must never be re-fsynced.
      // Keep a storage origin (injected ENOSPC) as-is; anything else
      // surfaces as the fsync-gate itself.
      poisoned_ = true;
      if (injected.IsStorageExhausted()) return injected;
      return Status::FsyncGate("injected WAL fsync failure " + path_ + ": " +
                               injected.message());
    }
  }
  SAGA_RETURN_IF_ERROR(FlushBuffer());
  if (::fsync(fd_) != 0) {
    poisoned_ = true;
    return Status::FsyncGate("WAL fsync failed " + path_ + ": " +
                             std::strerror(errno));
  }
  return Status::OK();
}

Status WalWriter::RotateTo(const std::string& sealed_path) {
  if (!is_open()) return Status::FailedPrecondition("WAL not open");
  if (poisoned_) {
    // Everything buffered after a failed fsync was never acknowledged
    // (sync mode flushes the buffer on every acked record), so it is
    // safe — and cleaner — to drop it than to seal indeterminate bytes.
    buffer_.clear();
  }
  Status flushed = FlushBuffer();
  if (!flushed.ok()) return flushed;
  CloseFd();
  Status renamed = RenameFileDurable(path_, sealed_path);
  if (!renamed.ok() && !FileExists(sealed_path)) {
    // Rename never happened: reopen the old log for append so the
    // writer stays usable and the caller can retry the seal later.
    Status reopened = Open();
    if (!reopened.ok()) return reopened;
    return renamed;
  }
  // The segment exists (even if the rename's directory sync failed —
  // the caller's recovery path scans for segment files, so a
  // half-durable rename is found either under the old or new name).
  poisoned_ = false;
  bytes_written_ = 0;
  SAGA_RETURN_IF_ERROR(OpenFd(O_TRUNC, "cannot reopen"));
  return renamed;
}

Status WalWriter::Reset() {
  buffer_.clear();
  CloseFd();
  poisoned_ = false;
  SAGA_RETURN_IF_ERROR(OpenFd(O_TRUNC, "cannot truncate"));
  bytes_written_ = 0;
  return Status::OK();
}

Result<WalReadResult> ReadWalRecordsDetailed(const std::string& path) {
  WalReadResult out;
  if (!FileExists(path)) return out;
  SAGA_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  if (Faults().armed() && !data.empty()) {
    // `wal.replay` models on-disk rot discovered at recovery time: a
    // kCorrupt fault flips a bit somewhere in the log image, and the
    // per-record CRCs below turn that into a clean stop-at-damage.
    SAGA_RETURN_IF_ERROR(
        Faults().InjectRead("wal.replay", data.data(), data.size()));
  }
  BinaryReader r(data);
  size_t intact_end = 0;
  while (!r.AtEnd()) {
    uint32_t crc = 0;
    uint32_t len = 0;
    if (!r.GetFixed32(&crc).ok() || !r.GetFixed32(&len).ok()) break;
    if (r.remaining() < len) break;  // torn tail record
    std::string_view payload(data.data() + r.position(), len);
    if (Crc32(payload) != crc) break;  // corrupt tail record
    out.records.emplace_back(payload);
    SAGA_RETURN_IF_ERROR(r.Skip(len));
    intact_end = r.position();
  }
  out.bytes_dropped = data.size() - intact_end;
  out.clean = out.bytes_dropped == 0;
  return out;
}

std::string EncodeSequencedRecord(const SequencedRecord& record) {
  std::string out;
  BinaryWriter w(&out);
  w.PutFixed64(record.seq);
  w.PutFixed64(record.epoch);
  out.append(record.payload);
  return out;
}

Result<SequencedRecord> DecodeSequencedRecord(std::string_view encoded) {
  BinaryReader r(encoded);
  SequencedRecord rec;
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&rec.seq));
  SAGA_RETURN_IF_ERROR(r.GetFixed64(&rec.epoch));
  rec.payload.assign(encoded.substr(r.position()));
  return rec;
}

Result<std::vector<SequencedRecord>> ReadWalRecordsFrom(
    const std::string& path, uint64_t min_seq) {
  SAGA_ASSIGN_OR_RETURN(WalReadResult raw, ReadWalRecordsDetailed(path));
  std::vector<SequencedRecord> out;
  for (const std::string& encoded : raw.records) {
    Result<SequencedRecord> rec = DecodeSequencedRecord(encoded);
    if (!rec.ok()) break;  // nothing past damage is trusted
    if (rec->seq >= min_seq) out.push_back(std::move(*rec));
  }
  return out;
}

}  // namespace saga::storage
