#include "integrity/scrubber.h"

#include <chrono>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "embedding/embedding_store.h"
#include "storage/kv_store.h"

namespace saga::integrity {

namespace {

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Scrubber::Scrubber(std::string store_dir, Options options)
    : store_dir_(std::move(store_dir)), options_(options) {}

void Scrubber::ScrubFile(const std::string& name, const Check& verify,
                         OnRot on_rot, const Check& verify_copy) {
  const std::string path = JoinPath(store_dir_, name);
  if (!FileExists(path)) return;
  const Status why = verify(path);
  if (why.ok()) {
    uint64_t bytes = 0;
    if (auto size = FileSize(path); size.ok()) bytes = *size;
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.files_scanned;
    stats_.bytes_scanned += bytes;
    stats_.last_verified_unix_ms[name] = NowUnixMs();
    return;
  }
  if (!why.IsDataLoss() && !why.IsCorruption()) {
    // Transient (IO error, injected fault): leave it for the next pass.
    SAGA_LOG(Warning) << "scrub could not check " << path << ": " << why;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.corrupt_found;
  }
  SAGA_COUNTER("integrity.scrub.corrupt_found").Add();
  // Block-CRC and embedding-CRC failures already counted a detection at
  // the read site; structural open failures did not.
  if (!why.IsDataLoss()) {
    SAGA_COUNTER("integrity.corruption.detected").Add();
  }
  SAGA_LOG(Warning) << "scrub found corrupt file " << path << ": " << why;
  if (on_rot == OnRot::kReport) return;

  if (on_rot == OnRot::kRepair && options_.snapshots != nullptr) {
    auto from = options_.snapshots->RepairFile(name, verify_copy);
    if (from.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.repaired;
      stats_.last_verified_unix_ms[name] = NowUnixMs();
      return;
    }
    SAGA_LOG(Error) << "no snapshot copy of " << path << " put in place ("
                    << from.status() << "); quarantining";
  }

  if (storage::QuarantineFile(path).ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.quarantined;
    SAGA_COUNTER("integrity.corruption.quarantined").Add();
  } else {
    SAGA_LOG(Error) << "could not quarantine " << path;
  }
}

Status Scrubber::RunOnce() {
  SAGA_ASSIGN_OR_RETURN(std::vector<storage::LiveFile> live,
                        storage::LiveFiles(store_dir_));
  for (const storage::LiveFile& f : live) {
    auto verify = [&f](const std::string& p) {
      return storage::VerifyLiveFile(p, f.kind);
    };
    auto verify_copy = [&](const std::string& p) {
      return storage::VerifyRepairCopy(p, f.kind, store_dir_);
    };
    // An older WAL copy would drop or resurrect acked writes, and replay
    // already truncates a damaged tail: WAL rot is only reported.
    ScrubFile(f.name, verify,
              storage::IsWal(f.kind) ? OnRot::kReport : OnRot::kRepair,
              verify_copy);
  }
  // No snapshot holds the shard: it is checked and quarantined only.
  ScrubFile(embedding::EmbeddingStore::kShardFileName,
            &embedding::EmbeddingStore::Verify, OnRot::kQuarantine);

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.passes;
  }
  SAGA_COUNTER("integrity.scrub.passes").Add();
  SAGA_GAUGE("integrity.scrub.last_pass_unix_ms")
      .Set(static_cast<double>(NowUnixMs()));
  return Status::OK();
}

Scrubber::Stats Scrubber::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace saga::integrity
