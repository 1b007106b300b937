#include "common/fault_injection.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace saga {

namespace {

void SleepMillis(double ms) {
  if (ms <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

}  // namespace

void FaultInjector::Seed(uint64_t seed) {
  std::lock_guard<std::mutex> lock(mu_);
  rng_.Seed(seed);
}

void FaultInjector::Arm(const std::string& point, FaultSpec spec) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = points_.insert_or_assign(point, Armed{spec, 0});
  (void)it;
  if (inserted) armed_points_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::Disarm(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  if (points_.erase(point) > 0) {
    armed_points_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FaultInjector::InjectDelay(const std::string& point, double ms) {
  FaultSpec spec;
  spec.kind = FaultKind::kDelay;
  spec.delay_ms = ms;
  spec.fail_nth = 0;  // every hit
  spec.repeat = true;
  Arm(point, spec);
}

void FaultInjector::DisarmAll() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_points_.fetch_sub(static_cast<int>(points_.size()),
                          std::memory_order_relaxed);
  points_.clear();
}

uint64_t FaultInjector::hits(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hits_.find(point);
  return it == hits_.end() ? 0 : it->second;
}

uint64_t FaultInjector::fires(const std::string& point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fires_.find(point);
  return it == fires_.end() ? 0 : it->second;
}

std::vector<std::string> FaultInjector::ArmedPoints() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(points_.size());
  for (const auto& [name, armed] : points_) {
    (void)armed;
    out.push_back(name);
  }
  return out;  // std::map iterates sorted
}

std::optional<FaultSpec> FaultInjector::Check(const std::string& point) {
  std::lock_guard<std::mutex> lock(mu_);
  ++hits_[point];
  auto it = points_.find(point);
  if (it == points_.end()) return std::nullopt;
  Armed& armed = it->second;
  if (armed.spec.probability < 1.0 && !rng_.Bernoulli(armed.spec.probability)) {
    return std::nullopt;
  }
  ++armed.eligible_hits;
  const int nth = armed.spec.fail_nth;
  const bool fires =
      nth == 0 || (armed.spec.repeat
                       ? armed.eligible_hits >= static_cast<uint64_t>(nth)
                       : armed.eligible_hits == static_cast<uint64_t>(nth));
  if (!fires) return std::nullopt;
  FaultSpec spec = armed.spec;
  ++fires_[point];
  if (!spec.repeat) {
    points_.erase(it);
    armed_points_.fetch_sub(1, std::memory_order_relaxed);
  }
  return spec;
}

Status FaultInjector::InjectOp(const std::string& point) {
  if (auto spec = Check(point)) {
    if (spec->kind == FaultKind::kDelay) {
      // Stall outside the injector lock: concurrent requests must be
      // able to hit other points (and this one) while we sleep.
      SleepMillis(spec->delay_ms);
      return Status::OK();
    }
    if (spec->kind == FaultKind::kNoSpace) {
      return Status::StorageExhausted("injected ENOSPC at " + point);
    }
    return Status::IOError("injected fault at " + point);
  }
  return Status::OK();
}

TransportFault FaultInjector::InjectTransport(const std::string& point) {
  TransportFault out;
  auto spec = Check(point);
  if (!spec) return out;
  switch (spec->kind) {
    case FaultKind::kDelay:
      out.action = TransportFaultAction::kDelay;
      out.delay_ms = spec->delay_ms;
      break;
    case FaultKind::kDuplicate:
      out.action = TransportFaultAction::kDuplicate;
      break;
    case FaultKind::kReorder:
      out.action = TransportFaultAction::kReorder;
      break;
    case FaultKind::kFail:
    case FaultKind::kDrop:
    case FaultKind::kPartition:
    // A garbled frame fails its checksum at the receiver and is
    // discarded — from the sender's point of view, a drop. A sender
    // out of buffer space (kNoSpace) likewise never gets the frame
    // onto the wire.
    case FaultKind::kTornWrite:
    case FaultKind::kBitFlip:
    case FaultKind::kCorrupt:
    case FaultKind::kNoSpace:
      out.action = TransportFaultAction::kDrop;
      break;
  }
  return out;
}

Status FaultInjector::InjectRead(const std::string& point, char* data,
                                 size_t len) {
  auto spec = Check(point);
  if (!spec) return Status::OK();
  switch (spec->kind) {
    case FaultKind::kDelay:
      SleepMillis(spec->delay_ms);
      return Status::OK();
    case FaultKind::kFail:
    // Network kinds degrade to a plain failure on a disk-shaped path;
    // kNoSpace is meaningless for a read and does the same.
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
    case FaultKind::kReorder:
    case FaultKind::kPartition:
    case FaultKind::kNoSpace:
      return Status::IOError("injected read fault at " + point);
    case FaultKind::kCorrupt:
    case FaultKind::kBitFlip:
    case FaultKind::kTornWrite: {
      if (data != nullptr && len > 0) {
        std::lock_guard<std::mutex> lock(mu_);
        const size_t pos = rng_.Uniform(len);
        data[pos] = static_cast<char>(data[pos] ^ (1 << rng_.Uniform(8)));
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

WriteFault FaultInjector::InjectWrite(const std::string& point,
                                      std::string* payload) {
  auto spec = Check(point);
  if (!spec) return WriteFault{};
  WriteFault out;
  switch (spec->kind) {
    case FaultKind::kDelay:
      SleepMillis(spec->delay_ms);
      break;  // stalled, but the write proceeds untouched
    case FaultKind::kFail:
    // Network kinds degrade to a plain failure on a disk-shaped path.
    case FaultKind::kDrop:
    case FaultKind::kDuplicate:
    case FaultKind::kReorder:
    case FaultKind::kPartition:
      out.fail = true;
      out.write_payload = false;
      break;
    case FaultKind::kNoSpace:
      // ENOSPC: nothing reaches the device and the caller must surface
      // a storage-origin exhaustion, not a retryable IOError.
      out.fail = true;
      out.write_payload = false;
      out.no_space = true;
      break;
    case FaultKind::kTornWrite: {
      const double keep = std::clamp(spec->keep_fraction, 0.0, 1.0);
      const size_t n =
          static_cast<size_t>(keep * static_cast<double>(payload->size()));
      payload->resize(std::min(n, payload->size()));
      out.fail = true;
      out.write_payload = true;
      break;
    }
    case FaultKind::kBitFlip:
    case FaultKind::kCorrupt: {  // same silent mutation on a write path
      if (!payload->empty()) {
        std::lock_guard<std::mutex> lock(mu_);
        const size_t pos = rng_.Uniform(payload->size());
        (*payload)[pos] =
            static_cast<char>((*payload)[pos] ^ (1 << rng_.Uniform(8)));
      }
      out.fail = false;
      out.write_payload = true;
      break;
    }
  }
  return out;
}

FaultInjector& Faults() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

const std::vector<FaultPointInfo>& KnownFaultPoints() {
  static const std::vector<FaultPointInfo>* kPoints =
      new std::vector<FaultPointInfo>{
          {"file.write", "write", "generic file write (SSTable/manifest tmp)"},
          {"file.rename", "op", "atomic commit rename"},
          {"file.read", "op", "whole-file read into memory"},
          {"file.remove", "op", "stale file removal"},
          {"file.fsync", "op",
           "fsync(2) of a file or directory (failure = fsync-gate)"},
          {"file.dirsync", "op", "directory fsync after create/rename"},
          {"wal.open", "op", "WAL open/create"},
          {"wal.append", "write", "WAL record append (torn-tail capable)"},
          {"wal.sync", "op", "WAL fsync"},
          {"wal.replay", "read", "WAL image read at recovery"},
          {"sst.build", "write", "SSTable build stream"},
          {"sst.open", "op", "SSTable open"},
          {"sstable.flush", "op",
           "memtable flush to a new SSTable (ENOSPC-capable)"},
          {"compaction.write", "op",
           "compaction output table write (ENOSPC-capable)"},
          {"sstable.read_block", "read", "SSTable block read (CRC-checked)"},
          {"embedding.load", "read", "embedding shard load (CRC-checked)"},
          {"serving.index_build", "op", "ANN index construction"},
          {"ann.search", "op", "accelerated ANN search (latency/fault)"},
          {"kv.read", "op", "KvStore serving read (latency/fault)"},
          {"graph.traverse", "op", "PPR push-loop step (latency/fault)"},
          {"transport.send", "transport",
           "replication message send (drop/duplicate/reorder/delay/"
           "partition)"},
      };
  return *kPoints;
}

}  // namespace saga
