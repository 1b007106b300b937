#include "resource/disk_space_governor.h"

#include <algorithm>

#include <sys/statvfs.h>

#include "common/metrics.h"

namespace saga::resource {

namespace {

/// Real-filesystem free space for `dir`, as a caller without
/// reservations would see it.
uint64_t StatvfsFreeBytes(const std::string& dir) {
  struct statvfs vfs{};
  if (::statvfs(dir.c_str(), &vfs) != 0) return 0;
  return static_cast<uint64_t>(vfs.f_bavail) *
         static_cast<uint64_t>(vfs.f_frsize);
}

}  // namespace

DiskSpaceGovernor::Reservation& DiskSpaceGovernor::Reservation::operator=(
    Reservation&& other) noexcept {
  if (this != &other) {
    Release();
    gov_ = other.gov_;
    bytes_ = other.bytes_;
    other.gov_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

void DiskSpaceGovernor::Reservation::Commit(uint64_t bytes_used) {
  if (gov_ == nullptr) return;
  gov_->CommitBytes(bytes_, std::min(bytes_used, bytes_));
  gov_ = nullptr;
  bytes_ = 0;
}

void DiskSpaceGovernor::Reservation::Release() {
  if (gov_ == nullptr) return;
  gov_->ReleaseBytes(bytes_);
  gov_ = nullptr;
  bytes_ = 0;
}

DiskSpaceGovernor::DiskSpaceGovernor(std::string data_dir, Options options)
    : data_dir_(std::move(data_dir)), options_(options) {
  UpdateMetrics();
}

uint64_t DiskSpaceGovernor::FreeBytesLocked() const {
  uint64_t raw = options_.budget_bytes > 0 ? options_.budget_bytes
                                           : StatvfsFreeBytes(data_dir_);
  if (options_.budget_bytes > 0) {
    raw = raw > used_ ? raw - used_ : 0;
  }
  return raw > reserved_ ? raw - reserved_ : 0;
}

Result<DiskSpaceGovernor::Reservation> DiskSpaceGovernor::Reserve(
    uint64_t bytes, ReservationClass cls) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t free = FreeBytesLocked();
  const uint64_t floor =
      cls == ReservationClass::kWrite ? options_.emergency_floor_bytes : 0;
  // While degraded every kWrite reservation is refused outright, even
  // if accounting would clear the floor: exit goes through the
  // hysteresis check (reclaim / freed bytes), not through the next
  // hopeful writer.
  const bool deny = (cls == ReservationClass::kWrite && degraded_) ||
                    free < bytes || free - bytes < floor;
  if (deny) {
    SAGA_COUNTER("resource.governor.denials").Add();
    if (cls == ReservationClass::kWrite) {
      EnterDegradedLocked("reservation denied");
    }
    return Status::StorageExhausted(
        "disk budget exhausted for " + data_dir_ + ": need " +
        std::to_string(bytes) + "B + " + std::to_string(floor) +
        "B floor, free " + std::to_string(free) + "B");
  }
  reserved_ += bytes;
  SAGA_GAUGE("resource.governor.reserved_bytes")
      .Set(static_cast<double>(reserved_));
  return Reservation(this, bytes);
}

void DiskSpaceGovernor::ReleaseBytes(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_ = reserved_ > bytes ? reserved_ - bytes : 0;
  SAGA_GAUGE("resource.governor.reserved_bytes")
      .Set(static_cast<double>(reserved_));
}

void DiskSpaceGovernor::CommitBytes(uint64_t reserved, uint64_t used) {
  std::lock_guard<std::mutex> lock(mu_);
  reserved_ = reserved_ > reserved ? reserved_ - reserved : 0;
  if (options_.budget_bytes > 0) used_ += used;
  SAGA_GAUGE("resource.governor.reserved_bytes")
      .Set(static_cast<double>(reserved_));
}

void DiskSpaceGovernor::OnBytesFreed(uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.budget_bytes > 0) {
    used_ = used_ > bytes ? used_ - bytes : 0;
  }
  SAGA_COUNTER("resource.reclaim.bytes_freed")
      .Add(static_cast<int64_t>(bytes));
  MaybeExitDegradedLocked();
}

void DiskSpaceGovernor::NoteExhausted(const std::string& why) {
  std::lock_guard<std::mutex> lock(mu_);
  EnterDegradedLocked(why);
}

void DiskSpaceGovernor::SetBudgetBytes(uint64_t budget_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.budget_bytes = budget_bytes;
  SAGA_GAUGE("resource.governor.budget_bytes")
      .Set(static_cast<double>(budget_bytes));
  // A raise can recover the store; a cut can sink it below the floor.
  // Only the raise acts immediately — a cut surfaces on the next
  // reservation, same as organic fill.
  MaybeExitDegradedLocked();
}

void DiskSpaceGovernor::EnterDegradedLocked(const std::string& why) {
  (void)why;
  if (degraded_) return;
  degraded_ = true;
  SAGA_COUNTER("resource.governor.degraded_entries").Add();
  SAGA_GAUGE("resource.governor.degraded").Set(1.0);
}

void DiskSpaceGovernor::MaybeExitDegradedLocked() {
  if (!degraded_) return;
  if (FreeBytesLocked() < ExitThresholdBytes()) return;
  degraded_ = false;
  SAGA_GAUGE("resource.governor.degraded").Set(0.0);
}

bool DiskSpaceGovernor::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

uint64_t DiskSpaceGovernor::FreeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return FreeBytesLocked();
}

uint64_t DiskSpaceGovernor::budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return options_.budget_bytes;
}

uint64_t DiskSpaceGovernor::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_;
}

uint64_t DiskSpaceGovernor::ExitThresholdBytes() const {
  return options_.emergency_floor_bytes * kExitHeadroomFactor;
}

void DiskSpaceGovernor::RegisterReclaimTask(std::string name, ReclaimFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  tasks_.push_back(ReclaimTask{std::move(name), std::move(fn)});
}

uint64_t DiskSpaceGovernor::RunReclaim() {
  // Copy the task list so reclaim work (which calls back into
  // OnBytesFreed) runs outside the governor lock.
  std::vector<ReclaimTask> tasks;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_) return 0;
    // An injected/transient exhaustion may have left degraded set with
    // plenty of headroom — recovery check first, before deleting data.
    MaybeExitDegradedLocked();
    if (!degraded_) return 0;
    tasks = tasks_;
  }
  SAGA_COUNTER("resource.reclaim.runs").Add();
  uint64_t total = 0;
  for (const ReclaimTask& task : tasks) {
    Result<uint64_t> freed = task.fn();
    if (freed.ok() && *freed > 0) {
      total += *freed;
      OnBytesFreed(*freed);  // runs the degraded-exit check
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!degraded_) break;  // recovered — do not over-delete
  }
  UpdateMetrics();
  return total;
}

void DiskSpaceGovernor::UpdateMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  SAGA_GAUGE("resource.governor.budget_bytes")
      .Set(static_cast<double>(options_.budget_bytes));
  SAGA_GAUGE("resource.governor.free_bytes")
      .Set(static_cast<double>(FreeBytesLocked()));
  SAGA_GAUGE("resource.governor.reserved_bytes")
      .Set(static_cast<double>(reserved_));
  SAGA_GAUGE("resource.governor.degraded").Set(degraded_ ? 1.0 : 0.0);
}

obs::HealthSection DiskSpaceGovernor::BuildHealthSection() const {
  std::lock_guard<std::mutex> lock(mu_);
  obs::HealthSection section("resource");
  section.Row("data_dir", data_dir_)
      .Row("budget_bytes", options_.budget_bytes)
      .Row("free_bytes", FreeBytesLocked())
      .Row("used_bytes", used_)
      .Row("reserved_bytes", reserved_)
      .Row("emergency_floor_bytes", options_.emergency_floor_bytes)
      .Row("exit_threshold_bytes", ExitThresholdBytes())
      .Row("degraded", degraded_)
      .Row("degraded_entries",
           SAGA_COUNTER("resource.governor.degraded_entries").Value())
      .Row("denials", SAGA_COUNTER("resource.governor.denials").Value())
      .Row("reclaim_bytes_freed",
           SAGA_COUNTER("resource.reclaim.bytes_freed").Value())
      .Row("reclaim_tasks", static_cast<uint64_t>(tasks_.size()));
  if (degraded_) {
    section.Note(
        "store is read-only degraded: writes fail fast with "
        "kResourceExhausted until reclaim restores headroom");
  }
  return section;
}

}  // namespace saga::resource
