#ifndef SAGA_ONDEVICE_SYNC_H_
#define SAGA_ONDEVICE_SYNC_H_

#include <array>
#include <map>
#include <string>
#include <vector>

#include "ondevice/source_record.h"

namespace saga::ondevice {

/// Per-device configuration: which sources it syncs and how much
/// compute it has (laptop vs watch; §5 Sync). Which records originate
/// on a device is whatever its owner adds with AddLocalRecord.
struct DeviceConfig {
  std::string id;
  double compute_power = 1.0;
  /// Per-source sync preference: share + accept records of this source.
  std::array<bool, kNumSourceKinds> sync_enabled{};
};

/// One device's replica: locally hosted records plus records replicated
/// from peers, merged last-writer-wins by (native_id, timestamp).
class Device {
 public:
  explicit Device(DeviceConfig config) : config_(std::move(config)) {}

  const DeviceConfig& config() const { return config_; }

  void AddLocalRecord(SourceRecord rec);

  /// LWW merge of a replicated record; returns true if state changed.
  bool ApplyRemote(const SourceRecord& rec);

  /// All records visible on this device, in native_id order.
  std::vector<SourceRecord> VisibleRecords() const;

  /// Records of one source, in native_id order (for consistency
  /// checks).
  std::vector<SourceRecord> RecordsOfSource(SourceKind source) const;

 private:
  DeviceConfig config_;
  std::map<std::string, SourceRecord> records_;  // by native_id
};

struct SyncStats {
  size_t records_sent = 0;
  uint64_t bytes_sent = 0;
  int rounds = 0;
};

/// Pairwise anti-entropy sync: each round, every device sends records
/// of its sync-enabled sources to every peer that also syncs that
/// source; repeats until no state changes. Unsynced sources never
/// leave their device.
class SyncService {
 public:
  SyncStats SyncAll(std::vector<Device>* devices) const;

  /// True when every pair of devices that both sync `source` holds the
  /// same record set for it.
  static bool SourcesConsistent(const std::vector<Device>& devices,
                                SourceKind source);
};

struct OffloadStats {
  std::string compute_device;
  uint64_t bytes_shipped = 0;
  size_t persons_shipped = 0;
};

/// Computation offload (§5): the most powerful device runs entity
/// matching + fusion over its visible records; the stats count what
/// shipping the fused result to the other devices costs, so they need
/// not run the expensive pipeline locally.
OffloadStats OffloadFusion(std::vector<Device>* devices);

}  // namespace saga::ondevice

#endif  // SAGA_ONDEVICE_SYNC_H_
