#include "ondevice/sync.h"

#include <algorithm>

#include "common/serialization.h"
#include "ondevice/blocking.h"
#include "ondevice/fusion.h"
#include "ondevice/incremental_pipeline.h"

namespace saga::ondevice {

void Device::AddLocalRecord(SourceRecord rec) {
  records_[rec.native_id] = std::move(rec);
}

bool Device::ApplyRemote(const SourceRecord& rec) {
  auto it = records_.find(rec.native_id);
  if (it == records_.end()) {
    records_.emplace(rec.native_id, rec);
    return true;
  }
  if (rec.timestamp > it->second.timestamp) {
    it->second = rec;
    return true;
  }
  return false;
}

std::vector<SourceRecord> Device::VisibleRecords() const {
  std::vector<SourceRecord> out;
  out.reserve(records_.size());
  for (const auto& [id, rec] : records_) out.push_back(rec);
  return out;
}

std::vector<SourceRecord> Device::RecordsOfSource(SourceKind source) const {
  std::vector<SourceRecord> out;
  for (const auto& [id, rec] : records_) {
    if (rec.source == source) out.push_back(rec);
  }
  return out;
}

namespace {
uint64_t RecordBytes(const SourceRecord& rec) {
  std::string buf;
  BinaryWriter w(&buf);
  rec.Serialize(&w);
  return buf.size();
}
}  // namespace

SyncStats SyncService::SyncAll(std::vector<Device>* devices) const {
  SyncStats stats;
  bool changed = true;
  while (changed) {
    changed = false;
    ++stats.rounds;
    for (size_t a = 0; a < devices->size(); ++a) {
      for (size_t b = 0; b < devices->size(); ++b) {
        if (a == b) continue;
        Device& sender = (*devices)[a];
        Device& receiver = (*devices)[b];
        for (int s = 0; s < kNumSourceKinds; ++s) {
          const SourceKind source = static_cast<SourceKind>(s);
          // A source flows only when both sides opted into syncing it.
          if (!sender.config().sync_enabled[s] ||
              !receiver.config().sync_enabled[s]) {
            continue;
          }
          for (const SourceRecord& rec : sender.RecordsOfSource(source)) {
            if (receiver.ApplyRemote(rec)) {
              ++stats.records_sent;
              stats.bytes_sent += RecordBytes(rec);
              changed = true;
            }
          }
        }
      }
    }
    if (stats.rounds > 16) break;  // safety against livelock
  }
  return stats;
}

bool SyncService::SourcesConsistent(const std::vector<Device>& devices,
                                    SourceKind source) {
  const int s = static_cast<int>(source);
  const Device* reference = nullptr;
  for (const Device& d : devices) {
    if (!d.config().sync_enabled[s]) continue;
    if (reference == nullptr) {
      reference = &d;
      continue;
    }
    const auto a = reference->RecordsOfSource(source);
    const auto b = d.RecordsOfSource(source);
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].native_id != b[i].native_id ||
          a[i].timestamp != b[i].timestamp || a[i].name != b[i].name) {
        return false;
      }
    }
  }
  return true;
}

OffloadStats OffloadFusion(std::vector<Device>* devices) {
  OffloadStats stats;
  if (devices->empty()) return stats;
  // Pick the beefiest device.
  size_t best = 0;
  for (size_t i = 1; i < devices->size(); ++i) {
    if ((*devices)[i].config().compute_power >
        (*devices)[best].config().compute_power) {
      best = i;
    }
  }
  Device& compute = (*devices)[best];
  stats.compute_device = compute.config().id;

  const std::vector<SourceRecord> records = compute.VisibleRecords();
  IncrementalPipeline pipeline(&records);
  while (!pipeline.done()) pipeline.RunSteps(4096);
  std::vector<FusedPerson> fused = pipeline.FusedPersons();

  // Ship the fused view to every other device.
  for (const FusedPerson& p : fused) {
    stats.bytes_shipped += p.display_name.size() + p.provenance.size() * 16;
    for (const auto& s : p.interactions) stats.bytes_shipped += s.size();
  }
  stats.persons_shipped = fused.size();
  return stats;
}

}  // namespace saga::ondevice
