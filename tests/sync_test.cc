#include <gtest/gtest.h>

#include <set>

#include "ondevice/device_data_generator.h"
#include "ondevice/incremental_pipeline.h"
#include "ondevice/sync.h"

namespace saga::ondevice {
namespace {

/// Builds the Fig-7-style fleet: a laptop hosting contacts+calendar, a
/// phone hosting messages, a watch hosting nothing. Contacts and
/// messages sync everywhere; calendar stays on the laptop.
std::vector<Device> MakeFleet(const DeviceDataset& data) {
  DeviceConfig laptop_cfg;
  laptop_cfg.id = "laptop";
  laptop_cfg.compute_power = 10.0;
  laptop_cfg.sync_enabled[static_cast<int>(SourceKind::kContacts)] = true;
  laptop_cfg.sync_enabled[static_cast<int>(SourceKind::kMessages)] = true;
  // calendar NOT synced.

  DeviceConfig phone_cfg;
  phone_cfg.id = "phone";
  phone_cfg.compute_power = 3.0;
  phone_cfg.sync_enabled[static_cast<int>(SourceKind::kContacts)] = true;
  phone_cfg.sync_enabled[static_cast<int>(SourceKind::kMessages)] = true;

  DeviceConfig watch_cfg;
  watch_cfg.id = "watch";
  watch_cfg.compute_power = 0.5;
  watch_cfg.sync_enabled[static_cast<int>(SourceKind::kContacts)] = true;
  watch_cfg.sync_enabled[static_cast<int>(SourceKind::kMessages)] = true;

  std::vector<Device> devices;
  devices.emplace_back(laptop_cfg);
  devices.emplace_back(phone_cfg);
  devices.emplace_back(watch_cfg);

  for (const SourceRecord& rec : data.records) {
    switch (rec.source) {
      case SourceKind::kContacts:
      case SourceKind::kCalendar:
        devices[0].AddLocalRecord(rec);
        break;
      case SourceKind::kMessages:
        devices[1].AddLocalRecord(rec);
        break;
    }
  }
  return devices;
}

DeviceDataset MakeData() { return GenerateDeviceData(/*num_persons=*/50); }

TEST(SyncTest, SyncedSourcesConverge) {
  DeviceDataset data = MakeData();
  auto devices = MakeFleet(data);
  EXPECT_FALSE(
      SyncService::SourcesConsistent(devices, SourceKind::kContacts));

  SyncService sync;
  const SyncStats stats = sync.SyncAll(&devices);
  EXPECT_GT(stats.records_sent, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_TRUE(
      SyncService::SourcesConsistent(devices, SourceKind::kContacts));
  EXPECT_TRUE(
      SyncService::SourcesConsistent(devices, SourceKind::kMessages));
}

TEST(SyncTest, UnsyncedSourceStaysIsolated) {
  DeviceDataset data = MakeData();
  auto devices = MakeFleet(data);
  SyncService sync;
  (void)sync.SyncAll(&devices);

  // Calendar records exist only on the laptop.
  EXPECT_FALSE(devices[0].RecordsOfSource(SourceKind::kCalendar).empty());
  EXPECT_TRUE(devices[1].RecordsOfSource(SourceKind::kCalendar).empty());
  EXPECT_TRUE(devices[2].RecordsOfSource(SourceKind::kCalendar).empty());
}

TEST(SyncTest, SyncIsIdempotent) {
  DeviceDataset data = MakeData();
  auto devices = MakeFleet(data);
  SyncService sync;
  (void)sync.SyncAll(&devices);
  const SyncStats again = sync.SyncAll(&devices);
  EXPECT_EQ(again.records_sent, 0u);
  EXPECT_EQ(again.bytes_sent, 0u);
}

TEST(SyncTest, LastWriterWinsOnConcurrentUpdate) {
  DeviceConfig a_cfg;
  a_cfg.id = "a";
  a_cfg.sync_enabled[static_cast<int>(SourceKind::kContacts)] = true;
  DeviceConfig b_cfg;
  b_cfg.id = "b";
  b_cfg.sync_enabled[static_cast<int>(SourceKind::kContacts)] = true;
  std::vector<Device> devices;
  devices.emplace_back(a_cfg);
  devices.emplace_back(b_cfg);

  SourceRecord old_version;
  old_version.source = SourceKind::kContacts;
  old_version.native_id = "contacts:1";
  old_version.name = "Old Name";
  old_version.timestamp = 10;
  SourceRecord new_version = old_version;
  new_version.name = "New Name";
  new_version.timestamp = 20;

  devices[0].AddLocalRecord(old_version);
  devices[1].AddLocalRecord(new_version);
  SyncService sync;
  (void)sync.SyncAll(&devices);
  EXPECT_EQ(devices[0].RecordsOfSource(SourceKind::kContacts)[0].name,
            "New Name");
  EXPECT_EQ(devices[1].RecordsOfSource(SourceKind::kContacts)[0].name,
            "New Name");
}

TEST(SyncTest, ApplyRemoteIgnoresStaleUpdates) {
  DeviceConfig cfg;
  cfg.id = "d";
  Device device(cfg);
  SourceRecord fresh;
  fresh.native_id = "x";
  fresh.name = "fresh";
  fresh.timestamp = 100;
  SourceRecord stale = fresh;
  stale.name = "stale";
  stale.timestamp = 50;
  EXPECT_TRUE(device.ApplyRemote(fresh));
  EXPECT_FALSE(device.ApplyRemote(stale));
  EXPECT_FALSE(device.ApplyRemote(fresh));  // duplicate
  EXPECT_EQ(device.VisibleRecords()[0].name, "fresh");
}

TEST(OffloadTest, PowerfulDeviceComputesAndShipsFusion) {
  DeviceDataset data = MakeData();
  auto devices = MakeFleet(data);
  SyncService sync;
  (void)sync.SyncAll(&devices);

  const OffloadStats stats = OffloadFusion(&devices);
  EXPECT_EQ(stats.compute_device, "laptop");
  EXPECT_GT(stats.persons_shipped, 0u);
  EXPECT_GT(stats.bytes_shipped, 0u);
}

TEST(OffloadTest, WatchViewCoversSyncedPersons) {
  DeviceDataset data = MakeData();
  auto devices = MakeFleet(data);
  SyncService sync;
  (void)sync.SyncAll(&devices);
  const OffloadStats stats = OffloadFusion(&devices);

  // The laptop computes the shipped view by fusing its visible records.
  ASSERT_EQ(stats.compute_device, "laptop");
  const std::vector<SourceRecord> records = devices[0].VisibleRecords();
  IncrementalPipeline pipeline(&records);
  while (!pipeline.done()) pipeline.RunSteps(4096);
  const std::vector<FusedPerson> fused = pipeline.FusedPersons();
  EXPECT_EQ(stats.persons_shipped, fused.size());

  // Persons appearing in contacts must be present in the shipped fused
  // view (contacts are synced).
  std::set<std::string> fused_names;
  for (const FusedPerson& p : fused) {
    for (const std::string& n : p.names) fused_names.insert(n);
  }
  size_t covered = 0;
  size_t total = 0;
  for (const SourceRecord& rec :
       devices[0].RecordsOfSource(SourceKind::kContacts)) {
    ++total;
    if (fused_names.count(rec.name)) ++covered;
  }
  ASSERT_GT(total, 0u);
  EXPECT_EQ(covered, total);
}

}  // namespace
}  // namespace saga::ondevice
