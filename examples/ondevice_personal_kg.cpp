// On-device personal knowledge (§5, Figure 7): integrate contacts,
// message senders, and calendar invitees into unified Person entities
// with an interruptible pipeline; resolve "message Tim about the SIGMOD
// draft" by context; sync across a laptop/phone/watch fleet.
//
//   ./build/examples/ondevice_personal_kg

#include <cstdio>

#include "ondevice/device_data_generator.h"
#include "ondevice/incremental_pipeline.h"
#include "ondevice/matcher.h"
#include "ondevice/personal_kg.h"
#include "ondevice/sync.h"

int main() {
  using namespace saga;
  using namespace saga::ondevice;

  DeviceDataset data = GenerateDeviceData(/*num_persons=*/150);
  std::printf("Device sources: %zu raw records for %zu true persons\n",
              data.records.size(), data.num_persons);

  // Incremental, pausable construction: run in small CPU slices, as if
  // yielding to higher-priority device work, checkpointing in between.
  IncrementalPipeline pipeline(&data.records);
  size_t slices = 0;
  std::string checkpoint;
  while (!pipeline.done()) {
    pipeline.RunSteps(64);
    checkpoint = pipeline.Checkpoint();  // survives process death
    ++slices;
  }
  std::printf("Construction ran in %zu interruptible slices "
              "(peak state: %zu bytes, checkpoint: %zu bytes)\n",
              slices, pipeline.peak_state_bytes(), checkpoint.size());

  const auto quality = EvaluateClustering(pipeline.clusters(), data.truth);
  std::printf("Entity linking quality: precision=%.3f recall=%.3f f1=%.3f\n",
              quality.precision, quality.recall, quality.f1);

  PersonalKg personal(pipeline.FusedPersons());
  std::printf("Personal KG: %zu fused persons\n",
              personal.persons().size());

  // Contextual reference resolution: which Tim?
  const std::string utterance_context =
      "I've added comments to the SIGMOD draft";
  std::printf("\nutterance: \"message Tim that %s\"\n",
              utterance_context.c_str());
  const auto refs = personal.ResolveReference("Tim", utterance_context, 3);
  for (const auto& ref : refs) {
    std::printf("  candidate: %-24s  name=%.2f context=%.2f total=%.2f\n",
                personal.persons()[ref.person].display_name.c_str(),
                ref.name_score, ref.context_score, ref.score);
  }

  // ---- Cross-device sync with per-source preferences ----
  DeviceConfig laptop;
  laptop.id = "laptop";
  laptop.compute_power = 10;
  laptop.sync_enabled[0] = laptop.sync_enabled[1] = true;  // not calendar
  DeviceConfig phone;
  phone.id = "phone";
  phone.compute_power = 3;
  phone.sync_enabled[0] = phone.sync_enabled[1] = true;
  DeviceConfig watch;
  watch.id = "watch";
  watch.compute_power = 0.5;
  watch.sync_enabled[0] = watch.sync_enabled[1] = true;

  std::vector<Device> devices;
  devices.emplace_back(laptop);
  devices.emplace_back(phone);
  devices.emplace_back(watch);
  for (const SourceRecord& rec : data.records) {
    if (rec.source == SourceKind::kMessages) {
      devices[1].AddLocalRecord(rec);
    } else {
      devices[0].AddLocalRecord(rec);
    }
  }

  SyncService sync;
  const SyncStats stats = sync.SyncAll(&devices);
  std::printf("\nSync: %zu records shipped (%llu bytes) in %d rounds\n",
              stats.records_sent,
              static_cast<unsigned long long>(stats.bytes_sent),
              stats.rounds);
  std::printf("  contacts consistent: %s\n",
              SyncService::SourcesConsistent(devices, SourceKind::kContacts)
                  ? "yes"
                  : "no");
  std::printf("  calendar stays on laptop only: %s\n",
              devices[1].RecordsOfSource(SourceKind::kCalendar).empty() &&
                      devices[2].RecordsOfSource(SourceKind::kCalendar)
                          .empty()
                  ? "yes"
                  : "no");

  // Offload fusion to the laptop; the watch adopts the result.
  const OffloadStats off = OffloadFusion(&devices);
  std::printf(
      "Offload: %s computed fusion, shipped %zu persons (%llu bytes) "
      "to weaker devices\n",
      off.compute_device.c_str(), off.persons_shipped,
      static_cast<unsigned long long>(off.bytes_shipped));
  return 0;
}
