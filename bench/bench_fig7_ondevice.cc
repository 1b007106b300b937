// F7: on-device personal knowledge (Figure 7 / §5) — incremental
// pause/resume construction overhead, bounded-memory blocking across
// budgets, contextual reference resolution, cross-device sync, and the
// private-retrieval cost curve.

#include <cstdio>

#include "bench_util.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "kg/kg_generator.h"
#include "ondevice/blocking.h"
#include "ondevice/device_data_generator.h"
#include "ondevice/enrichment.h"
#include "ondevice/incremental_pipeline.h"
#include "ondevice/matcher.h"
#include "ondevice/personal_kg.h"
#include "ondevice/sync.h"

namespace saga {
namespace {

using bench::Fmt;
using bench::Section;
using bench::Table;
using namespace saga::ondevice;

// Each sliced run pauses after every slice: it checkpoints, then
// resumes a fresh pipeline restored from that checkpoint alone, as a
// new process would.
void BenchPauseResume(const DeviceDataset& data) {
  Section("F7a: pause/resume overhead of incremental construction");
  Table table({"slice size (steps)", "wall s", "slices", "steps run",
               "checkpoint bytes", "restore s", "F1",
               "overhead vs straight run"});
  double straight_s = 0.0;
  for (size_t slice : {0u, 4096u, 256u, 16u}) {
    Stopwatch sw;
    IncrementalPipeline pipeline(&data.records);
    size_t slices = 0;
    size_t checkpoint_bytes = 0;
    double restore_s = 0.0;
    if (slice == 0) {
      while (!pipeline.done()) pipeline.RunSteps(1 << 30);
      straight_s = sw.ElapsedSeconds();
      table.AddRow({"uninterrupted", Fmt(straight_s, 3), "1",
                    std::to_string(pipeline.steps_executed()), "-", "-",
                    Fmt(EvaluateClustering(pipeline.clusters(), data.truth).f1),
                    "1.00x"});
      continue;
    }
    while (!pipeline.done()) {
      pipeline.RunSteps(slice);
      const std::string checkpoint = pipeline.Checkpoint();
      checkpoint_bytes = checkpoint.size();
      Stopwatch restore_sw;
      auto resumed = IncrementalPipeline::Restore(&data.records, checkpoint);
      restore_s += restore_sw.ElapsedSeconds();
      if (!resumed.ok()) {
        std::printf("restore failed: %s\n",
                    resumed.status().ToString().c_str());
        return;
      }
      pipeline = std::move(*resumed);
      ++slices;
    }
    const double elapsed = sw.ElapsedSeconds();
    table.AddRow({std::to_string(slice), Fmt(elapsed, 3),
                  std::to_string(slices),
                  std::to_string(pipeline.steps_executed()),
                  std::to_string(checkpoint_bytes), Fmt(restore_s, 3),
                  Fmt(EvaluateClustering(pipeline.clusters(), data.truth).f1),
                  Fmt(elapsed / straight_s, 2) + "x"});
  }
  table.Print();
  std::printf("Expected shape: fine slices cost extra checkpoint and restore "
              "time but never lose work: every run takes the same steps and "
              "reaches the same F1.\n");
}

void BenchMemoryBudgets(const DeviceDataset& data) {
  Section("F7b: bounded-memory blocking (spill-to-disk) across budgets");
  Table table({"memory budget", "peak buffer", "runs spilled",
               "bytes spilled", "pairs", "F1"});
  for (size_t budget : {size_t{2} << 10, size_t{16} << 10, size_t{1} << 20,
                        size_t{64} << 20}) {
    auto dir = MakeTempDir("bench_blocking");
    Blocker::Options opts;
    opts.memory_budget_bytes = budget;
    opts.spill_dir = *dir;
    Blocker blocker(opts);
    auto pairs = blocker.CandidatePairs(data.records);
    if (!pairs.ok()) continue;
    EntityMatcher matcher;
    const auto matches = matcher.MatchPairs(data.records, *pairs);
    const auto clusters = ClusterMatches(data.records.size(), matches);
    const auto quality = EvaluateClustering(clusters, data.truth);
    table.AddRow({FormatBytes(budget),
                  FormatBytes(blocker.stats().peak_buffer_bytes),
                  std::to_string(blocker.stats().runs_spilled),
                  FormatBytes(blocker.stats().bytes_spilled),
                  std::to_string(pairs->size()), Fmt(quality.f1)});
    (void)RemoveDirRecursively(*dir);
  }
  table.Print();
  std::printf("Expected shape: identical pairs and F1 at every budget; "
              "small budgets just spill more.\n");
}

void BenchContextResolution(const DeviceDataset& data) {
  Section("F7c: contextual reference resolution (the two-Tims problem)");
  IncrementalPipeline pipeline(&data.records);
  while (!pipeline.done()) pipeline.RunSteps(1 << 20);
  PersonalKg personal(pipeline.FusedPersons());

  // For every person with topics, query their short first name with a
  // topic context; correct iff the top hit contains that person's full
  // name.
  size_t context_correct = 0;
  size_t name_only_correct = 0;
  size_t total = 0;
  for (uint32_t person = 0; person < data.num_persons; ++person) {
    if (data.person_topics[person].empty()) continue;
    const std::string& full_name = data.person_names[person];
    const std::string first = full_name.substr(0, full_name.find(' '));
    const std::string context =
        "quick question about the " + data.person_topics[person][0];

    auto check = [&](const std::string& ctx) {
      const auto refs = personal.ResolveReference(first, ctx, 1);
      if (refs.empty()) return false;
      const auto& names = personal.persons()[refs[0].person].names;
      return names.count(full_name) > 0;
    };
    if (check(context)) ++context_correct;
    if (check("")) ++name_only_correct;
    ++total;
  }
  Table table({"resolution", "top-1 accuracy"});
  table.AddRow({"name only",
                Fmt(static_cast<double>(name_only_correct) / total)});
  table.AddRow({"name + interaction context",
                Fmt(static_cast<double>(context_correct) / total)});
  table.Print();
  std::printf("(%zu reference queries; shared first names make name-only "
              "resolution ambiguous)\n", total);
}

void BenchSync(const DeviceDataset& data) {
  Section("F7d: per-source cross-device sync");
  DeviceConfig laptop;
  laptop.id = "laptop";
  laptop.compute_power = 10;
  laptop.sync_enabled[0] = laptop.sync_enabled[1] = true;
  DeviceConfig phone = laptop;
  phone.id = "phone";
  phone.compute_power = 3;
  DeviceConfig watch = laptop;
  watch.id = "watch";
  watch.compute_power = 0.5;

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
  Stopwatch sw;
  const SyncStats stats = sync.SyncAll(&devices);
  Table table({"metric", "value"});
  table.AddRow({"records shipped", std::to_string(stats.records_sent)});
  table.AddRow({"bytes shipped", FormatBytes(stats.bytes_sent)});
  table.AddRow({"rounds to convergence", std::to_string(stats.rounds)});
  table.AddRow({"wall s", Fmt(sw.ElapsedSeconds(), 3)});
  table.AddRow({"contacts consistent",
                SyncService::SourcesConsistent(devices, SourceKind::kContacts)
                    ? "yes"
                    : "NO"});
  table.AddRow(
      {"calendar isolated",
       devices[1].RecordsOfSource(SourceKind::kCalendar).empty() ? "yes"
                                                                 : "NO"});
  const OffloadStats off = OffloadFusion(&devices);
  table.AddRow({"offload compute device", off.compute_device});
  table.AddRow({"offload bytes shipped", FormatBytes(off.bytes_shipped)});
  table.Print();
}

void BenchPrivateRetrieval() {
  Section("F7e: global enrichment paths and the privacy cost curve");
  kg::KgGeneratorConfig config;
  config.num_persons = 1000;
  kg::GeneratedKg gen = kg::GenerateKg(config);

  const auto asset = StaticKnowledgeAsset::Build(gen.kg);
  Table table({"enrichment path", "cells scanned / query",
               "bytes / query", "privacy"});
  table.AddRow({"static asset (shipped once)", "0",
                std::to_string(asset.num_facts()) + " facts, " +
                    FormatBytes(asset.EstimatedBytes()) + " total",
                "perfect (no request)"});
  // "What's the score in the Blue Jays game?" — use a team entity.
  kg::EntityId team;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (gen.kg.catalog().HasType(rec.id, gen.schema.sports_team)) {
      team = rec.id;
      break;
    }
  }
  const auto piggy = PiggybackEnrich(gen.kg, team, 8);
  table.AddRow({"piggyback on server interaction", "1",
                FormatBytes(piggy.size() * 48),
                "reveals already-revealed entity"});
  PirServer server(&gen.kg);
  const auto direct = server.DirectFetch(team);
  table.AddRow({"direct fetch (baseline)",
                std::to_string(direct.cells_scanned),
                FormatBytes(direct.bytes_transferred), "none"});
  const auto pir = server.Fetch(team);
  table.AddRow({"PIR fetch", std::to_string(pir.cells_scanned),
                FormatBytes(pir.bytes_transferred), "provable"});
  table.Print();

  DpCounter counter(0.5, 10.0, 7);
  std::printf("DP counting (epsilon=0.5/query): true=120 noisy=");
  for (int i = 0; i < 5; ++i) {
    std::printf("%.1f ", counter.NoisyCount(120));
  }
  std::printf("(budget spent %.1f/10.0)\n", counter.epsilon_spent());
}

}  // namespace
}  // namespace saga

int main() {
  saga::bench::ObsSession obs_session;
  std::printf("F7: on-device personal knowledge (paper Figure 7 / §5)\n");
  const auto data = saga::ondevice::GenerateDeviceData(/*num_persons=*/400);
  std::printf("device dataset: %zu records across 3 sources for %zu "
              "persons\n",
              data.records.size(), data.num_persons);
  saga::BenchPauseResume(data);
  saga::BenchMemoryBudgets(data);
  saga::BenchContextResolution(data);
  saga::BenchSync(data);
  saga::BenchPrivateRetrieval();
  return 0;
}
