// saga_cli — command-line front end for KG snapshots.
//
//   saga_cli generate <out.kg> [num_persons]   build a synthetic KG
//   saga_cli stats <kg> [--obs] [--json]        size + coverage report
//                                               (+ observability dump)
//   saga_cli entity <kg> <name>                 entity record + facts
//   saga_cli ask <kg> <query...>                question answering
//   saga_cli annotate <kg> <text...>            semantic annotation
//   saga_cli related <kg> <name> [k]            related entities (PPR)
//   saga_cli snapshot create <store> <name>     point-in-time snapshot
//   saga_cli snapshot list <store>              list snapshots
//   saga_cli snapshot verify <store> <name>     prove a snapshot intact
//   saga_cli snapshot restore <store> <name>    restore into the store
//   saga_cli scrub <store>                      one integrity pass
//                                               (repairs from snapshots)
//   saga_cli replicate [n] [writes]             3-replica failover demo
//            [--kill-leader] [--seed N]         (WAL shipping + election)
//   saga_cli trace dump [writes] [--seed N]     traced quorum writes ->
//            [--out FILE]                       Chrome trace JSON
//   saga_cli faults list                        dump every registered
//                                               fault point (+ armed)
//   saga_cli resource <store> [--budget N]      disk-budget inspection /
//            [--floor N] [--demo]               override; --demo runs a
//                                               fill->degrade->reclaim
//                                               cycle against the store

#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>

#include "annotation/annotator.h"
#include "annotation/query_answering.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/health_section.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "embedding/embedding_store.h"
#include "graph_engine/view.h"
#include "integrity/scrubber.h"
#include "integrity/snapshot.h"
#include "kg/kg_generator.h"
#include "kg/knowledge_graph.h"
#include "odke/profiler.h"
#include "replication/replica_group.h"
#include "resource/disk_space_governor.h"
#include "storage/kv_store.h"
#include "serving/embedding_service.h"
#include "serving/related_entities.h"

namespace saga {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  saga_cli generate <out.kg> [num_persons]\n"
               "  saga_cli stats <kg> [--obs] [--json]\n"
               "  saga_cli entity <kg> <name>\n"
               "  saga_cli ask <kg> <query...>\n"
               "  saga_cli annotate <kg> <text...>\n"
               "  saga_cli related <kg> <name> [k]\n"
               "  saga_cli snapshot create|list|verify|restore <store> "
               "[name]\n"
               "  saga_cli scrub <store>\n"
               "  saga_cli replicate [n] [writes] [--kill-leader] "
               "[--seed N]\n"
               "  saga_cli trace dump [writes] [--seed N] [--out FILE]\n"
               "  saga_cli faults list\n"
               "  saga_cli resource <store> [--budget N] [--floor N] "
               "[--demo]\n");
  return 2;
}

std::string JoinArgs(int argc, char** argv, int from) {
  std::string out;
  for (int i = from; i < argc; ++i) {
    if (!out.empty()) out.push_back(' ');
    out += argv[i];
  }
  return out;
}

Result<kg::KnowledgeGraph> LoadKg(const char* path) {
  return kg::KnowledgeGraph::Load(path);
}

std::string ValueToDisplay(const kg::KnowledgeGraph& kg,
                           const kg::Value& v) {
  return v.is_entity() ? kg.catalog().name(v.entity()) : v.ToString();
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 3) return Usage();
  kg::KgGeneratorConfig config;
  if (argc >= 4) config.num_persons = std::atoi(argv[3]);
  kg::GeneratedKg gen = kg::GenerateKg(config);
  const Status s = gen.kg.Save(argv[2]);
  if (!s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu entities, %zu triples, %zu predicates\n",
              argv[2], gen.kg.num_entities(), gen.kg.num_triples(),
              gen.kg.ontology().num_predicates());
  return 0;
}

/// Replication surface: role/epoch/commit gauges, per-replica health
/// and lag, failovers, transport delivery counters. Live in a process
/// hosting a ReplicaGroup (`saga_cli replicate` for a demo).
obs::HealthSection BuildReplicationSection() {
  obs::HealthSection section("replication");
  const auto gauges = obs::Registry::Global().GaugesWithPrefix("replication.");
  if (gauges.empty()) {
    section.Note("no replica group active in this process");
    return section;
  }
  double leader = -1, epoch = 0, last_failover = 0;
  for (const auto& [name, value] : gauges) {
    if (name == "replication.group.leader_index") leader = value;
    if (name == "replication.group.epoch") epoch = value;
    if (name == "replication.group.last_failover_unix_ms") {
      last_failover = value;
      continue;
    }
    if (name.compare(0, std::strlen("replication.health."),
                     "replication.health.") == 0) {
      section.Row(name, value > 0 ? "healthy" : "suspect/down");
      continue;
    }
    section.Row(name, value, 0);
  }
  section.RowUnixMs("replication.group.last_failover_unix_ms",
                    static_cast<int64_t>(last_failover));
  if (leader >= 0) {
    section.Note("leader is replica " + std::to_string(static_cast<int>(
                     leader)) + " at epoch " +
                 std::to_string(static_cast<int>(epoch)));
  } else {
    section.Note("leaderless (election pending)");
  }
  for (const auto& [name, value] :
       obs::Registry::Global().CountersWithPrefix("replication.")) {
    section.Row(name, value);
  }
  return section;
}

/// `saga_cli faults list` — the registered fault-point catalog (name,
/// shape, what arming it simulates), plus whatever is armed right now
/// in this process. The catalog is the contract chaos tests and the
/// nightly jobs program against.
int CmdFaults(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[2], "list") != 0) return Usage();
  std::printf("%-22s %-10s %s\n", "fault point", "shape", "simulates");
  for (const FaultPointInfo& p : KnownFaultPoints()) {
    std::printf("%-22s %-10s %s\n", p.name, p.shape, p.description);
  }
  const auto armed = Faults().ArmedPoints();
  if (armed.empty()) {
    std::printf("\narmed now: none\n");
  } else {
    std::printf("\narmed now:\n");
    for (const std::string& p : armed) std::printf("  %s\n", p.c_str());
  }
  return 0;
}

/// `saga_cli resource <store> [--budget N] [--floor N] [--demo]` —
/// disk-space budget inspection and override. Without --demo, builds a
/// governor over the store directory (real statvfs free space, or the
/// simulated --budget) and prints its health section: free bytes,
/// emergency floor, the degraded-exit threshold. With --demo, opens
/// the store under a tight simulated budget and drives the full
/// exhaustion cycle: write until the governor trips read-only degraded
/// mode, show reads still serving, run reclaim, then raise the budget
/// (the override) and show writes succeeding again.
int CmdResource(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string dir = argv[2];
  uint64_t budget = 0;
  uint64_t floor = 0;
  bool demo = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--floor") == 0 && i + 1 < argc) {
      floor = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    }
  }
  if (demo && budget == 0) budget = 1 << 20;  // 1 MiB: trips quickly
  resource::DiskSpaceGovernor::Options gopts;
  gopts.budget_bytes = budget;
  gopts.emergency_floor_bytes = floor > 0 ? floor : (demo ? 64 << 10 : 4 << 20);
  resource::DiskSpaceGovernor governor(dir, gopts);

  if (!demo) {
    std::printf("%s", governor.BuildHealthSection().Text().c_str());
    return 0;
  }

  storage::KvStore::Options kopts;
  kopts.memtable_max_bytes = 32 << 10;
  kopts.auto_compact_trigger = 4;
  kopts.governor = &governor;
  auto store = storage::KvStore::Open(dir, kopts);
  if (!store.ok()) {
    std::fprintf(stderr, "%s\n", store.status().ToString().c_str());
    return 1;
  }
  // What opening the store healed, if it was left behind by a crash.
  const auto& rec = (*store)->recovery_stats();
  std::printf("opened %s: %llu tables loaded, %llu quarantined, "
              "%llu WAL records replayed, %llu WAL bytes dropped\n",
              dir.c_str(), static_cast<unsigned long long>(rec.sstables_loaded),
              static_cast<unsigned long long>(rec.sstables_quarantined +
                                              rec.orphans_quarantined),
              static_cast<unsigned long long>(rec.wal_records_replayed),
              static_cast<unsigned long long>(rec.wal_bytes_dropped));
  governor.RegisterReclaimTask(
      "kv.drop_obsolete", [&] { return (*store)->DropObsoleteFiles(); });

  // Fill until the budget trips (or give up — budget too generous).
  int acked = 0;
  const std::string value(128, 'v');
  while (!governor.degraded() && acked < 1000000) {
    if ((*store)->Put("fact/" + std::to_string(acked), value).ok()) ++acked;
  }
  std::printf("acked writes before exhaustion: %d (budget %llu bytes)\n",
              acked, static_cast<unsigned long long>(budget));
  if (!governor.degraded()) {
    std::fprintf(stderr, "governor never tripped; raise --budget?\n");
    return 1;
  }

  // Reads keep serving while the store is read-only degraded.
  const auto got = (*store)->Get("fact/0");
  std::printf("degraded: writes rejected, read of fact/0 %s\n",
              got.ok() ? "still serves" : "FAILED");

  const uint64_t freed = governor.RunReclaim();
  std::printf("reclaim freed %llu bytes; %s\n",
              static_cast<unsigned long long>(freed),
              governor.degraded() ? "still degraded" : "writable again");
  if (governor.degraded()) {
    // The override lever: double the budget and let the governor
    // re-evaluate — the store exits degraded mode without a restart.
    governor.SetBudgetBytes(budget * 2);
    std::printf("budget override -> %llu bytes; %s\n",
                static_cast<unsigned long long>(budget * 2),
                governor.degraded() ? "still degraded" : "writable again");
  }
  const bool writable = (*store)->Put("fact/recovered", value).ok();
  std::printf("post-recovery write: %s\n", writable ? "ok" : "REJECTED");

  std::printf("\n%s", governor.BuildHealthSection().Text().c_str());
  return !got.ok() || !writable ? 1 : 0;
}

/// `saga_cli replicate [n] [writes] [--kill-leader] [--seed N]` — the
/// replicated-serving demo: spin up an n-replica group over the
/// simulated transport, push quorum-acked writes through it,
/// optionally kill the leader halfway (--kill-leader) to watch the
/// detector + election promote a caught-up follower, then read every
/// write back through the bounded-staleness router and print the
/// replication health section.
int CmdReplicate(int argc, char** argv) {
  int n = 3;
  int writes = 32;
  bool kill_leader = false;
  uint64_t seed = 0x5A6A;
  int positional = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--kill-leader") == 0) {
      kill_leader = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (positional == 0) {
      n = std::atoi(argv[i]);
      ++positional;
    } else if (positional == 1) {
      writes = std::atoi(argv[i]);
      ++positional;
    }
  }
  if (n < 1 || writes < 1) return Usage();

  replication::ReplicaGroup::Options opts;
  opts.num_replicas = n;
  opts.seed = seed;
  auto group = replication::ReplicaGroup::Create(opts);
  if (!group.ok()) {
    std::fprintf(stderr, "%s\n", group.status().ToString().c_str());
    return 1;
  }
  std::printf("replica group: %d replicas, seed %llu\n", n,
              static_cast<unsigned long long>(seed));

  int acked = 0;
  for (int i = 0; i < writes; ++i) {
    if (kill_leader && i == writes / 2) {
      const int lid = (*group)->LeaderId();
      if (lid >= 0) {
        std::printf("killing leader (replica %d) at write %d...\n", lid, i);
        (*group)->Crash(lid);
      }
    }
    const std::string key = "fact/" + std::to_string(i);
    const std::string value = "value-" + std::to_string(i);
    if ((*group)->Put(key, value).ok()) ++acked;
  }
  std::printf("acked writes: %d/%d   leader: replica %d   epoch: %llu   "
              "failovers: %llu\n",
              acked, writes, (*group)->LeaderId(),
              static_cast<unsigned long long>((*group)->epoch()),
              static_cast<unsigned long long>((*group)->failovers()));

  // Drain follower lag, then read everything back through the router.
  (*group)->StepUntil(
      [&] {
        for (int i = 0; i < (*group)->num_replicas(); ++i) {
          if ((*group)->replica(i).alive() && (*group)->LagOf(i) != 0) {
            return false;
          }
        }
        return true;
      },
      5000);
  int readable = 0;
  for (int i = 0; i < writes; ++i) {
    auto v = (*group)->Get("fact/" + std::to_string(i));
    if (v.ok() && *v == "value-" + std::to_string(i)) ++readable;
  }
  std::printf("readable after %s: %d/%d acked\n",
              kill_leader ? "failover" : "replication", readable, acked);
  const auto& rstats = (*group)->router().stats();
  std::printf("read routing: %llu follower / %llu leader / %llu stale "
              "skips\n",
              static_cast<unsigned long long>(rstats.follower_reads),
              static_cast<unsigned long long>(rstats.leader_reads),
              static_cast<unsigned long long>(rstats.stale_skips));
  std::printf("\n%s", BuildReplicationSection().Text().c_str());
  return readable == acked ? 0 : 1;
}

/// `saga_cli trace dump [writes] [--seed N] [--out FILE]` — run a
/// handful of traced quorum writes against a seeded 3-replica group,
/// then dump every collected trace (client write span, leader append,
/// shipped appends and follower acks stitched by trace id across the
/// simulated transport) as Chrome trace_event JSON — stdout by
/// default, or --out FILE for loading into chrome://tracing / Perfetto.
int CmdTrace(int argc, char** argv) {
  if (argc < 3 || std::strcmp(argv[2], "dump") != 0) return Usage();
  int writes = 8;
  uint64_t seed = 0x7ACE;
  std::string out_path;
  int positional = 0;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (positional == 0) {
      writes = std::atoi(argv[i]);
      ++positional;
    }
  }
  if (writes < 1) return Usage();

  obs::SetTracingEnabled(true);
  obs::ClearTraces();

  replication::ReplicaGroup::Options opts;
  opts.num_replicas = 3;
  opts.seed = seed;
  auto group = replication::ReplicaGroup::Create(opts);
  if (!group.ok()) {
    std::fprintf(stderr, "%s\n", group.status().ToString().c_str());
    return 1;
  }
  int acked = 0;
  for (int i = 0; i < writes; ++i) {
    const std::string key = "fact/" + std::to_string(i);
    if ((*group)->Put(key, "value-" + std::to_string(i)).ok()) ++acked;
  }

  const std::string json = obs::DumpChromeTraceJson();
  // A trace is the fragments sharing one id; its root fragment is the
  // one with no parent span.
  size_t traces = 0, fragments = 0;
  obs::VisitCollectedTraces([&](const obs::SpanNode& fragment) {
    ++fragments;
    if (fragment.parent_span_id == 0) ++traces;
  });

  // The summary goes to stderr so stdout stays valid JSON.
  std::fprintf(stderr,
               "traced %d/%d quorum-acked writes (seed %llu): %zu traces "
               "in %zu fragments\n",
               acked, writes, static_cast<unsigned long long>(seed), traces,
               fragments);
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    const Status s = WriteStringToFile(out_path, json);
    if (!s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s (%zu bytes) — load in chrome://tracing\n",
                 out_path.c_str(), json.size());
  }
  return acked == writes ? 0 : 1;
}

int CmdSnapshot(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string sub = argv[2];
  integrity::SnapshotManager snapshots(argv[3]);
  if (sub == "list") {
    auto names = snapshots.List();
    if (!names.ok()) {
      std::fprintf(stderr, "%s\n", names.status().ToString().c_str());
      return 1;
    }
    for (const auto& name : *names) {
      auto info = snapshots.Info(name);
      if (info.ok()) {
        std::printf("%-32s %zu files, %llu bytes\n", name.c_str(),
                    info->num_files,
                    static_cast<unsigned long long>(info->total_bytes));
      } else {
        std::printf("%-32s (unreadable: %s)\n", name.c_str(),
                    info.status().ToString().c_str());
      }
    }
    return 0;
  }
  if (argc < 5) return Usage();
  const std::string name = argv[4];
  if (sub == "create") {
    auto info = snapshots.Create(name);
    if (!info.ok()) {
      std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
      return 1;
    }
    std::printf("snapshot %s: %zu files, %llu bytes\n", name.c_str(),
                info->num_files,
                static_cast<unsigned long long>(info->total_bytes));
    return 0;
  }
  if (sub == "verify") {
    const Status s = snapshots.Verify(name);
    if (!s.ok()) {
      std::fprintf(stderr, "snapshot %s FAILED verification: %s\n",
                   name.c_str(), s.ToString().c_str());
      return 1;
    }
    std::printf("snapshot %s verified clean\n", name.c_str());
    return 0;
  }
  if (sub == "restore") {
    const Status s = snapshots.Restore(name);
    if (!s.ok()) {
      std::fprintf(stderr, "restore failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("restored snapshot %s into %s\n", name.c_str(), argv[3]);
    return 0;
  }
  return Usage();
}

int CmdScrub(int argc, char** argv) {
  if (argc < 3) return Usage();
  integrity::SnapshotManager snapshots(argv[2]);
  integrity::Scrubber::Options opts;
  opts.snapshots = &snapshots;
  integrity::Scrubber scrubber(argv[2], opts);
  const Status s = scrubber.RunOnce();
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const auto stats = scrubber.stats();
  std::printf("scrubbed %llu files (%llu bytes): %llu corrupt, "
              "%llu repaired, %llu quarantined\n",
              static_cast<unsigned long long>(stats.files_scanned),
              static_cast<unsigned long long>(stats.bytes_scanned),
              static_cast<unsigned long long>(stats.corrupt_found),
              static_cast<unsigned long long>(stats.repaired),
              static_cast<unsigned long long>(stats.quarantined));
  for (const auto& [file, unix_ms] : stats.last_verified_unix_ms) {
    const auto secs = static_cast<time_t>(unix_ms / 1000);
    char buf[64];
    std::strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S",
                  std::localtime(&secs));
    std::printf("  verified %-28s %s\n", file.c_str(), buf);
  }
  return stats.corrupt_found > stats.repaired ? 1 : 0;
}

/// `saga_cli stats <kg> [--obs] [--json]` — KG size/coverage report.
/// --obs additionally traces the run and prints the platform-wide
/// observability surface (span breakdown + Prometheus metrics); --json
/// prints the metric dump as JSON instead.
int CmdStats(int argc, char** argv) {
  if (argc < 3) return Usage();
  bool show_obs = false;
  bool json = false;
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) show_obs = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }
  if (json) show_obs = true;
  obs::SetTracingEnabled(show_obs);

  Result<kg::KnowledgeGraph> kg = [&] {
    obs::ScopedSpan span("cli.stats.load_kg");
    return LoadKg(argv[2]);
  }();
  if (!kg.ok()) {
    std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
    return 1;
  }
  // With --json, stdout must stay a single parseable JSON document, so
  // the human-readable report moves to stderr.
  FILE* text_out = json ? stderr : stdout;
  std::fprintf(text_out, "entities:   %zu\n", kg->num_entities());
  std::fprintf(text_out, "triples:    %zu\n", kg->num_triples());
  std::fprintf(text_out, "types:      %zu\n", kg->ontology().num_types());
  std::fprintf(text_out, "predicates: %zu\n",
               kg->ontology().num_predicates());
  std::fprintf(text_out, "sources:    %zu\n", kg->num_sources());
  std::fprintf(text_out,
               "\nper-predicate coverage of functional predicates:\n");
  {
    obs::ScopedSpan span("cli.stats.coverage");
    odke::KgProfiler profiler(&*kg);
    for (const auto& meta : kg->ontology().predicates()) {
      if (!meta.functional || !meta.domain.valid()) continue;
      std::fprintf(text_out, "  %-22s %.1f%% of %s\n", meta.name.c_str(),
                   100.0 * profiler.Coverage(meta.domain, meta.id),
                   kg->ontology().type_name(meta.domain).c_str());
    }
  }
  if (show_obs) {
    if (json) {
      std::printf("\n%s\n", obs::DumpAll(obs::DumpFormat::kJson).c_str());
    } else {
      std::printf("\n--- observability: span breakdown ---\n%s",
                  obs::SpanReport().c_str());
      std::printf("\n--- observability: metrics ---\n%s",
                  obs::DumpAll(obs::DumpFormat::kPrometheus).c_str());
    }
  }
  return 0;
}

int CmdEntity(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto kg = LoadKg(argv[2]);
  if (!kg.ok()) {
    std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
    return 1;
  }
  const std::string name = JoinArgs(argc, argv, 3);
  const auto& candidates = kg->catalog().LookupAlias(name);
  if (candidates.empty()) {
    std::printf("no entity with alias \"%s\"\n", name.c_str());
    return 1;
  }
  for (kg::EntityId id : candidates) {
    const auto& rec = kg->catalog().record(id);
    std::printf("E%llu  %s  (popularity %.3f)\n",
                static_cast<unsigned long long>(id.value()),
                rec.canonical_name.c_str(), rec.popularity);
    std::printf("  types:");
    for (kg::TypeId t : rec.types) {
      std::printf(" %s", kg->ontology().type_name(t).c_str());
    }
    std::printf("\n  facts:\n");
    size_t shown = 0;
    for (kg::TripleIdx idx : kg->triples().BySubject(id)) {
      const auto& t = kg->triples().triple(idx);
      std::printf("    %-22s %s\n",
                  kg->ontology().predicate_name(t.predicate).c_str(),
                  ValueToDisplay(*kg, t.object).c_str());
      if (++shown >= 12) {
        std::printf("    ...\n");
        break;
      }
    }
  }
  return 0;
}

int CmdAsk(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto kg = LoadKg(argv[2]);
  if (!kg.ok()) {
    std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
    return 1;
  }
  annotation::QueryAnswerer answerer(&*kg, nullptr);
  auto result = answerer.Ask(JoinArgs(argc, argv, 3), RequestContext());
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const auto& answer = *result;
  std::printf("%s\n", answer.explanation.c_str());
  if (!answer.answered) {
    std::printf("(no answer)\n");
    return 1;
  }
  for (size_t i = 0; i < answer.facts.size() && i < 10; ++i) {
    std::printf("%zu. %s\n", i + 1,
                ValueToDisplay(*kg, answer.facts[i].object).c_str());
  }
  return 0;
}

int CmdAnnotate(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto kg = LoadKg(argv[2]);
  if (!kg.ok()) {
    std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
    return 1;
  }
  annotation::Annotator annotator(&*kg, nullptr);
  const std::string text = JoinArgs(argc, argv, 3);
  for (const auto& a : annotator.Annotate(text)) {
    std::printf("[%zu,%zu) \"%s\" -> %s (%s, score %.2f)\n",
                a.mention.begin, a.mention.end, a.mention.surface.c_str(),
                kg->catalog().name(a.entity).c_str(),
                a.type.valid() ? kg->ontology().type_name(a.type).c_str()
                               : "?",
                a.score);
  }
  return 0;
}

int CmdRelated(int argc, char** argv) {
  if (argc < 4) return Usage();
  auto kg = LoadKg(argv[2]);
  if (!kg.ok()) {
    std::fprintf(stderr, "%s\n", kg.status().ToString().c_str());
    return 1;
  }
  size_t k = 8;
  int name_end = argc;
  if (argc >= 5 && std::atoi(argv[argc - 1]) > 0) {
    k = static_cast<size_t>(std::atoi(argv[argc - 1]));
    name_end = argc - 1;
  }
  const std::string name = JoinArgs(name_end, argv, 3);
  auto entity = kg->catalog().FindByName(name);
  if (!entity.ok()) {
    std::fprintf(stderr, "unknown entity \"%s\"\n", name.c_str());
    return 1;
  }
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(*kg, def);
  // PPR engine needs no trained embeddings — instant on a snapshot.
  serving::EmbeddingService empty_service(embedding::EmbeddingStore(),
                                          &*kg);
  serving::RelatedEntitiesService::Options opts;
  opts.mode = serving::RelatedEntitiesService::Mode::kPpr;
  serving::RelatedEntitiesService related(&*kg, &view, &empty_service,
                                          opts);
  auto hits =
      related.Related(*entity, k, kg::TypeId::Invalid(), RequestContext());
  if (!hits.ok()) {
    std::fprintf(stderr, "%s\n", hits.status().ToString().c_str());
    return 1;
  }
  for (const auto& [e, score] : *hits) {
    std::printf("%-30s %.4f\n", kg->catalog().name(e).c_str(), score);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(argc, argv);
  if (cmd == "stats") return CmdStats(argc, argv);
  if (cmd == "entity") return CmdEntity(argc, argv);
  if (cmd == "ask") return CmdAsk(argc, argv);
  if (cmd == "annotate") return CmdAnnotate(argc, argv);
  if (cmd == "related") return CmdRelated(argc, argv);
  if (cmd == "snapshot") return CmdSnapshot(argc, argv);
  if (cmd == "scrub") return CmdScrub(argc, argv);
  if (cmd == "replicate") return CmdReplicate(argc, argv);
  if (cmd == "trace") return CmdTrace(argc, argv);
  if (cmd == "faults") return CmdFaults(argc, argv);
  if (cmd == "resource") return CmdResource(argc, argv);
  return Usage();
}

}  // namespace
}  // namespace saga

int main(int argc, char** argv) { return saga::Main(argc, argv); }
