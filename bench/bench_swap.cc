// Validated hot-swap bench (DESIGN.md "Integrity & versioned
// deployment"). Demonstrates the serving-availability contract of the
// version manager: a full graph-version swap — side-by-side load,
// checksum + invariant + sampled-diff validation, RCU flip, probation
// — happens under continuous reader traffic with ZERO failed reads,
// and a bad candidate (catalog shrink or rotted artifact) is rejected
// while the live version keeps serving.
//
//   1. load+validate+swap timing — how long each deployment stage
//      takes for a version of N keys plus an embedding shard, which
//      LoadVersion loads and serves through an EmbeddingService.
//   2. swap under reader load    — closed-loop readers hammer
//      mgr.Current() across the flip; reads are counted per serving
//      version and none may fail.
//   3. bad candidates            — a catalog-shrink build and a
//      rotted-bytes build are both rejected mid-traffic.
//   4. probation rollback        — an error spike after the flip rolls
//      the graph back automatically, again with zero failed reads.
//   5. scrub                     — the scrubber re-verifies the live
//      version's tables, WAL and embedding shard.
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "integrity/scrubber.h"
#include "kg/kg_generator.h"
#include "serving/version_manager.h"
#include "storage/kv_store.h"

namespace saga::bench {
namespace {

constexpr int kKeys = 10'000;
constexpr int kReaderThreads = 4;

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%06d", i);
  return buf;
}

/// The embedding shard every version ships: DistMult embeddings of a
/// generated KG, as the training pipeline hands them to serving.
embedding::EmbeddingStore TrainShard() {
  kg::GeneratedKg gen = kg::GenerateKg(kg::KgGeneratorConfig());
  const auto view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  embedding::TrainingConfig tc;
  tc.epochs = 4;
  return embedding::EmbeddingStore::FromTrained(
      embedding::InMemoryTrainer(tc).Train(view), view);
}

/// Builds one version directory: kKeys rows tagged `tag`, flushed, and
/// `shard` saved as its embedding shard.
double BuildVersionDir(const std::string& dir, const std::string& tag,
                       const embedding::EmbeddingStore& shard) {
  Stopwatch sw;
  auto store = storage::KvStore::Open(dir);
  if (!store.ok()) {
    std::fprintf(stderr, "open %s: %s\n", dir.c_str(),
                 store.status().ToString().c_str());
    std::exit(1);
  }
  for (int i = 0; i < kKeys; ++i) {
    (void)(*store)->Put(Key(i), tag + std::to_string(i));
  }
  (void)(*store)->Flush();
  const Status saved =
      shard.Save(JoinPath(dir, embedding::EmbeddingStore::kShardFileName));
  if (!saved.ok()) {
    std::fprintf(stderr, "save shard in %s: %s\n", dir.c_str(),
                 saved.ToString().c_str());
    std::exit(1);
  }
  return sw.ElapsedMillis();
}

struct ReaderStats {
  uint64_t reads = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> by_version;
  Histogram latency_ms;
};

/// Closed-loop reader: pins Current() per request (the RCU contract),
/// reads one key, records which version answered.
void RunReader(serving::VersionManager* mgr, std::atomic<bool>* stop,
               uint32_t seed, ReaderStats* out) {
  Rng rng(seed);
  while (!stop->load(std::memory_order_relaxed)) {
    auto version = mgr->Current();
    if (version == nullptr) continue;
    Stopwatch sw;
    auto got = version->kv->Get(Key(static_cast<int>(rng.Uniform(kKeys))));
    out->latency_ms.Add(sw.ElapsedMillis());
    ++out->reads;
    if (got.ok()) {
      ++out->by_version[version->id];
    } else {
      ++out->failed;
    }
  }
}

}  // namespace
}  // namespace saga::bench

int main() {
  using namespace saga;
  using namespace saga::bench;
  ObsSession obs_session;
  SetMinLogLevel(LogLevel::kError);

  auto root = MakeTempDir("saga_bench_swap");
  if (!root.ok()) return 1;

  // ---- Phase 1: deployment stage timing ----------------------------
  Section("phase 1: deployment stages (10k-key store + embedding shard)");
  const embedding::EmbeddingStore shard = TrainShard();
  const double build_v1_ms =
      BuildVersionDir(JoinPath(*root, "v1"), "old", shard);
  const double build_v2_ms =
      BuildVersionDir(JoinPath(*root, "v2"), "new", shard);

  serving::VersionManager::Options opts;
  opts.validation.sample_queries = 64;
  serving::VersionManager mgr(opts);

  Stopwatch load_sw;
  auto v1 = serving::VersionManager::LoadVersion("v1", JoinPath(*root, "v1"));
  const double load_ms = load_sw.ElapsedMillis();
  Stopwatch activate_sw;
  if (!v1.ok() || !mgr.Activate(*v1).ok()) return 1;
  const double activate_ms = activate_sw.ElapsedMillis();

  Stopwatch load2_sw;
  auto v2 = serving::VersionManager::LoadVersion("v2", JoinPath(*root, "v2"));
  const double load2_ms = load2_sw.ElapsedMillis();
  if (!v2.ok()) return 1;
  if ((*v2)->service == nullptr) {
    std::fprintf(stderr, "v2 loaded its shard but built no service\n");
    return 1;
  }
  // The candidate's service answers before it takes traffic.
  const kg::EntityId probe{(*v2)->embeddings.rows()->labels()[0]};
  auto neighbors = (*v2)->service->TopKNeighbors(
      probe, 10, kg::TypeId::Invalid(), RequestContext());

  Table t1({"stage", "ms"});
  t1.AddRow({"build version dir (10k puts + flush + shard save)",
             Fmt(build_v1_ms, 1)});
  t1.AddRow({"build candidate dir", Fmt(build_v2_ms, 1)});
  t1.AddRow({"LoadVersion (recover + catalog count + shard + service)",
             Fmt(load_ms, 1)});
  t1.AddRow({"Activate (checksum pass, no baseline)", Fmt(activate_ms, 1)});
  t1.AddRow({"LoadVersion candidate (side-by-side)", Fmt(load2_ms, 1)});
  t1.Print();
  std::printf("shard: %zu rows x dim %d; candidate service top-10: %s\n",
              (*v2)->embeddings.size(), (*v2)->embeddings.dim(),
              neighbors.ok() ? std::to_string(neighbors->size()).c_str()
                             : neighbors.status().ToString().c_str());

  // ---- Phase 2: swap under reader load -----------------------------
  Section("phase 2: validated swap under 4 reader threads");
  std::atomic<bool> stop{false};
  std::vector<ReaderStats> stats(kReaderThreads);
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaderThreads; ++i) {
    readers.emplace_back(RunReader, &mgr, &stop, 1000 + i, &stats[i]);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Stopwatch swap_sw;
  Status swapped = mgr.SwapTo(*v2);
  const double swap_ms = swap_sw.ElapsedMillis();
  // Drive probation to commit with healthy outcomes.
  for (int i = 0; i < 100; ++i) mgr.RecordRequestOutcome(true);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& r : readers) r.join();

  ReaderStats total;
  for (const auto& s : stats) {
    total.reads += s.reads;
    total.failed += s.failed;
    total.latency_ms.Merge(s.latency_ms);
    for (const auto& [id, n] : s.by_version) total.by_version[id] += n;
  }
  Table t2({"metric", "value"});
  t2.AddRow({"SwapTo (validate 10k keys + flip)", Fmt(swap_ms, 1) + " ms"});
  t2.AddRow({"swap status", swapped.ok() ? "OK" : swapped.ToString()});
  t2.AddRow({"committed after probation",
             mgr.InProbation() ? "no (still probing)" : "yes"});
  t2.AddRow({"reads total", std::to_string(total.reads)});
  t2.AddRow({"reads served by v1", std::to_string(total.by_version["v1"])});
  t2.AddRow({"reads served by v2", std::to_string(total.by_version["v2"])});
  t2.AddRow({"failed reads across the flip", std::to_string(total.failed)});
  t2.AddRow({"read p50 / p99",
             Fmt(total.latency_ms.Percentile(50.0)) + " / " +
                 Fmt(total.latency_ms.Percentile(99.0)) + " ms"});
  t2.Print();
  std::printf("availability contract: failed reads must be 0 — %s\n",
              total.failed == 0 ? "HELD" : "VIOLATED");

  // ---- Phase 3: bad candidates rejected mid-traffic ----------------
  Section("phase 3: bad candidates (shrunk catalog, rotted bytes)");
  {
    // A broken build that kept only 5% of the catalog.
    auto store = storage::KvStore::Open(JoinPath(*root, "v_shrunk"));
    if (!store.ok()) return 1;
    for (int i = 0; i < kKeys / 20; ++i) {
      (void)(*store)->Put(Key(i), "tiny");
    }
    (void)(*store)->Flush();
  }
  (void)BuildVersionDir(JoinPath(*root, "v_rotted"), "rot", shard);
  // Pre-verify (and memoize) every live block so the armed corruption
  // fault below can only be consumed by the candidate's validation
  // pass, not by a concurrent reader on the live version.
  (void)mgr.Current()->kv->VerifyTables();

  std::atomic<bool> stop3{false};
  std::vector<ReaderStats> stats3(kReaderThreads);
  std::vector<std::thread> readers3;
  for (int i = 0; i < kReaderThreads; ++i) {
    readers3.emplace_back(RunReader, &mgr, &stop3, 3000 + i, &stats3[i]);
  }

  Table t3({"candidate", "verdict", "live version after"});
  {
    auto shrunk = serving::VersionManager::LoadVersion(
        "v_shrunk", JoinPath(*root, "v_shrunk"));
    Status s = shrunk.ok() ? mgr.SwapTo(*shrunk) : shrunk.status();
    t3.AddRow({"95% catalog drop", s.ok() ? "ACCEPTED (bug!)" : s.ToString(),
               mgr.current_id()});
  }
  {
    auto rotted = serving::VersionManager::LoadVersion(
        "v_rotted", JoinPath(*root, "v_rotted"));
    // Rot the candidate's in-memory bytes between load and deploy; the
    // validation checksum pass must catch it.
    ScopedFault rot("sstable.read_block", FaultSpec{FaultKind::kCorrupt});
    Status s = rotted.ok() ? mgr.SwapTo(*rotted) : rotted.status();
    t3.AddRow({"rotted block", s.ok() ? "ACCEPTED (bug!)" : s.ToString(),
               mgr.current_id()});
  }
  stop3.store(true);
  for (auto& r : readers3) r.join();
  uint64_t failed3 = 0, reads3 = 0;
  for (const auto& s : stats3) {
    failed3 += s.failed;
    reads3 += s.reads;
  }
  t3.Print();
  std::printf("reads during rejected deploys: %llu, failed: %llu\n",
              static_cast<unsigned long long>(reads3),
              static_cast<unsigned long long>(failed3));

  // ---- Phase 4: probation rollback ---------------------------------
  Section("phase 4: probation error spike -> automatic rollback");
  (void)BuildVersionDir(JoinPath(*root, "v3"), "next", shard);
  auto v3 = serving::VersionManager::LoadVersion("v3", JoinPath(*root, "v3"));
  if (!v3.ok() || !mgr.SwapTo(*v3).ok()) return 1;
  // 60% of the first probation outcomes fail (threshold: 50%).
  Stopwatch rb_sw;
  for (int i = 0; i < 10; ++i) mgr.RecordRequestOutcome(i % 5 >= 3);
  const double rollback_ms = rb_sw.ElapsedMillis();
  Table t4({"metric", "value"});
  t4.AddRow({"live version after spike", mgr.current_id()});
  t4.AddRow({"rollback latency (10 outcomes)", Fmt(rollback_ms, 3) + " ms"});
  // The one VersionManager in this process owns the version.swap.*
  // counters.
  t4.AddRow({"swaps attempted / committed / rejected / rolled back",
             std::to_string(SAGA_COUNTER("version.swap.attempts").Value()) +
                 " / " +
                 std::to_string(SAGA_COUNTER("version.swap.committed").Value()) +
                 " / " +
                 std::to_string(SAGA_COUNTER("version.swap.rejected").Value()) +
                 " / " +
                 std::to_string(
                     SAGA_COUNTER("version.swap.rollbacks").Value())});
  t4.Print();

  // ---- Phase 5: scrub the live version -----------------------------
  Section("phase 5: scrub the live version (tables, WAL, shard)");
  integrity::Scrubber scrubber(mgr.Current()->dir,
                               integrity::Scrubber::Options());
  Stopwatch scrub_sw;
  const Status scrubbed = scrubber.RunOnce();
  const double scrub_ms = scrub_sw.ElapsedMillis();
  const auto ss = scrubber.stats();
  Table t5({"metric", "value"});
  t5.AddRow({"scrub status", scrubbed.ok() ? "OK" : scrubbed.ToString()});
  t5.AddRow({"files / bytes verified", std::to_string(ss.files_scanned) +
                                           " / " +
                                           std::to_string(ss.bytes_scanned)});
  t5.AddRow({"embedding shard verified",
             ss.last_verified_unix_ms.count(
                 embedding::EmbeddingStore::kShardFileName)
                 ? "yes"
                 : "no"});
  t5.AddRow({"corrupt found", std::to_string(ss.corrupt_found)});
  t5.AddRow({"scrub pass", Fmt(scrub_ms, 1) + " ms"});
  t5.Print();

  (void)RemoveDirRecursively(*root);
  return 0;
}
