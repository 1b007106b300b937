// Chaos harness for the storage and serving tiers: run a randomized
// Put/Delete workload with a durable (sync-every-write) KvStore, inject
// a fault at a random point, treat the first failed operation as a
// crash, reopen, and assert that (a) Open never surfaces a corruption
// status and (b) every acknowledged write is readable with its latest
// acknowledged value. Also exercises the serving tier's degraded mode:
// with index-build faults injected, EmbeddingService must fall back to
// exact search and still return correct results.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/rng.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "integrity/scrubber.h"
#include "integrity/snapshot.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "storage/kv_store.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace saga::storage {
namespace {

struct FaultChoice {
  const char* point;
  FaultKind kind;
};

/// Every injectable crash point the storage stack exposes; the chaos
/// loop cycles through all of them.
constexpr FaultChoice kFaultMenu[] = {
    {"wal.append", FaultKind::kTornWrite},  // torn WAL tail
    {"wal.append", FaultKind::kFail},
    {"wal.sync", FaultKind::kFail},         // failed fsync
    {"file.write", FaultKind::kTornWrite},  // torn SSTable/manifest tmp
    {"file.write", FaultKind::kFail},
    {"file.rename", FaultKind::kFail},      // failed commit rename
    {"sst.build", FaultKind::kTornWrite},   // torn table build
    {"sst.build", FaultKind::kBitFlip},     // silent table corruption
    {"file.remove", FaultKind::kFail},      // failed stale-table removal
};

/// Base seed for the randomized chaos loops. Every iteration derives
/// its Rng seed from this, so one number replays a whole failing run:
/// any assertion failure prints `SAGA_CHAOS_SEED=<n>` (via
/// SCOPED_TRACE), and exporting that variable reproduces it exactly.
uint64_t ChaosBaseSeed(uint64_t default_seed) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMinLogLevel(LogLevel::kError); }
  void TearDown() override {
    Faults().DisarmAll();
    SetMinLogLevel(LogLevel::kInfo);
  }
};

TEST_F(ChaosTest, CrashReplayLoopLosesNoSyncedWrite) {
  constexpr int kIterations = 220;
  constexpr int kKeySpace = 40;
  const uint64_t base_seed = ChaosBaseSeed(13);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  int crashes = 0;
  int64_t total_quarantined = 0;
  int64_t total_wal_dropped = 0;
  obs::Counter& quarantined = SAGA_COUNTER("storage.kv.sst_quarantined");
  obs::Counter& wal_dropped = SAGA_COUNTER("storage.kv.wal_bytes_dropped");
  const int64_t quarantined_before = quarantined.Value();
  const int64_t wal_dropped_before = wal_dropped.Value();

  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Rng rng(10007 * static_cast<uint64_t>(iter) + base_seed);
    Faults().Seed(rng.NextUint64());
    auto dir = MakeTempDir("saga_chaos");
    ASSERT_TRUE(dir.ok());
    KvStore::Options opts;
    opts.memtable_max_bytes = 1024 + rng.Uniform(2048);
    opts.sync_every_write = true;  // an OK op is a durable op
    opts.auto_compact_trigger = rng.Bernoulli(0.4) ? 2 : 0;
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff_ms = 0.0;
    opts.retry.max_backoff_ms = 0.0;

    // State after every acknowledged op; the single failing op (if
    // any) is indeterminate — it may or may not have reached disk.
    std::map<std::string, std::string> model;
    std::optional<std::string> indeterminate_key;

    {
      auto store = KvStore::Open(*dir, opts);
      ASSERT_TRUE(store.ok()) << store.status();
      const int n_ops = 20 + static_cast<int>(rng.Uniform(25));
      const int fault_at = static_cast<int>(rng.Uniform(n_ops));
      for (int op = 0; op < n_ops; ++op) {
        if (op == fault_at) {
          const FaultChoice& choice =
              kFaultMenu[rng.Uniform(std::size(kFaultMenu))];
          FaultSpec spec;
          spec.kind = choice.kind;
          spec.fail_nth = 1 + static_cast<int>(rng.Uniform(3));
          spec.keep_fraction = rng.NextDouble();
          spec.repeat = rng.Bernoulli(0.5);
          Faults().Arm(choice.point, spec);
        }
        const std::string key = "k" + std::to_string(rng.Uniform(kKeySpace));
        const uint64_t action = rng.Uniform(12);
        Status s;
        if (action < 8) {
          const std::string value =
              "v" + std::to_string(iter) + "_" + std::to_string(op);
          s = (*store)->Put(key, value);
          if (s.ok()) {
            model[key] = value;
          } else {
            indeterminate_key = key;
          }
        } else if (action < 10) {
          s = (*store)->Delete(key);
          if (s.ok()) {
            model.erase(key);
          } else {
            indeterminate_key = key;
          }
        } else if (action == 10) {
          s = (*store)->Flush();
        } else {
          s = (*store)->CompactAll();
        }
        if (!s.ok()) {
          // Crash: abandon the store with the fault still armed, as a
          // real process death would.
          ++crashes;
          break;
        }
      }
      // Process "dies" here; the destructor may flush OS-buffered
      // bytes, exactly like a kernel page-cache writeback.
    }
    Faults().DisarmAll();

    // Reopen on clean hardware: recovery must succeed (quarantining,
    // never propagating corruption) and serve every acked write.
    auto reopened = KvStore::Open(*dir, opts);
    ASSERT_TRUE(reopened.ok())
        << "recovery surfaced an error: " << reopened.status();
    for (int i = 0; i < kKeySpace; ++i) {
      const std::string key = "k" + std::to_string(i);
      auto got = (*reopened)->Get(key);
      ASSERT_TRUE(got.ok() || got.status().IsNotFound())
          << key << ": " << got.status();
      if (indeterminate_key.has_value() && key == *indeterminate_key) {
        continue;  // unacked op: either pre- or post-state is legal
      }
      auto expect = model.find(key);
      if (expect == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound())
            << key << " resurrected with value " << *got;
      } else {
        ASSERT_TRUE(got.ok()) << "lost synced write " << key;
        EXPECT_EQ(*got, expect->second) << "stale value for " << key;
      }
    }
    const auto& rs = (*reopened)->recovery_stats();
    total_quarantined += static_cast<int64_t>(rs.sstables_quarantined +
                                              rs.orphans_quarantined);
    total_wal_dropped += static_cast<int64_t>(rs.wal_bytes_dropped);
    (void)RemoveDirRecursively(*dir);
  }

  // The menu must actually bite: most iterations should crash, and the
  // crash artifacts (quarantines, torn WAL tails) should show up.
  EXPECT_GT(crashes, kIterations / 3);
  EXPECT_GT(total_wal_dropped + total_quarantined, 0);
  // Only the reopens recover anything, so the global counters move by
  // exactly what their recovery_stats() report.
  EXPECT_EQ(quarantined.Value() - quarantined_before, total_quarantined);
  EXPECT_EQ(wal_dropped.Value() - wal_dropped_before, total_wal_dropped);
}

/// Recovery directly on top of every torn-artifact combination the
/// menu can produce, several times per fault point.
TEST_F(ChaosTest, RepeatedCrashesAcrossReopens) {
  const uint64_t base_seed = ChaosBaseSeed(4242);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  Rng rng(base_seed);
  auto dir = MakeTempDir("saga_chaos_reopen");
  ASSERT_TRUE(dir.ok());
  KvStore::Options opts;
  opts.memtable_max_bytes = 1024;
  opts.sync_every_write = true;
  opts.retry.max_attempts = 1;
  std::map<std::string, std::string> model;
  std::optional<std::string> indeterminate_key;

  // One long-lived directory crashed into 40 times in a row: damage
  // must never accumulate into an unopenable store.
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto store = KvStore::Open(*dir, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    if (indeterminate_key.has_value()) {
      // Settle the previous round's indeterminate key to whatever the
      // store actually has.
      auto got = (*store)->Get(*indeterminate_key);
      if (got.ok()) {
        model[*indeterminate_key] = *got;
      } else {
        model.erase(*indeterminate_key);
      }
      indeterminate_key.reset();
    }
    for (const auto& [key, value] : model) {
      auto got = (*store)->Get(key);
      ASSERT_TRUE(got.ok()) << "lost " << key;
      EXPECT_EQ(*got, value);
    }
    const FaultChoice& choice = kFaultMenu[rng.Uniform(std::size(kFaultMenu))];
    FaultSpec spec;
    spec.kind = choice.kind;
    spec.fail_nth = 1 + static_cast<int>(rng.Uniform(4));
    spec.repeat = true;
    Faults().Arm(choice.point, spec);
    for (int op = 0; op < 12; ++op) {
      const std::string key = "k" + std::to_string(rng.Uniform(16));
      const std::string value =
          "r" + std::to_string(round) + "_" + std::to_string(op);
      Status s = (*store)->Put(key, value);
      if (s.ok()) {
        model[key] = value;
      } else {
        indeterminate_key = key;
        break;
      }
    }
    Faults().DisarmAll();
  }
  (void)RemoveDirRecursively(*dir);
}

/// Corruption chaos: every round builds a durable store, rots one bit
/// of a random durable artifact (a live SSTable or the WAL tail), and
/// asserts the integrity pipeline's contract end to end:
///   - the damage is DETECTED before any result is returned (rotted
///     tables fail their whole-file CRC at open; rotted WAL replay
///     stops at the clean prefix and reports it);
///   - the scrubber REPAIRS from a snapshot when one exists (and the
///     repair is byte-identical), QUARANTINES tables when none does,
///     and never rewrites the WAL;
///   - the reopened store NEVER serves garbage: every key answers its
///     exact acknowledged value or NotFound, nothing else.
///
/// The bit flip goes through WriteStringToFile (tmp + rename), so the
/// store directory gets a fresh rotted inode while the hard-linked
/// snapshot copy keeps the clean bytes — media rot on the live
/// replica, not on the backup.
TEST_F(ChaosTest, CorruptionRoundsNeverServeGarbage) {
  constexpr int kIterations = 200;
  constexpr int kFlushedKeys = 20;
  constexpr int kWalKeys = 6;
  const uint64_t base_seed = ChaosBaseSeed(9001);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));

  int64_t repaired_rounds = 0;
  int64_t quarantined_rounds = 0;
  int64_t wal_rounds = 0;

  for (int iter = 0; iter < kIterations; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    Rng rng(20011 * static_cast<uint64_t>(iter) + base_seed);
    auto dir = MakeTempDir("saga_chaos_rot");
    ASSERT_TRUE(dir.ok());

    KvStore::Options opts;
    opts.sync_every_write = true;
    opts.read_verify = ReadVerifyMode::kAlways;
    opts.retry.max_attempts = 1;

    std::map<std::string, std::string> model;
    {
      auto store = KvStore::Open(*dir, opts);
      ASSERT_TRUE(store.ok()) << store.status();
      for (int i = 0; i < kFlushedKeys; ++i) {
        const std::string key = "k" + std::to_string(i);
        const std::string value =
            "f" + std::to_string(iter) + "_" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        model[key] = value;
      }
      ASSERT_TRUE((*store)->Flush().ok());
      for (int i = kFlushedKeys; i < kFlushedKeys + kWalKeys; ++i) {
        const std::string key = "k" + std::to_string(i);
        const std::string value =
            "w" + std::to_string(iter) + "_" + std::to_string(i);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        model[key] = value;
      }
    }

    integrity::SnapshotManager snaps(*dir);
    const bool have_snapshot = rng.Uniform(2) == 0;
    if (have_snapshot) {
      ASSERT_TRUE(snaps.Create("s0").ok());
    }

    // Pick a victim: one of the manifest's live tables, or the WAL.
    auto tables = ReadManifestTables(*dir);
    ASSERT_TRUE(tables.ok());
    ASSERT_FALSE(tables->empty());
    const bool hit_wal = rng.Uniform(4) == 0;
    const std::string victim_name =
        hit_wal ? "wal.log" : (*tables)[rng.Uniform(tables->size())];
    const std::string victim = JoinPath(*dir, victim_name);
    auto clean_bytes = ReadFileToString(victim);
    ASSERT_TRUE(clean_bytes.ok());
    ASSERT_FALSE(clean_bytes->empty());

    std::string rotted = *clean_bytes;
    const size_t pos = rng.Uniform(rotted.size());
    rotted[pos] =
        static_cast<char>(rotted[pos] ^ (1u << rng.Uniform(8)));
    ASSERT_TRUE(WriteStringToFile(victim, rotted).ok());

    // Detection before serving: the damaged artifact must announce
    // itself, never parse quietly into different data.
    if (hit_wal) {
      ++wal_rounds;
      auto wal = ReadWalRecordsDetailed(victim);
      ASSERT_TRUE(wal.ok());
      EXPECT_FALSE(wal->clean) << "flipped WAL bit went unnoticed";
    } else {
      auto r = SSTableReader::Open(
          victim, SSTableReader::OpenOptions{ReadVerifyMode::kAlways});
      ASSERT_FALSE(r.ok()) << "flipped SSTable bit went unnoticed";
      EXPECT_TRUE(r.status().IsCorruption() || r.status().IsDataLoss())
          << r.status();
    }

    // Scrub: repair from the snapshot when there is one, quarantine
    // otherwise; WAL damage is reported but left for replay.
    integrity::Scrubber::Options so;
    so.snapshots = have_snapshot ? &snaps : nullptr;
    integrity::Scrubber scrub(*dir, so);
    ASSERT_TRUE(scrub.RunOnce().ok());
    const auto stats = scrub.stats();
    EXPECT_GE(stats.corrupt_found, 1u);
    if (hit_wal) {
      EXPECT_EQ(stats.repaired, 0u);
      EXPECT_EQ(stats.quarantined, 0u);
    } else if (have_snapshot) {
      EXPECT_EQ(stats.repaired, 1u);
      EXPECT_EQ(stats.quarantined, 0u);
      auto healed = ReadFileToString(victim);
      ASSERT_TRUE(healed.ok());
      EXPECT_EQ(*healed, *clean_bytes) << "repair not byte-identical";
      ++repaired_rounds;
    } else {
      EXPECT_EQ(stats.quarantined, 1u);
      EXPECT_TRUE(FileExists(victim + ".quarantined"));
      ++quarantined_rounds;
    }

    // Reopen: the store must come up and answer every key with its
    // exact acknowledged value or NotFound — never something else.
    auto store = KvStore::Open(*dir, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    size_t missing = 0;
    for (const auto& [key, value] : model) {
      auto got = (*store)->Get(key);
      if (got.ok()) {
        EXPECT_EQ(*got, value) << "garbage served for " << key;
      } else {
        EXPECT_TRUE(got.status().IsNotFound()) << got.status();
        ++missing;
      }
    }
    if (!hit_wal && have_snapshot) {
      // Table repaired, WAL untouched: nothing may be missing.
      EXPECT_EQ(missing, 0u);
    }
    if (!hit_wal) {
      // WAL untouched: its acked writes always replay.
      for (int i = kFlushedKeys; i < kFlushedKeys + kWalKeys; ++i) {
        const std::string key = "k" + std::to_string(i);
        auto got = (*store)->Get(key);
        ASSERT_TRUE(got.ok()) << "lost WAL key " << key;
        EXPECT_EQ(*got, model[key]);
      }
    }
    store->reset();
    (void)RemoveDirRecursively(*dir);
  }

  SAGA_LOG(Info) << "corruption rounds: " << kIterations << " total, "
                 << repaired_rounds << " repaired, " << quarantined_rounds
                 << " quarantined, " << wal_rounds << " wal";
  EXPECT_GT(repaired_rounds, 0);
  EXPECT_GT(quarantined_rounds, 0);
  EXPECT_GT(wal_rounds, 0);
}

}  // namespace
}  // namespace saga::storage

namespace saga::serving {
namespace {

TEST(ChaosServingTest, DegradedEmbeddingServiceServesExactResults) {
  kg::KgGeneratorConfig config;
  config.num_persons = 80;
  config.num_movies = 30;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 16;
  tc.epochs = 3;
  embedding::TrainedEmbeddings emb = embedding::InMemoryTrainer(tc).Train(view);

  // Reference: a healthy exact service.
  EmbeddingService exact(embedding::EmbeddingStore::FromTrained(emb, view),
                         &gen.kg);
  ASSERT_FALSE(exact.degraded());

  for (EmbeddingService::IndexKind kind :
       {EmbeddingService::IndexKind::kIvf,
        EmbeddingService::IndexKind::kQuantized}) {
    obs::Counter& degraded = SAGA_COUNTER("serving.embedding.degraded_builds");
    obs::Counter& retries = SAGA_COUNTER("resource.retry.attempts");
    const int64_t degraded_before = degraded.Value();
    const int64_t retries_before = retries.Value();
    EmbeddingService::Options opts;
    opts.index = kind;
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff_ms = 0.0;
    opts.retry.max_backoff_ms = 0.0;
    FaultSpec spec;
    spec.fail_nth = 0;  // every build attempt fails
    spec.repeat = true;
    ScopedFault fault("serving.index_build", spec);
    EmbeddingService service(
        embedding::EmbeddingStore::FromTrained(emb, view), &gen.kg, opts);
    EXPECT_TRUE(service.degraded());
    EXPECT_EQ(degraded.Value() - degraded_before, 1);
    EXPECT_GE(retries.Value() - retries_before, 1);

    const kg::EntityId a = view.global_entity(1);
    const RequestContext ctx;
    auto degraded_hits =
        service.TopKNeighbors(a, 5, kg::TypeId::Invalid(), ctx);
    auto exact_hits = exact.TopKNeighbors(a, 5, kg::TypeId::Invalid(), ctx);
    ASSERT_TRUE(degraded_hits.ok());
    ASSERT_TRUE(exact_hits.ok());
    ASSERT_EQ(degraded_hits->size(), exact_hits->size());
    for (size_t i = 0; i < exact_hits->size(); ++i) {
      EXPECT_EQ((*degraded_hits)[i].first, (*exact_hits)[i].first);
      EXPECT_NEAR((*degraded_hits)[i].second, (*exact_hits)[i].second, 1e-9);
    }
  }
  Faults().DisarmAll();
}

TEST(ChaosServingTest, HealthyBuildIsNotDegraded) {
  kg::KgGeneratorConfig config;
  config.num_persons = 40;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  auto view = graph_engine::GraphView::Build(gen.kg,
                                             graph_engine::ViewDefinition());
  embedding::TrainingConfig tc;
  tc.dim = 8;
  tc.epochs = 2;
  embedding::TrainedEmbeddings emb = embedding::InMemoryTrainer(tc).Train(view);
  obs::Counter& degraded = SAGA_COUNTER("serving.embedding.degraded_builds");
  const int64_t degraded_before = degraded.Value();
  EmbeddingService::Options opts;
  opts.index = EmbeddingService::IndexKind::kIvf;
  EmbeddingService service(embedding::EmbeddingStore::FromTrained(emb, view),
                           &gen.kg, opts);
  EXPECT_FALSE(service.degraded());
  EXPECT_EQ(degraded.Value() - degraded_before, 0);
}

}  // namespace
}  // namespace saga::serving
