// Concurrency suite for the KvStore superversion read path and
// background maintenance, plus the serving-tier EmbeddingKvCache on
// top of it. Run under TSan (the tsan CI job builds this target): the
// readers here deliberately race flushes, compactions and LRU rebuilds.
//
// Also home of the seeded crash-during-background-compaction chaos
// loop: any failure prints SAGA_CHAOS_SEED=<n> via SCOPED_TRACE and
// exporting that variable replays the exact run.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "serving/kv_cache.h"
#include "storage/kv_store.h"

namespace saga::storage {
namespace {

uint64_t ChaosBaseSeed(uint64_t default_seed) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

class KvConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMinLogLevel(LogLevel::kError); }
  void TearDown() override {
    Faults().DisarmAll();
    SetMinLogLevel(LogLevel::kInfo);
  }
};

std::string ValueFor(int key, int version) {
  return "v" + std::to_string(key) + "_" + std::to_string(version) + "_" +
         std::string(64, 'x');
}

// Readers run lock-free against superversion snapshots while a writer
// drives continuous sealing, background flushing and auto-compaction.
// Every observed value must be one the writer acknowledged for that
// key, and reads must never surface an error.
TEST_F(KvConcurrencyTest, ReadsServeConsistentlyDuringBackgroundMaintenance) {
  auto dir = MakeTempDir("saga_kv_conc");
  ASSERT_TRUE(dir.ok());
  KvStore::Options opts;
  opts.memtable_max_bytes = 4 << 10;  // seal every few dozen writes
  opts.background_maintenance = true;
  opts.auto_compact_trigger = 2;
  auto store = KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();

  constexpr int kKeys = 64;
  constexpr int kVersions = 120;
  // Highest version acked per key, for the validity check. Written by
  // the writer thread, read by readers — a relaxed atomic floor.
  std::array<std::atomic<int>, kKeys> acked;
  for (auto& a : acked) a.store(-1);
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(k), ValueFor(k, 0)).ok());
    acked[static_cast<size_t>(k)].store(0, std::memory_order_release);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> stale_reads{0};
  std::atomic<uint64_t> reads_done{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int k = static_cast<int>(rng.Uniform(kKeys));
        // Read the acked floor BEFORE the Get: the value seen must be
        // at least this fresh (writes are acked before the floor is
        // advanced, so the floor is always <= what the store holds).
        const int floor = acked[static_cast<size_t>(k)].load(
            std::memory_order_acquire);
        auto got = (*store)->Get("key" + std::to_string(k));
        if (!got.ok()) {
          read_errors.fetch_add(1);
          continue;
        }
        // Parse the version back out of "v<k>_<ver>_xxx...".
        const size_t us = got->find('_');
        const int seen = std::atoi(got->c_str() + us + 1);
        if (seen < floor) stale_reads.fetch_add(1);
        reads_done.fetch_add(1);
        if (rng.Uniform(64) == 0) {
          auto scan = (*store)->ScanPrefix("key");
          if (!scan.ok()) read_errors.fetch_add(1);
        }
      }
    });
  }
  for (int v = 1; v < kVersions; ++v) {
    for (int k = 0; k < kKeys; ++k) {
      Status s = (*store)->Put("key" + std::to_string(k), ValueFor(k, v));
      if (s.ok()) {
        acked[static_cast<size_t>(k)].store(v, std::memory_order_release);
      } else {
        // Only the stall gate may push back, and this workload's
        // backlog bound should make that rare; wait it out.
        ASSERT_TRUE(s.IsResourceExhausted()) << s;
        (*store)->WaitForMaintenance();
        --k;
      }
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(stale_reads.load(), 0u) << "a read saw an older value than "
                                       "one already acknowledged";
  EXPECT_GT(reads_done.load(), 0u);
  // Maintenance really ran in the background.
  (*store)->WaitForMaintenance();
  EXPECT_TRUE((*store)->background_error().ok())
      << (*store)->background_error();
  EXPECT_GT((*store)->stats().flushes + (*store)->stats().compactions, 0u);
  // Final state: every key at its last acked version.
  ASSERT_TRUE((*store)->Flush().ok());
  for (int k = 0; k < kKeys; ++k) {
    auto got = (*store)->Get("key" + std::to_string(k));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(*got, ValueFor(k, acked[static_cast<size_t>(k)].load()));
  }
  (void)RemoveDirRecursively(*dir);
}

// When background flushing cannot keep up (every flush fails), the
// sealed backlog stays bounded and writes shed with kResourceExhausted
// instead of blocking or growing memory without limit.
TEST_F(KvConcurrencyTest, WriteStallShedsWhenMaintenanceFallsBehind) {
  auto dir = MakeTempDir("saga_kv_stall");
  ASSERT_TRUE(dir.ok());
  KvStore::Options opts;
  opts.memtable_max_bytes = 512;
  opts.background_maintenance = true;
  opts.max_immutable_memtables = 2;
  opts.retry.max_attempts = 1;
  opts.retry.initial_backoff_ms = 0.0;
  auto store = KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();

  FaultSpec wedge;
  wedge.kind = FaultKind::kFail;
  wedge.repeat = true;
  Faults().Arm("sstable.flush", wedge);

  std::vector<std::string> acked_keys;
  Status shed;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "stall" + std::to_string(i);
    Status s = (*store)->Put(key, std::string(64, 'v'));
    if (!s.ok()) {
      shed = s;
      break;
    }
    acked_keys.push_back(key);
    // Give the (failing) maintenance runs a chance to cycle so the
    // shed comes from the gate, not from a race with scheduling.
    if ((*store)->imm_memtables() >= 2) (*store)->WaitForMaintenance();
  }
  ASSERT_FALSE(shed.ok()) << "writes never stalled";
  EXPECT_TRUE(shed.IsResourceExhausted()) << shed;
  EXPECT_FALSE(shed.IsStorageExhausted()) << "stall must shed plain "
                                             "kResourceExhausted, not the "
                                             "degraded-storage origin";
  EXPECT_GE((*store)->stats().stall_rejects, 1u);
  // Backlog bounded: at most the gate, +1 for the in-flight seal race.
  EXPECT_LE((*store)->imm_memtables(), 3u);
  (*store)->WaitForMaintenance();
  EXPECT_FALSE((*store)->background_error().ok());

  // Clear the wedge: an inline Flush drains the backlog and writes
  // resume; nothing acked was lost while stalled.
  Faults().DisarmAll();
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->imm_memtables(), 0u);
  ASSERT_TRUE((*store)->Put("after", "1").ok());
  for (const auto& key : acked_keys) {
    EXPECT_TRUE((*store)->Get(key).ok()) << key;
  }
  (void)RemoveDirRecursively(*dir);
}

// Background jobs honor the admission hook: shed runs back off, and
// the drain still happens once admission opens up.
TEST_F(KvConcurrencyTest, BackgroundMaintenanceHonorsAdmissionHook) {
  auto dir = MakeTempDir("saga_kv_admit");
  ASSERT_TRUE(dir.ok());
  std::atomic<int> consultations{0};
  std::atomic<bool> open{false};
  KvStore::Options opts;
  opts.memtable_max_bytes = 512;
  opts.background_maintenance = true;
  // Generous gate: this test wedges maintenance via the admission hook
  // and must not trip the stall shed while doing so.
  opts.max_immutable_memtables = 64;
  opts.bg_admission = [&] {
    consultations.fetch_add(1);
    return open.load();
  };
  opts.bg_shed_backoff_ms = 1;
  auto store = KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        (*store)->Put("adm" + std::to_string(i), std::string(64, 'a')).ok());
  }
  while (consultations.load() == 0) std::this_thread::yield();
  open.store(true);
  (*store)->WaitForMaintenance();
  EXPECT_GE(consultations.load(), 1);
  EXPECT_TRUE((*store)->background_error().ok());
  EXPECT_GE((*store)->num_sstables() + (*store)->imm_memtables(), 1u);
  (void)RemoveDirRecursively(*dir);
}

// A crash while background maintenance is wedged (flushes failing,
// several memtables sealed) must lose nothing: the sealed WAL segments
// plus the active log cover every acknowledged write.
TEST_F(KvConcurrencyTest, MultiSegmentWalRecoveryAfterWedgedMaintenance) {
  auto dir = MakeTempDir("saga_kv_seg");
  ASSERT_TRUE(dir.ok());
  KvStore::Options opts;
  opts.memtable_max_bytes = 512;
  opts.sync_every_write = true;
  opts.background_maintenance = true;
  opts.max_immutable_memtables = 8;
  opts.retry.max_attempts = 1;
  opts.retry.initial_backoff_ms = 0.0;

  std::map<std::string, std::string> model;
  {
    FaultSpec wedge;
    wedge.kind = FaultKind::kFail;
    wedge.repeat = true;
    Faults().Arm("sstable.flush", wedge);
    auto store = KvStore::Open(*dir, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    for (int i = 0; i < 60; ++i) {
      const std::string key = "seg" + std::to_string(i);
      const std::string value = std::string(48, 'a' + (i % 26));
      Status s = (*store)->Put(key, value);
      if (!s.ok()) break;  // stall gate — everything acked so far counts
      model[key] = value;
    }
    EXPECT_GE((*store)->imm_memtables(), 2u)
        << "workload never built a multi-segment backlog";
    // Crash: destroy with the wedge still armed.
  }
  Faults().DisarmAll();

  auto reopened = KvStore::Open(*dir, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GE((*reopened)->recovery_stats().wal_segments_replayed, 2u);
  for (const auto& [key, value] : model) {
    auto got = (*reopened)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, value);
  }
  (void)RemoveDirRecursively(*dir);
}

/// Crash points exercised by the background-maintenance chaos loop:
/// the background flush/compaction writes themselves plus the shared
/// file-level points they go through.
struct FaultChoice {
  const char* point;
  FaultKind kind;
};
constexpr FaultChoice kBgFaultMenu[] = {
    {"sstable.flush", FaultKind::kFail},
    {"sstable.flush", FaultKind::kNoSpace},
    {"compaction.write", FaultKind::kFail},
    {"compaction.write", FaultKind::kNoSpace},
    {"file.write", FaultKind::kTornWrite},
    {"file.write", FaultKind::kFail},
    {"file.rename", FaultKind::kFail},
    {"file.remove", FaultKind::kFail},
    {"wal.append", FaultKind::kTornWrite},
    {"wal.append", FaultKind::kFail},
    {"wal.sync", FaultKind::kFail},
    {"sst.build", FaultKind::kBitFlip},
};

// 200 seeded rounds: run a concurrent write workload with background
// flush + auto-compaction, arm a random fault mid-run (which may fire
// on the maintenance thread, mid-compaction), "crash" by destroying
// the store with the fault armed, reopen clean, and assert every
// acknowledged write is served with its acknowledged value.
TEST_F(KvConcurrencyTest, SeededCrashDuringBackgroundCompactionLosesNothing) {
  constexpr int kRounds = 200;
  constexpr int kKeySpace = 32;
  const uint64_t base_seed = ChaosBaseSeed(29);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Rng rng(10007 * static_cast<uint64_t>(round) + base_seed);
    Faults().Seed(rng.NextUint64());
    auto dir = MakeTempDir("saga_kv_bgchaos");
    ASSERT_TRUE(dir.ok());
    KvStore::Options opts;
    opts.memtable_max_bytes = 512 + rng.Uniform(1024);
    opts.sync_every_write = true;  // an OK op is a durable op
    opts.background_maintenance = true;
    opts.auto_compact_trigger = 2;
    opts.max_immutable_memtables = 2 + static_cast<int>(rng.Uniform(3));
    opts.retry.max_attempts = 2;
    opts.retry.initial_backoff_ms = 0.0;
    opts.retry.max_backoff_ms = 0.0;

    std::map<std::string, std::string> model;
    std::optional<std::string> indeterminate_key;
    {
      auto store = KvStore::Open(*dir, opts);
      ASSERT_TRUE(store.ok()) << store.status();
      const int n_ops = 30 + static_cast<int>(rng.Uniform(40));
      const int fault_at = static_cast<int>(rng.Uniform(n_ops));
      for (int op = 0; op < n_ops; ++op) {
        if (op == fault_at) {
          const FaultChoice& choice =
              kBgFaultMenu[rng.Uniform(std::size(kBgFaultMenu))];
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
        if (action < 9) {
          const std::string value =
              "v" + std::to_string(round) + "_" + std::to_string(op);
          s = (*store)->Put(key, value);
          if (s.ok()) {
            model[key] = value;
          } else {
            indeterminate_key = key;
          }
        } else if (action < 11) {
          s = (*store)->Delete(key);
          if (s.ok()) {
            model.erase(key);
          } else {
            indeterminate_key = key;
          }
        } else {
          // Occasionally read mid-chaos; value checking happens after
          // recovery, here we only require no crash.
          (void)(*store)->Get(key);
        }
        if (!s.ok() && !s.IsResourceExhausted()) {
          break;  // foreground crash: abandon with the fault armed
        }
        // A stall shed is not a crash — maintenance is wedged but the
        // store is alive; keep writing other keys.
      }
      // Process "dies" here, possibly mid-background-compaction; the
      // destructor joins the maintenance thread like a crashing
      // process's kernel flushes page cache: whatever happened,
      // happened.
    }
    Faults().DisarmAll();

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
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound())
            << key << " resurrected: " << *got;
      } else {
        ASSERT_TRUE(got.ok()) << key << " lost: " << got.status();
        EXPECT_EQ(*got, it->second) << key << " served a stale value";
      }
    }
    (void)RemoveDirRecursively(*dir);
  }
}

// Serving tier: Gets keep serving (and stay data-race-free — run me
// under TSan) while PutAll rebuilds the cache and writers update
// vectors concurrently.
TEST_F(KvConcurrencyTest, EmbeddingCacheServesDuringConcurrentRebuild) {
  auto dir = MakeTempDir("saga_kvcache_conc");
  ASSERT_TRUE(dir.ok());
  auto cache = serving::EmbeddingKvCache::Open(*dir, 1 << 14);
  ASSERT_TRUE(cache.ok()) << cache.status();

  constexpr int kEntities = 48;
  constexpr int kDim = 16;
  auto vec_for = [](int id, int version) {
    std::vector<float> v(kDim);
    for (int d = 0; d < kDim; ++d) {
      v[static_cast<size_t>(d)] = static_cast<float>(id * 1000 + version);
    }
    return v;
  };
  auto store_at = [&](int version) {
    std::vector<std::pair<kg::EntityId, std::vector<float>>> rows;
    for (int e = 0; e < kEntities; ++e) {
      rows.emplace_back(kg::EntityId(static_cast<uint64_t>(e + 1)),
                        vec_for(e, version));
    }
    return embedding::EmbeddingStore::FromRows(std::move(rows)).value();
  };
  ASSERT_TRUE((*cache)->PutAll(store_at(0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> bad_values{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(77 + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const int e = static_cast<int>(rng.Uniform(kEntities));
        auto got = (*cache)->Get(kg::EntityId(static_cast<uint64_t>(e + 1)));
        if (!got.ok()) {
          read_errors.fetch_add(1);
          continue;
        }
        // All versions encode id*1000 in every lane; any other lane
        // value means a torn/garbled vector.
        const float lane = (*got)[0];
        if (lane < static_cast<float>(e * 1000) ||
            lane > static_cast<float>(e * 1000 + 10)) {
          bad_values.fetch_add(1);
        }
      }
    });
  }
  // Rebuild the whole cache (flush + compaction on the KV tier) while
  // individual vectors are updated and readers hammer Gets.
  for (int version = 1; version <= 3; ++version) {
    ASSERT_TRUE((*cache)->PutAll(store_at(version)).ok());
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0u)
      << "reads failed during a concurrent rebuild";
  EXPECT_EQ(bad_values.load(), 0u);

  // Staleness check after the dust settles: the LRU must serve the
  // final version even for entities cached before the last rebuild.
  for (int e = 0; e < kEntities; ++e) {
    auto got = (*cache)->Get(kg::EntityId(static_cast<uint64_t>(e + 1)));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ((*got)[0], static_cast<float>(e * 1000 + 3));
  }
  (void)RemoveDirRecursively(*dir);
}


// Regression: a memory miss reads the disk tier outside the shard lock
// and then fills the LRU. A Put landing between that read and the fill
// found the key not resident and skipped the refresh, so the fill
// installed the older vector and served it until the next Put or an
// eviction. With a small budget most reads miss to disk. A Get that
// starts after Put(e, v) returned must see version v or newer; once the
// writer stops, every Get must return each entity's last version.
TEST_F(KvConcurrencyTest, DiskFillNeverInstallsAValueOlderThanAPut) {
  const uint64_t base_seed = ChaosBaseSeed(4242);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  auto dir = MakeTempDir("saga_kvcache_fill");
  ASSERT_TRUE(dir.ok());
  constexpr int kEntities = 32;
  constexpr int kVersions = 300;
  // 41 bytes an entry (8 id + 9 header + 4 * 6): about 2 per shard, so
  // about half the entities are resident at a time.
  auto cache = serving::EmbeddingKvCache::Open(*dir, 8 * 2 * 41);
  ASSERT_TRUE(cache.ok()) << cache.status();
  auto vec_for = [](int version) {
    return std::vector<float>(4, static_cast<float>(version));
  };
  std::vector<std::atomic<int>> acked(kEntities);
  for (int e = 0; e < kEntities; ++e) {
    ASSERT_TRUE((*cache)->Put(kg::EntityId(e + 1), vec_for(0)).ok());
    acked[static_cast<size_t>(e)].store(0);
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> read_errors{0};
  std::atomic<uint64_t> stale_reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(base_seed + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const size_t e = rng.Uniform(kEntities);
        const int floor = acked[e].load(std::memory_order_acquire);
        auto got = (*cache)->Get(kg::EntityId(e + 1));
        if (!got.ok()) {
          read_errors.fetch_add(1);
        } else if ((*got)[0] < static_cast<float>(floor)) {
          stale_reads.fetch_add(1);
        }
      }
    });
  }
  Rng rng(base_seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<int> order(kEntities);
  for (int e = 0; e < kEntities; ++e) order[static_cast<size_t>(e)] = e;
  for (int version = 1; version <= kVersions; ++version) {
    for (int e = kEntities - 1; e > 0; --e) {
      std::swap(order[static_cast<size_t>(e)],
                order[rng.Uniform(static_cast<uint64_t>(e) + 1)]);
    }
    for (int e : order) {
      ASSERT_TRUE((*cache)->Put(kg::EntityId(e + 1), vec_for(version)).ok());
      acked[static_cast<size_t>(e)].store(version, std::memory_order_release);
    }
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0u);
  EXPECT_EQ(stale_reads.load(), 0u)
      << "Gets returned a version older than an acknowledged Put";

  int stale = 0;
  for (int e = 0; e < kEntities; ++e) {
    auto got = (*cache)->Get(kg::EntityId(e + 1));
    ASSERT_TRUE(got.ok());
    if ((*got)[0] != static_cast<float>(kVersions)) ++stale;
  }
  EXPECT_EQ(stale, 0) << "entities served an older version after the "
                         "last Put";
  (void)RemoveDirRecursively(*dir);
}

}  // namespace
}  // namespace saga::storage
