#include <gtest/gtest.h>

#include <map>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "counter_delta.h"
#include "storage/kv_store.h"

namespace saga::storage {
namespace {

class KvStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("saga_kv_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  KvStore::Options SmallMemtable() {
    KvStore::Options opts;
    opts.memtable_max_bytes = 2048;
    return opts;
  }

  std::string dir_;
};

TEST_F(KvStoreTest, PutGetOverwrite) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  auto got = (*store)->Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");

  ASSERT_TRUE((*store)->Put("a", "2").ok());
  EXPECT_EQ((*store)->Get("a").value(), "2");
  EXPECT_TRUE((*store)->Get("never").status().IsNotFound());
}

TEST_F(KvStoreTest, EmptyKeyRejected) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Put("", "v").IsInvalidArgument());
}

TEST_F(KvStoreTest, FlushCreatesSstAndKeepsData) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i),
                              "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->num_sstables(), 1u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ((*store)->Get("k" + std::to_string(i)).value(),
              "v" + std::to_string(i));
  }
}

TEST_F(KvStoreTest, NewestVersionWinsAcrossLevels) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "old").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("k", "mid").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("k", "new").ok());
  EXPECT_EQ((*store)->Get("k").value(), "new");
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->Get("k").value(), "new");
}

TEST_F(KvStoreTest, AutomaticFlushWhenMemtableFull) {
  const CounterDelta writes(SAGA_COUNTER("storage.kv.write_ok"));
  auto store = KvStore::Open(dir_, SmallMemtable());
  ASSERT_TRUE(store.ok());
  const std::string big_value(200, 'x');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), big_value).ok());
  }
  // No compaction runs, so each table is one inline flush.
  EXPECT_GT((*store)->num_sstables(), 1u);
  EXPECT_EQ(writes(), 100);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE((*store)->Get("key" + std::to_string(i)).ok());
  }
}

// storage.kv.bg.* counts only the work the maintenance thread runs: a
// seal that fills the memtable inline, Flush() and CompactAll() leave
// the counters alone, a background-mode seal bumps them.
TEST_F(KvStoreTest, BackgroundCountersCountOnlyTheMaintenanceThread) {
  const CounterDelta flushes(SAGA_COUNTER("storage.kv.bg.flushes"));
  const CounterDelta compactions(SAGA_COUNTER("storage.kv.bg.compactions"));
  const std::string big_value(200, 'x');
  {
    auto store = KvStore::Open(JoinPath(dir_, "inline"), SmallMemtable());
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), big_value).ok());
    }
    ASSERT_GT((*store)->num_sstables(), 1u);
    ASSERT_TRUE((*store)->CompactAll().ok());
    EXPECT_EQ((*store)->num_sstables(), 1u);
  }
  EXPECT_EQ(flushes(), 0);
  EXPECT_EQ(compactions(), 0);

  KvStore::Options opts = SmallMemtable();
  opts.background_maintenance = true;
  opts.auto_compact_trigger = 1;
  auto store = KvStore::Open(JoinPath(dir_, "background"), opts);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), big_value).ok());
  }
  (*store)->WaitForMaintenance();
  ASSERT_TRUE((*store)->background_error().ok());
  const int64_t background_flushes = flushes();
  EXPECT_GE(background_flushes, 1);
  EXPECT_EQ((*store)->num_sstables(), 1u);
  const int64_t background_compactions = compactions();
  // A foreground flush and compaction on the same store add nothing.
  ASSERT_TRUE((*store)->Put("fresh", big_value).ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_EQ((*store)->num_sstables(), 1u);
  EXPECT_EQ(flushes(), background_flushes);
  EXPECT_EQ(compactions(), background_compactions);
}

TEST_F(KvStoreTest, ScanPrefixMergesLevels) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("user:1", "a").ok());
  ASSERT_TRUE((*store)->Put("user:2", "b").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("user:2", "b2").ok());  // shadow in memtable
  ASSERT_TRUE((*store)->Put("user:3", "c").ok());
  ASSERT_TRUE((*store)->Put("other:9", "zz").ok());

  auto scan = (*store)->ScanPrefix("user:");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->size(), 3u);
  EXPECT_EQ((*scan)[0].first, "user:1");
  EXPECT_EQ((*scan)[0].second, "a");
  EXPECT_EQ((*scan)[1].first, "user:2");
  EXPECT_EQ((*scan)[1].second, "b2");
  EXPECT_EQ((*scan)[2].first, "user:3");
}

TEST_F(KvStoreTest, CompactionMergesLevels) {
  KvStore::Options opts;
  opts.memtable_max_bytes = 1 << 20;
  auto store = KvStore::Open(dir_, opts);
  ASSERT_TRUE(store.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("k" + std::to_string(i),
                            "round" + std::to_string(round))
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  EXPECT_EQ((*store)->num_sstables(), 4u);
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_EQ((*store)->num_sstables(), 1u);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ((*store)->Get("k" + std::to_string(i)).value(), "round3");
  }
}

TEST_F(KvStoreTest, RecoveryFromWalAfterCrash) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("persisted", "by-flush").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("wal-only", "survives").ok());
    ASSERT_TRUE((*store)->Put("persisted", "by-wal").ok());
    // Destructor without Flush simulates a crash (WAL has the tail).
  }
  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->Get("wal-only").value(), "survives");
  EXPECT_EQ((*reopened)->Get("persisted").value(), "by-wal");
}

TEST_F(KvStoreTest, RecoveryLoadsAllSstables) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_sstables(), 2u);
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
  EXPECT_EQ((*reopened)->Get("b").value(), "2");
}

TEST_F(KvStoreTest, NoWalModeStillServes) {
  KvStore::Options opts;
  opts.use_wal = false;
  auto store = KvStore::Open(dir_, opts);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  EXPECT_EQ((*store)->Get("k").value(), "v");
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->Get("k").value(), "v");
}

TEST_F(KvStoreTest, BloomFiltersSkipIrrelevantTables) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)
                      ->Put("t" + std::to_string(t) + ":" + std::to_string(i),
                            "v")
                      .ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Lookups for keys in the oldest table must bloom-skip newer tables.
  const CounterDelta skips(SAGA_COUNTER("storage.kv.bloom_skips"));
  const CounterDelta probes(SAGA_COUNTER("storage.kv.sstable_probes"));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE((*store)->Get("t0:" + std::to_string(i)).ok());
  }
  EXPECT_GT(skips(), 50);
  // Each lookup probes the oldest table; a bloom false positive on a
  // newer one adds a probe.
  EXPECT_GE(probes(), 50);
  EXPECT_LT(probes(), 50 + 10);
}

TEST_F(KvStoreTest, CompactionReclaimsOverwrittenSpace) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  const std::string value(500, 'x');
  // Overwrite the same small key set across many flushed generations.
  for (int gen = 0; gen < 6; ++gen) {
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*store)->Put("k" + std::to_string(i), value).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto disk_bytes = [&]() {
    uint64_t total = 0;
    auto files = ListDir(dir_);
    for (const auto& name : *files) {
      if (name.rfind("sst_", 0) == 0) {
        total += FileSize(JoinPath(dir_, name)).value_or(0);
      }
    }
    return total;
  };
  const uint64_t before = disk_bytes();
  ASSERT_TRUE((*store)->CompactAll().ok());
  const uint64_t after = disk_bytes();
  EXPECT_LT(after * 3, before) << "compaction should drop 5/6 generations";
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE((*store)->Get("k" + std::to_string(i)).ok());
  }
}

/// Model-based randomized test across memtable budgets: the store must
/// always agree with a std::map reference.
class KvStoreModelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KvStoreModelTest, MatchesReferenceModel) {
  auto dir = MakeTempDir("saga_kv_model");
  ASSERT_TRUE(dir.ok());
  KvStore::Options opts;
  opts.memtable_max_bytes = GetParam();
  auto store = KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok());

  std::map<std::string, std::string> model;
  Rng rng(GetParam());
  for (int op = 0; op < 1500; ++op) {
    const std::string key = "k" + std::to_string(rng.Uniform(64));
    const uint64_t action = rng.Uniform(10);
    if (action < 8) {
      const std::string value = "v" + std::to_string(op);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    } else if (action == 8) {
      auto got = (*store)->Get(key);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(got.status().IsNotFound()) << key;
      } else {
        ASSERT_TRUE(got.ok()) << key;
        EXPECT_EQ(*got, it->second);
      }
    } else {
      ASSERT_TRUE((*store)->Flush().ok());
      if (rng.Bernoulli(0.3)) {
        ASSERT_TRUE((*store)->CompactAll().ok());
      }
    }
  }
  // Final full comparison via scan.
  auto scan = (*store)->ScanPrefix("");
  ASSERT_TRUE(scan.ok());
  std::map<std::string, std::string> scanned(scan->begin(), scan->end());
  EXPECT_EQ(scanned, model);
  (void)RemoveDirRecursively(*dir);
}

INSTANTIATE_TEST_SUITE_P(MemtableBudgets, KvStoreModelTest,
                         ::testing::Values(512, 4096, 1 << 20));

// ---------- Crash-safety and recovery ----------

class KvStoreRecoveryTest : public KvStoreTest {
 protected:
  void TearDown() override {
    Faults().DisarmAll();
    KvStoreTest::TearDown();
  }

  /// Names (not paths) of regular files currently in the store dir.
  std::vector<std::string> Files() {
    auto names = ListDir(dir_);
    return names.ok() ? *names : std::vector<std::string>{};
  }

  bool HasFileWithSuffix(const std::string& suffix) {
    for (const auto& name : Files()) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        return true;
      }
    }
    return false;
  }
};

TEST_F(KvStoreRecoveryTest, CorruptTableIsQuarantinedNotFatal) {
  std::string table_path;
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("keep", "v1").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("lost", "v2").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    table_path = JoinPath(dir_, "sst_00000001.sst");
  }
  // Flip a byte in the entries region (always covered by the data CRC).
  auto data = ReadFileToString(table_path);
  ASSERT_TRUE(data.ok());
  (*data)[2] ^= 0xFF;
  ASSERT_TRUE(WriteStringToFile(table_path, *data).ok());

  obs::Counter& quarantined = SAGA_COUNTER("storage.kv.sst_quarantined");
  const int64_t quarantined_before = quarantined.Value();
  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().sstables_quarantined, 1u);
  EXPECT_EQ(quarantined.Value() - quarantined_before, 1);
  EXPECT_TRUE(HasFileWithSuffix(".quarantined"));
  // Data in the healthy table still serves; the corrupt table's data is
  // gone but the store is open and writable.
  EXPECT_EQ((*reopened)->Get("keep").value(), "v1");
  EXPECT_TRUE((*reopened)->Get("lost").status().IsNotFound());
  EXPECT_TRUE((*reopened)->Put("new", "v3").ok());
}

TEST_F(KvStoreRecoveryTest, NonManifestTableIsQuarantinedAsOrphan) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // A table that exists on disk but was never committed to the
  // manifest — the state a crash between table rename and manifest
  // write leaves behind.
  auto good = ReadFileToString(JoinPath(dir_, "sst_00000000.sst"));
  ASSERT_TRUE(good.ok());
  ASSERT_TRUE(
      WriteStringToFile(JoinPath(dir_, "sst_00000099.sst"), *good).ok());

  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().orphans_quarantined, 1u);
  EXPECT_EQ((*reopened)->num_sstables(), 1u);
  EXPECT_TRUE(HasFileWithSuffix(".quarantined"));
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
}

TEST_F(KvStoreRecoveryTest, MalformedSstNamesAreSkippedWithoutSeqCollision) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // Names that a lenient strtoull parse would read as seq 0, colliding
  // with the real sst_00000000.sst.
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "sst_junk.sst"), "x").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "sst_12x.sst"), "x").ok());

  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().malformed_names_skipped, 2u);
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
  // New flushes must not collide with the skipped names' fake seq.
  ASSERT_TRUE((*reopened)->Put("b", "2").ok());
  ASSERT_TRUE((*reopened)->Flush().ok());
  EXPECT_EQ((*reopened)->Get("b").value(), "2");
}

TEST_F(KvStoreRecoveryTest, LeftoverTmpFilesAreRemoved) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
  }
  // A crash mid-build leaves a partially written temp file behind.
  ASSERT_TRUE(
      WriteStringToFile(JoinPath(dir_, "sst_00000007.sst.tmp"), "partial")
          .ok());
  auto reopened = KvStore::Open(dir_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().tmp_files_removed, 1u);
  EXPECT_FALSE(FileExists(JoinPath(dir_, "sst_00000007.sst.tmp")));
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
}

/// Op 2 is the old delete record: like any op but a put, a format this
/// store never writes, so replay treats it as damage.
class KvStoreBadWalOpTest : public KvStoreRecoveryTest,
                            public ::testing::WithParamInterface<uint8_t> {};

TEST_P(KvStoreBadWalOpTest, StopsReplayAndCountsDrops) {
  const std::string wal_path = JoinPath(dir_, "wal.log");
  {
    WalWriter wal(wal_path);
    ASSERT_TRUE(wal.Open().ok());
    auto record = [](uint8_t op, std::string_view k, std::string_view v) {
      std::string rec;
      BinaryWriter w(&rec);
      w.PutU8(op);
      w.PutString(k);
      w.PutString(v);
      return rec;
    };
    ASSERT_TRUE(wal.Append(record(1, "a", "1")).ok());   // valid put
    ASSERT_TRUE(wal.Append(record(GetParam(), "b", "")).ok());  // not a put
    ASSERT_TRUE(wal.Append(record(1, "c", "3")).ok());   // unreachable
    ASSERT_TRUE(wal.Sync().ok());
  }
  obs::Counter& records_dropped =
      SAGA_COUNTER("storage.kv.wal_records_dropped");
  obs::Counter& bytes_dropped = SAGA_COUNTER("storage.kv.wal_bytes_dropped");
  const int64_t records_before = records_dropped.Value();
  const int64_t bytes_before = bytes_dropped.Value();
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status();
  const auto& rs = (*store)->recovery_stats();
  EXPECT_EQ(rs.wal_records_replayed, 1u);
  EXPECT_EQ(rs.wal_records_dropped, 2u);
  EXPECT_GT(rs.wal_bytes_dropped, 0u);
  EXPECT_EQ(records_dropped.Value() - records_before, 2);
  EXPECT_EQ(bytes_dropped.Value() - bytes_before,
            static_cast<int64_t>(rs.wal_bytes_dropped));
  EXPECT_EQ((*store)->Get("a").value(), "1");
  EXPECT_TRUE((*store)->Get("b").status().IsNotFound());
  EXPECT_TRUE((*store)->Get("c").status().IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Ops, KvStoreBadWalOpTest,
                         ::testing::Values(uint8_t{2}, uint8_t{9}));

TEST_F(KvStoreRecoveryTest, TornWalTailIsTruncatedSoLaterWritesSurvive) {
  KvStore::Options opts;
  opts.sync_every_write = true;
  {
    auto store = KvStore::Open(dir_, opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
  }
  // Torn tail: garbage after the last intact record.
  const auto wal = ReadFileToString(JoinPath(dir_, "wal.log"));
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(
      WriteStringToFile(JoinPath(dir_, "wal.log"), *wal + "\x13garbage").ok());
  {
    auto store = KvStore::Open(dir_, opts);
    ASSERT_TRUE(store.ok());
    EXPECT_GT((*store)->recovery_stats().wal_bytes_dropped, 0u);
    EXPECT_EQ((*store)->Get("a").value(), "1");
    // Regression: these appends must not land *behind* the torn bytes,
    // where every future replay would stop short of them.
    ASSERT_TRUE((*store)->Put("b", "2").ok());
  }
  auto store = KvStore::Open(dir_, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->recovery_stats().wal_bytes_dropped, 0u);
  EXPECT_EQ((*store)->Get("a").value(), "1");
  EXPECT_EQ((*store)->Get("b").value(), "2");
}

TEST_F(KvStoreRecoveryTest, CompactionSurvivesFailedOldTableRemoval) {
  auto store = KvStore::Open(dir_, SmallMemtable());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("b", "2b").ok());
  ASSERT_TRUE((*store)->Put("c", "3").ok());
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_EQ((*store)->num_sstables(), 2u);

  // Crash window: the merged table and manifest commit, then removal
  // of the replaced tables fails.
  FaultSpec spec;
  spec.fail_nth = 0;
  spec.repeat = true;
  Faults().Arm("file.remove", spec);
  ASSERT_TRUE((*store)->CompactAll().ok());
  Faults().DisarmAll();
  EXPECT_EQ((*store)->num_sstables(), 1u);
  // The replaced tables stay on disk until a later sweep.
  EXPECT_TRUE(FileExists(JoinPath(dir_, "sst_00000000.sst")));
  EXPECT_TRUE(FileExists(JoinPath(dir_, "sst_00000001.sst")));
  // Reads already honour the committed table set.
  EXPECT_EQ((*store)->Get("a").value(), "1");
  EXPECT_EQ((*store)->Get("b").value(), "2b");
  EXPECT_EQ((*store)->Get("c").value(), "3");

  // A later compaction sweeps the leftovers.
  ASSERT_TRUE((*store)->CompactAll().ok());
  EXPECT_FALSE(FileExists(JoinPath(dir_, "sst_00000000.sst")));
  EXPECT_FALSE(FileExists(JoinPath(dir_, "sst_00000001.sst")));
  EXPECT_EQ((*store)->Get("a").value(), "1");
  EXPECT_EQ((*store)->Get("b").value(), "2b");
}

TEST_F(KvStoreRecoveryTest, StaleTablesAfterCrashAreQuarantined) {
  KvStore::Options opts = SmallMemtable();
  {
    auto store = KvStore::Open(dir_, opts);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Put("b", "2").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    ASSERT_TRUE((*store)->Put("b", "2b").ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // Compact with removal failing: process "dies" with the stale
    // pre-compaction tables still on disk.
    FaultSpec spec;
    spec.fail_nth = 0;
    spec.repeat = true;
    Faults().Arm("file.remove", spec);
    ASSERT_TRUE((*store)->CompactAll().ok());
    Faults().DisarmAll();
  }
  // Reopen: the stale tables are orphans (not in the manifest) and are
  // quarantined, never read alongside the merged table.
  auto reopened = KvStore::Open(dir_, opts);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->recovery_stats().orphans_quarantined, 2u);
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
  EXPECT_EQ((*reopened)->Get("b").value(), "2b");
}

TEST_F(KvStoreRecoveryTest, FailedManifestWriteRollsBackFlush) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("a", "1").ok());

  FaultSpec spec;
  spec.fail_nth = 2;  // table's own rename succeeds; manifest's fails,
  spec.repeat = true;  // and so does every retry's
  Faults().Arm("file.rename", spec);
  EXPECT_FALSE((*store)->Flush().ok());
  Faults().DisarmAll();
  // The flush failed before the manifest committed: memtable and WAL
  // are still the source of truth and the key still serves.
  EXPECT_EQ((*store)->num_sstables(), 0u);
  EXPECT_EQ((*store)->Get("a").value(), "1");
  // The store keeps working; a later flush succeeds.
  ASSERT_TRUE((*store)->Flush().ok());
  EXPECT_EQ((*store)->num_sstables(), 1u);
  EXPECT_EQ((*store)->Get("a").value(), "1");
}

TEST_F(KvStoreRecoveryTest, TransientOpenFaultIsRetriedNotQuarantined) {
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("a", "1").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  obs::Counter& retries = SAGA_COUNTER("resource.retry.attempts");
  const int64_t retries_before = retries.Value();
  FaultSpec spec;
  spec.fail_nth = 1;  // first open attempt fails, retry succeeds
  Faults().Arm("sst.open", spec);
  auto reopened = KvStore::Open(dir_);
  Faults().DisarmAll();
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->recovery_stats().sstables_quarantined, 0u);
  EXPECT_EQ((*reopened)->recovery_stats().sstables_loaded, 1u);
  EXPECT_GE(retries.Value() - retries_before, 1);
  EXPECT_EQ((*reopened)->Get("a").value(), "1");
}

}  // namespace
}  // namespace saga::storage
