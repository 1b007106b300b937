// End-to-end integrity tests: checksummed SSTable/embedding/WAL read
// paths (corruption surfaces as kDataLoss, never as garbage), snapshot
// create/verify/restore/repair, and the scrubber's
// repair-or-quarantine behavior.
//
// On-disk corruption is injected by rewriting the victim file through
// WriteStringToFile (tmp + rename): the store directory gets a fresh
// rotted inode while a hard-linked snapshot copy keeps the original
// bytes — the same asymmetry that makes snapshot repair meaningful.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/rng.h"
#include "embedding/embedding_store.h"
#include "embedding_rows.h"
#include "integrity/scrubber.h"
#include "integrity/snapshot.h"
#include "storage/kv_store.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace saga::integrity {
namespace {

using storage::KvStore;
using storage::ReadVerifyMode;
using storage::SSTableBuilder;
using storage::SSTableReader;

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name).Value();
}

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04d", i);
  return buf;
}

/// Flips one bit of the file at `path` via atomic replace, so hard
/// links to the original inode (snapshots) keep the clean bytes.
void FlipBit(const std::string& path, size_t offset, int bit = 3) {
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  ASSERT_LT(offset, data->size());
  (*data)[offset] = static_cast<char>((*data)[offset] ^ (1 << bit));
  ASSERT_TRUE(WriteStringToFile(path, *data).ok());
}

/// The store's live tables, in commit order.
std::vector<std::string> LiveTables(const std::string& dir) {
  std::vector<std::string> out;
  auto files = storage::LiveFiles(dir);
  EXPECT_TRUE(files.ok()) << files.status();
  if (!files.ok()) return out;
  for (const storage::LiveFile& f : *files) {
    if (f.kind == storage::LiveFileKind::kTable) out.push_back(f.name);
  }
  return out;
}

/// Builds a store with `flushed` keys in SSTables and `unflushed` keys
/// only in the WAL, then closes it.
void BuildStore(const std::string& dir, int flushed, int unflushed,
                const std::string& tag = "v") {
  KvStore::Options o;
  o.sync_every_write = true;
  auto store = KvStore::Open(dir, o);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < flushed; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), tag + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  for (int i = flushed; i < flushed + unflushed; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), tag + std::to_string(i)).ok());
  }
}

class IntegrityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMinLogLevel(LogLevel::kError);
    auto dir = MakeTempDir("saga_integrity");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override {
    Faults().DisarmAll();
    (void)RemoveDirRecursively(dir_);
    SetMinLogLevel(LogLevel::kInfo);
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// SSTable checksummed read path

TEST_F(IntegrityTest, SSTableOpenDetectsOnDiskRot) {
  const std::string path = JoinPath(dir_, "t.sst");
  SSTableBuilder b;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Finish(path, 64).ok());
  ASSERT_TRUE(SSTableReader::Open(path).ok());

  // A single flipped bit anywhere in the file fails the footer CRC
  // (which covers every preceding byte) at open.
  FlipBit(path, 10);
  auto r = SSTableReader::Open(path);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption() || r.status().IsDataLoss())
      << r.status();
}

TEST_F(IntegrityTest, BlockCorruptionAfterOpenIsDataLossNotGarbage) {
  const std::string path = JoinPath(dir_, "t.sst");
  SSTableBuilder b;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Finish(path, 64).ok());
  auto r = SSTableReader::Open(path, ReadVerifyMode::kAlways);
  ASSERT_TRUE(r.ok());
  auto got = (*r)->GetChecked(Key(7));
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(got->has_value());
  EXPECT_EQ((*got)->value, "value7");

  // Rot the in-memory block between open and read: the checked read
  // answers kDataLoss and bumps the detection counter.
  const int64_t before = CounterValue("integrity.corruption.detected");
  ScopedFault rot("sstable.read_block", FaultSpec{FaultKind::kCorrupt});
  auto bad = (*r)->GetChecked(Key(7));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsDataLoss()) << bad.status();
  EXPECT_GT(CounterValue("integrity.corruption.detected"), before);

  // The bytes really are rotten now; later reads of the block stay
  // loud instead of "recovering" silently.
  auto again = (*r)->GetChecked(Key(7));
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsDataLoss());
}

TEST_F(IntegrityTest, FirstReadModeMemoizesVerification) {
  const std::string path = JoinPath(dir_, "t.sst");
  SSTableBuilder b;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Finish(path, 8).ok());
  auto r = SSTableReader::Open(path, ReadVerifyMode::kFirstRead);
  ASSERT_TRUE(r.ok());
  // First read verifies (and memoizes) the block.
  ASSERT_TRUE((*r)->GetChecked(Key(1)).ok());
  // With the memo set, the verify path (and its fault point) is not
  // consulted again — the repeat-armed corruption never fires.
  const uint64_t fires_before = Faults().fires("sstable.read_block");
  ScopedFault rot("sstable.read_block",
                  FaultSpec{FaultKind::kCorrupt, /*fail_nth=*/0,
                            /*probability=*/1.0, /*keep_fraction=*/0.5,
                            /*delay_ms=*/0.0, /*repeat=*/true});
  auto again = (*r)->GetChecked(Key(1));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((*again)->value, "v1");
  EXPECT_EQ(Faults().fires("sstable.read_block"), fires_before);
}

TEST_F(IntegrityTest, KvStoreGetSurfacesDataLoss) {
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());

  // The first read of the block verifies it, and the rot lands there.
  ScopedFault rot("sstable.read_block", FaultSpec{FaultKind::kCorrupt});
  auto bad = (*store)->Get(Key(3));
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsDataLoss()) << bad.status();
}

// ---------------------------------------------------------------------------
// WAL replay fault point

TEST_F(IntegrityTest, WalReplayCorruptionStopsCleanlyAtPrefix) {
  const std::string path = JoinPath(dir_, "wal.log");
  std::vector<std::string> written;
  {
    storage::WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    for (int i = 0; i < 6; ++i) {
      written.push_back("record-" + std::to_string(i));
      ASSERT_TRUE(wal.Append(written.back()).ok());
    }
    ASSERT_TRUE(wal.Sync().ok());
  }
  Faults().Seed(2024);
  ScopedFault rot("wal.replay", FaultSpec{FaultKind::kCorrupt});
  auto r = storage::ReadWalRecordsDetailed(path);
  ASSERT_TRUE(r.ok());
  // A flipped bit breaks some record's CRC: replay keeps the clean
  // prefix, reports the damage, and never yields a garbage record.
  EXPECT_FALSE(r->clean);
  ASSERT_LE(r->records.size(), written.size());
  for (size_t i = 0; i < r->records.size(); ++i) {
    EXPECT_EQ(r->records[i], written[i]);
  }
}

// ---------------------------------------------------------------------------
// Embedding shard checksums

embedding::EmbeddingStore MakeEmbeddings(int n, int dim = 8) {
  std::vector<std::pair<kg::EntityId, std::vector<float>>> rows;
  for (int i = 0; i < n; ++i) {
    std::vector<float> v(dim);
    for (int d = 0; d < dim; ++d) v[d] = static_cast<float>(i * dim + d);
    rows.emplace_back(kg::EntityId{static_cast<uint64_t>(i + 1)},
                      std::move(v));
  }
  return embedding::test_shard::StoreFromRows(std::move(rows)).value();
}

TEST_F(IntegrityTest, EmbeddingSaveLoadVerifyRoundTrip) {
  const std::string path = JoinPath(dir_, "emb.bin");
  auto store = MakeEmbeddings(20);
  ASSERT_TRUE(store.Save(path).ok());
  ASSERT_TRUE(embedding::EmbeddingStore::Verify(path).ok());
  auto loaded = embedding::EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 20u);
  EXPECT_EQ(loaded->dim(), 8);
  const std::span<const float> v = loaded->Get(kg::EntityId{3});
  ASSERT_FALSE(v.empty());
  EXPECT_FLOAT_EQ(v[0], 2 * 8);
}

TEST_F(IntegrityTest, EmbeddingRotIsDataLoss) {
  const std::string path = JoinPath(dir_, "emb.bin");
  ASSERT_TRUE(MakeEmbeddings(20).Save(path).ok());
  const int64_t before = CounterValue("integrity.corruption.detected");
  FlipBit(path, 40);  // payload byte, magic untouched
  Status v = embedding::EmbeddingStore::Verify(path);
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.IsDataLoss()) << v;
  auto loaded = embedding::EmbeddingStore::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsDataLoss()) << loaded.status();
  EXPECT_GT(CounterValue("integrity.corruption.detected"), before);
}

TEST_F(IntegrityTest, EmbeddingLoadFaultPointFires) {
  const std::string path = JoinPath(dir_, "emb.bin");
  ASSERT_TRUE(MakeEmbeddings(50).Save(path).ok());
  Faults().Seed(7);
  ScopedFault rot("embedding.load", FaultSpec{FaultKind::kCorrupt});
  auto loaded = embedding::EmbeddingStore::Load(path);
  // Wherever the flipped bit lands (payload or CRC -> kDataLoss,
  // magic -> Corruption), the load must fail loudly.
  ASSERT_FALSE(loaded.ok());
}

TEST_F(IntegrityTest, EmbeddingMagicBitFlipsAreRejected) {
  const std::string path = JoinPath(dir_, "emb.bin");
  // At 50 vectors of dim 16, a file with bit 14 flipped also parses as
  // 13 vectors of dim 69 when the magic is not required.
  ASSERT_TRUE(MakeEmbeddings(50, /*dim=*/16).Save(path).ok());
  auto clean = ReadFileToString(path);
  ASSERT_TRUE(clean.ok());
  for (int bit = 0; bit < 32; ++bit) {
    std::string bytes = *clean;
    bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
    ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
    const Status verified = embedding::EmbeddingStore::Verify(path);
    EXPECT_TRUE(verified.IsCorruption()) << "bit " << bit << ": " << verified;
    auto loaded = embedding::EmbeddingStore::Load(path);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "bit " << bit << ": " << loaded.status();
  }
}

// ---------------------------------------------------------------------------
// Snapshots

TEST_F(IntegrityTest, SnapshotCreateListVerifyInfo) {
  BuildStore(dir_, 50, 0);
  SnapshotManager snaps(dir_);
  auto info = snaps.Create("s1");
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->num_files, 2u);  // at least one table + MANIFEST

  auto names = snaps.List();
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 1u);
  EXPECT_EQ((*names)[0], "s1");

  ASSERT_TRUE(snaps.Verify("s1").ok());
  auto again = snaps.Info("s1");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->num_files, info->num_files);

  // Names are path components, not paths.
  EXPECT_FALSE(snaps.Create("../evil").ok());
  EXPECT_FALSE(snaps.Create(".hidden").ok());
  // Duplicate names are refused, not clobbered.
  auto dup = snaps.Create("s1");
  ASSERT_FALSE(dup.ok());
  EXPECT_TRUE(dup.status().IsAlreadyExists()) << dup.status();
}

TEST_F(IntegrityTest, SnapshotVerifyCatchesMemberRot) {
  BuildStore(dir_, 50, 0);
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("s1").ok());
  // Rot a file inside the snapshot directory itself (direct write, not
  // atomic replace — we want the snapshot's own inode damaged here).
  // The default snapshot root is <store_dir>/snapshots.
  const std::string snap_dir = JoinPath(JoinPath(dir_, "snapshots"), "s1");
  auto files = ListDir(snap_dir);
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.rfind(".sst") != std::string::npos) victim = f;
  }
  ASSERT_FALSE(victim.empty());
  const std::string vpath = JoinPath(snap_dir, victim);
  auto data = ReadFileToString(vpath);
  ASSERT_TRUE(data.ok());
  (*data)[data->size() / 2] ^= 0x10;
  // Replacing the snapshot member rewrites that inode's content from
  // the snapshot's point of view.
  ASSERT_TRUE(WriteStringToFile(vpath, *data).ok());
  Status v = snaps.Verify("s1");
  ASSERT_FALSE(v.ok());
  EXPECT_TRUE(v.IsDataLoss()) << v;
}

TEST_F(IntegrityTest, SnapshotRestoreBringsBackExactState) {
  BuildStore(dir_, 40, 0, "orig");
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("base").ok());

  // The store moves on: more keys, another table.
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    for (int i = 40; i < 60; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "later" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // ... and then one of its live tables rots.
  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_FALSE(tables.empty());
  FlipBit(JoinPath(dir_, tables[0]), 100);

  ASSERT_TRUE(snaps.Restore("base").ok());
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE((*store)->recovery_stats().sstables_quarantined > 0)
      << "restored table should be clean";
  for (int i = 0; i < 40; ++i) {
    auto got = (*store)->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i) << ": " << got.status();
    EXPECT_EQ(*got, "orig" + std::to_string(i));
  }
  // Post-snapshot keys are gone — that is what restore means.
  EXPECT_TRUE((*store)->Get(Key(50)).status().IsNotFound());
}

TEST_F(IntegrityTest, RepairFileRestoresByteIdenticalCopy) {
  BuildStore(dir_, 50, 0);
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("s1").ok());

  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_FALSE(tables.empty());
  const std::string victim = JoinPath(dir_, tables[0]);
  auto original = ReadFileToString(victim);
  ASSERT_TRUE(original.ok());

  FlipBit(victim, original->size() / 3);
  auto rotted = ReadFileToString(victim);
  ASSERT_TRUE(rotted.ok());
  ASSERT_NE(*rotted, *original);

  auto table_ok = [](const std::string& path) {
    return storage::VerifyLiveFile(path, storage::LiveFileKind::kTable);
  };
  const int64_t before = CounterValue("integrity.corruption.repaired");
  auto used = snaps.RepairFile(tables[0], table_ok);
  ASSERT_TRUE(used.ok()) << used.status();
  EXPECT_EQ(*used, "s1");
  auto repaired = ReadFileToString(victim);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, *original) << "repair must be byte-identical";
  EXPECT_GT(CounterValue("integrity.corruption.repaired"), before);

  // No snapshot holds this name -> NotFound, loudly.
  auto missing = snaps.RepairFile("sst_9999999.sst", table_ok);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST_F(IntegrityTest, RepairCopyLeftByACrashIsSweptOnOpen) {
  BuildStore(dir_, 50, 0);
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("s1").ok());
  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_FALSE(tables.empty());
  FlipBit(JoinPath(dir_, tables[0]), 100);

  std::string staged;
  auto record_and_check = [&staged](const std::string& path) {
    staged = path;
    return storage::VerifyLiveFile(path, storage::LiveFileKind::kTable);
  };
  ASSERT_TRUE(snaps.RepairFile(tables[0], record_and_check).ok());
  ASSERT_FALSE(staged.empty());
  // A crash between staging and the rename leaves the copy behind.
  ASSERT_TRUE(WriteStringToFile(staged, "staged copy").ok());

  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->recovery_stats().tmp_files_removed, 1u);
  EXPECT_FALSE(FileExists(staged)) << staged << " survived the reopen";
}

// ---------------------------------------------------------------------------
// Scrubber

TEST_F(IntegrityTest, ScrubberCleanPassMarksEverythingVerified) {
  BuildStore(dir_, 30, 5);
  // The scrubber finds the version's shard by its file name.
  const std::string emb =
      JoinPath(dir_, embedding::EmbeddingStore::kShardFileName);
  ASSERT_TRUE(MakeEmbeddings(10).Save(emb).ok());

  Scrubber scrub(dir_, Scrubber::Options{});
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.passes, 1u);
  EXPECT_GE(s.files_scanned, 3u);  // table + wal + embeddings
  EXPECT_GT(s.bytes_scanned, 0u);
  EXPECT_EQ(s.corrupt_found, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_TRUE(s.last_verified_unix_ms.count("wal.log"));
  EXPECT_TRUE(s.last_verified_unix_ms.count("embeddings.bin"));
}

TEST_F(IntegrityTest, ScrubberRepairsRottedTableFromSnapshot) {
  BuildStore(dir_, 40, 0, "keep");
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("good").ok());

  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_FALSE(tables.empty());
  const std::string victim = JoinPath(dir_, tables[0]);
  auto original = ReadFileToString(victim);
  ASSERT_TRUE(original.ok());
  FlipBit(victim, original->size() / 2);

  Scrubber::Options o;
  o.snapshots = &snaps;
  Scrubber scrub(dir_, o);
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.corrupt_found, 1u);
  EXPECT_EQ(s.repaired, 1u);
  EXPECT_EQ(s.quarantined, 0u);

  auto repaired = ReadFileToString(victim);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, *original);

  // A second pass over the healed store is clean.
  ASSERT_TRUE(scrub.RunOnce().ok());
  EXPECT_EQ(scrub.stats().corrupt_found, 1u);

  // And the store serves every key again.
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 40; ++i) {
    auto got = (*store)->Get(Key(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "keep" + std::to_string(i));
  }
}

TEST_F(IntegrityTest, ScrubberQuarantinesWithoutSnapshot) {
  BuildStore(dir_, 40, 0);
  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_FALSE(tables.empty());
  const std::string victim = JoinPath(dir_, tables[0]);
  FlipBit(victim, 64);

  const int64_t before = CounterValue("integrity.corruption.quarantined");
  Scrubber scrub(dir_, Scrubber::Options{});
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.corrupt_found, 1u);
  EXPECT_EQ(s.repaired, 0u);
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_GT(CounterValue("integrity.corruption.quarantined"), before);
  EXPECT_FALSE(FileExists(victim));
  EXPECT_TRUE(FileExists(victim + ".quarantined"));

  // The store opens loudly-degraded, not wrong: the table is reported
  // missing and its keys answer NotFound.
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_GE((*store)->recovery_stats().missing_tables, 1u);
  EXPECT_TRUE((*store)->Get(Key(0)).status().IsNotFound());
}

TEST_F(IntegrityTest, ScrubberReportsWalDamageButNeverRewritesWal) {
  BuildStore(dir_, 10, 8);  // 8 acked writes live only in the WAL
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("s").ok());
  const std::string wal = JoinPath(dir_, "wal.log");
  auto rotted_size = FileSize(wal);
  ASSERT_TRUE(rotted_size.ok());
  FlipBit(wal, *rotted_size - 3);  // damage the tail
  auto rotted = ReadFileToString(wal);
  ASSERT_TRUE(rotted.ok());

  Scrubber::Options o;
  o.snapshots = &snaps;
  Scrubber scrub(dir_, o);
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.corrupt_found, 1u);
  // Replacing the WAL from a snapshot could resurrect or drop acked
  // writes; damage is reported and left for replay to truncate.
  EXPECT_EQ(s.repaired, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  auto after = ReadFileToString(wal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *rotted) << "scrubber must not touch the WAL";

  // Recovery handles the tail as usual: prefix replayed, no garbage.
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 10; i < 18; ++i) {
    auto got = (*store)->Get(Key(i));
    if (got.ok()) {
      EXPECT_EQ(*got, "v" + std::to_string(i));
    } else {
      EXPECT_TRUE(got.status().IsNotFound()) << got.status();
    }
  }
}

// ---------------------------------------------------------------------------
// The store's directory layout: every file with committed state is
// snapshotted, restored and scrubbed by its kind.

/// A WAL store whose 1 KB memtable seals into a WAL segment every few
/// writes.
KvStore::Options SmallMemtable() {
  KvStore::Options o;
  o.memtable_max_bytes = 1024;
  o.sync_every_write = true;
  return o;
}

/// With every flush failing, writes keys from `first` on until a Put
/// fails: the full memtable was sealed into a WAL segment and its flush
/// failed, so the acked writes live only in that segment. Returns them.
std::map<std::string, std::string> FillUntilFlushFails(KvStore* store,
                                                       int first) {
  FaultSpec spec;
  spec.repeat = true;
  ScopedFault fail_flush("sstable.flush", spec);
  std::map<std::string, std::string> acked;
  for (int i = first; i < first + 1000; ++i) {
    const std::string value = "sealed" + std::to_string(i);
    if (!store->Put(Key(i), value).ok()) break;
    acked[Key(i)] = value;
  }
  return acked;
}

TEST_F(IntegrityTest, ScrubberRepairsRottedManifestFromSnapshot) {
  BuildStore(dir_, 40, 5, "m");
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("good").ok());
  const std::string manifest = JoinPath(dir_, "MANIFEST");
  auto original = ReadFileToString(manifest);
  ASSERT_TRUE(original.ok());
  FlipBit(manifest, 20);  // inside the first table name

  Scrubber::Options o;
  o.snapshots = &snaps;
  Scrubber scrub(dir_, o);
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.corrupt_found, 1u);
  EXPECT_EQ(s.repaired, 1u);
  EXPECT_EQ(s.quarantined, 0u);
  auto repaired = ReadFileToString(manifest);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, *original);

  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->recovery_stats().manifest_found);
  for (int i = 0; i < 45; ++i) {
    auto got = (*store)->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i) << ": " << got.status();
    EXPECT_EQ(*got, "m" + std::to_string(i));
  }
}

TEST_F(IntegrityTest, ScrubberRefusesAStaleManifestCopy) {
  BuildStore(dir_, 20, 0);
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("old").ok());
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(Key(20), "later").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::string manifest = JoinPath(dir_, "MANIFEST");
  FlipBit(manifest, 20);
  auto rotted = ReadFileToString(manifest);
  ASSERT_TRUE(rotted.ok());

  // The snapshot's MANIFEST leaves out the newer table, which the next
  // open would quarantine as an orphan: quarantine the MANIFEST instead
  // and let recovery scan the directory.
  Scrubber::Options o;
  o.snapshots = &snaps;
  Scrubber scrub(dir_, o);
  ASSERT_TRUE(scrub.RunOnce().ok());
  EXPECT_EQ(scrub.stats().repaired, 0u);
  EXPECT_EQ(scrub.stats().quarantined, 1u);
  // The quarantine holds the store's own bytes, not the stale copy.
  EXPECT_EQ(ReadFileToString(manifest + ".quarantined").value_or(""),
            *rotted);
  // RepairFile removes its staged copy (and WriteStringToFile's own
  // temp file) itself, before any reopen could sweep them.
  EXPECT_FALSE(FileExists(manifest + ".repair.tmp"));
  EXPECT_FALSE(FileExists(manifest + ".repair.tmp.tmp"));
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 20; ++i) EXPECT_TRUE((*store)->Get(Key(i)).ok());
  EXPECT_EQ((*store)->Get(Key(20)).value(), "later");
}

TEST_F(IntegrityTest, ScrubberNeverPutsAStaleManifestInPlace) {
  BuildStore(dir_, 20, 0);
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("old").ok());
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(Key(20), "later").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  const std::string manifest = JoinPath(dir_, "MANIFEST");
  FlipBit(manifest, 20);
  auto rotted = ReadFileToString(manifest);
  ASSERT_TRUE(rotted.ok());

  Scrubber::Options o;
  o.snapshots = &snaps;
  Scrubber scrub(dir_, o);
  {
    // The first rename stages the snapshot's copy; every later one
    // fails, the quarantine's included, as if the pass crashed first.
    FaultSpec spec;
    spec.fail_nth = 2;
    spec.repeat = true;
    ScopedFault fail_rename("file.rename", spec);
    ASSERT_TRUE(scrub.RunOnce().ok());
  }
  EXPECT_EQ(scrub.stats().repaired, 0u);
  EXPECT_EQ(scrub.stats().quarantined, 0u);
  EXPECT_EQ(ReadFileToString(manifest).value_or(""), *rotted);
  // RepairFile removes its staged copy (and WriteStringToFile's own
  // temp file) itself, before any reopen could sweep them.
  EXPECT_FALSE(FileExists(manifest + ".repair.tmp"));
  EXPECT_FALSE(FileExists(manifest + ".repair.tmp.tmp"));

  // The rotted MANIFEST does not decode, so recovery scans the
  // directory and keeps the post-snapshot table.
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->recovery_stats().orphans_quarantined, 0u);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE((*store)->Get(Key(i)).ok());
  EXPECT_EQ((*store)->Get(Key(20)).value_or(""), "later");
}

TEST_F(IntegrityTest, ScrubberKeepsAManifestBesideAnOrphanTable) {
  BuildStore(dir_, 20, 0);
  const std::string manifest = JoinPath(dir_, "MANIFEST");
  auto original = ReadFileToString(manifest);
  ASSERT_TRUE(original.ok());
  // A table renamed into place by a flush that crashed before its
  // MANIFEST write.
  const std::vector<std::string> tables = LiveTables(dir_);
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_TRUE(CopyFile(JoinPath(dir_, tables[0]),
                       JoinPath(dir_, "sst_00000007.sst"), false)
                  .ok());

  Scrubber scrub(dir_, Scrubber::Options{});
  ASSERT_TRUE(scrub.RunOnce().ok());
  EXPECT_EQ(scrub.stats().corrupt_found, 0u);
  EXPECT_EQ(scrub.stats().quarantined, 0u);
  EXPECT_EQ(ReadFileToString(manifest).value_or(""), *original);

  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->recovery_stats().manifest_found);
  EXPECT_EQ((*store)->recovery_stats().orphans_quarantined, 1u);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE((*store)->Get(Key(i)).ok());
}

TEST_F(IntegrityTest, RestoreKeepsAckedWritesInSealedSegments) {
  SnapshotManager snaps(dir_);
  std::map<std::string, std::string> acked;
  {
    auto store = KvStore::Open(dir_, SmallMemtable());
    ASSERT_TRUE(store.ok());
    acked = FillUntilFlushFails(store->get(), 0);
    ASSERT_FALSE(acked.empty());
    ASSERT_TRUE(snaps.Create("sealed").ok());
    // The store flushes on and deletes the segment it snapshotted.
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE(snaps.Restore("sealed").ok());
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (const auto& [key, value] : acked) {
    auto got = (*store)->Get(key);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status();
    EXPECT_EQ(*got, value);
  }
}

TEST_F(IntegrityTest, RestoreDropsPostSnapshotSealedSegments) {
  BuildStore(dir_, 40, 0, "base");
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("clean").ok());
  std::map<std::string, std::string> later;
  {
    auto store = KvStore::Open(dir_, SmallMemtable());
    ASSERT_TRUE(store.ok());
    later = FillUntilFlushFails(store->get(), 100);
    ASSERT_FALSE(later.empty());
  }
  ASSERT_TRUE(snaps.Restore("clean").ok());
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ((*store)->Get(Key(i)).value(), "base" + std::to_string(i));
  }
  // Every post-snapshot write, the unacked one that sealed included.
  for (int i = 100; i <= 100 + static_cast<int>(later.size()); ++i) {
    EXPECT_TRUE((*store)->Get(Key(i)).status().IsNotFound()) << Key(i);
  }
}

TEST_F(IntegrityTest, SnapshotOfATornWalRestoresEveryAckedWrite) {
  BuildStore(dir_, 10, 8, "t");  // 8 acked writes live only in the WAL
  // The store crashed mid-append: a record header's first bytes follow
  // the last acked record, and the store has not been reopened.
  const std::string wal = JoinPath(dir_, "wal.log");
  auto bytes = ReadFileToString(wal);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(WriteStringToFile(wal, *bytes + std::string("\x5a\x01\x02", 3))
                  .ok());
  ASSERT_FALSE(storage::VerifyLiveFile(wal, storage::LiveFileKind::kWal).ok());

  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("torn").ok());
  ASSERT_TRUE(snaps.Verify("torn").ok());
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 18; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "after").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  ASSERT_TRUE(snaps.Restore("torn").ok());
  auto store = KvStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 18; ++i) {
    auto got = (*store)->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i) << ": " << got.status();
    EXPECT_EQ(*got, "t" + std::to_string(i));
  }
}

TEST_F(IntegrityTest, WritersKeepTheirBytes) {
  // Golden bytes from the writers as they were before the frames moved
  // to common/checksum.h.
  {
    KvStore::Options o;
    o.sync_every_write = true;
    auto store = KvStore::Open(dir_, o);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    for (int i = 10; i < 13; ++i) {
      ASSERT_TRUE(
          (*store)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
  }
  EXPECT_EQ(ReadFileToString(JoinPath(dir_, "MANIFEST")).value(),
            "saga-manifest-v1\nsst_00000000.sst\ncrc:3332838230\n");
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("g").ok());
  EXPECT_EQ(ReadFileToString(JoinPath(JoinPath(dir_, "snapshots/g"),
                                      "SNAPMANIFEST"))
                .value(),
            "saga-snapshot-v1\n"
            "sst_00000000.sst 157 927033334\n"
            "MANIFEST 49 2354014739\n"
            "wal.log 51 947288586\n"
            "crc:1060119524\n");

  auto emb = embedding::test_shard::StoreFromRows(
      {{kg::EntityId{7}, {1.5f, -2.0f}}, {kg::EntityId{3}, {0.25f, 4.0f}}});
  ASSERT_TRUE(emb.ok());
  const std::string path = JoinPath(dir_, "e.bin");
  ASSERT_TRUE(emb->Save(path).ok());
  const std::string emb2 = ReadFileToString(path).value();
  std::string hex;
  for (unsigned char c : emb2) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", c);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "454d4232020203020000803e0000804007020000c03f000000c0d5d0d117");
}

// ---------------------------------------------------------------------------
// Manifest decoder mutation harness

/// `clean` with one seeded mutation: a bit flip, a truncation, a line
/// spliced over another or duplicated, or a digit turned into a
/// non-digit.
std::string Mutate(const std::string& clean, Rng& rng) {
  std::string m = clean;
  std::vector<std::string> lines;
  for (size_t start = 0; start < m.size();) {
    const size_t end = m.find('\n', start);
    lines.push_back(m.substr(start, end + 1 - start));
    start = end + 1;
  }
  auto join = [&lines] {
    std::string out;
    for (const std::string& l : lines) out += l;
    return out;
  };
  switch (rng.Uniform(5)) {
    case 0: {
      const size_t pos = rng.Uniform(m.size());
      m[pos] = static_cast<char>(m[pos] ^ (1 << rng.Uniform(8)));
      return m;
    }
    case 1:
      return m.substr(0, rng.Uniform(m.size()));
    case 2:
      lines[rng.Uniform(lines.size())] = lines[rng.Uniform(lines.size())];
      return join();
    case 3: {
      const size_t i = rng.Uniform(lines.size());
      lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
      return join();
    }
    default: {
      std::vector<size_t> digits;
      for (size_t i = 0; i < m.size(); ++i) {
        if (m[i] >= '0' && m[i] <= '9') digits.push_back(i);
      }
      static constexpr char kNonDigits[] = {'a', ' ', '-', '+', 'x', '\0',
                                            '\n'};
      m[digits[rng.Uniform(digits.size())]] =
          kNonDigits[rng.Uniform(sizeof(kNonDigits))];
      return m;
    }
  }
}

/// Recomputes the CRC trailer of a mutated frame so that the mutation
/// reaches the checks behind the CRC.
std::string Reseal(std::string m) {
  const size_t cut = m.rfind("crc:");
  if (cut != std::string::npos && (cut == 0 || m[cut - 1] == '\n')) {
    m.resize(cut);
  }
  return m + "crc:" + std::to_string(Crc32(m)) + "\n";
}

// Every mutated MANIFEST and SNAPMANIFEST decodes to a Status or to
// entries that encode back to exactly the input: never a partly parsed
// list, never a lenient reading.
TEST_F(IntegrityTest, ManifestDecodersAreTotalUnderMutation) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  const uint64_t seed =
      env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 2551;
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(seed));
  std::printf("manifest mutation harness: SAGA_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  BuildStore(dir_, 30, 5);
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put(Key(99), "x").ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  SnapshotManager snaps(dir_);
  ASSERT_TRUE(snaps.Create("s").ok());
  const std::string manifest =
      ReadFileToString(JoinPath(dir_, "MANIFEST")).value();
  const std::string snap_manifest =
      ReadFileToString(JoinPath(dir_, "snapshots/s/SNAPMANIFEST")).value();
  ASSERT_EQ(storage::DecodeManifest(manifest).value().size(), 2u);
  ASSERT_EQ(DecodeSnapshotManifest(snap_manifest).value().size(), 4u);

  constexpr int kMutations = 10000;
  int rejected = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string m = Mutate(manifest, rng);
    if (i % 2 == 1) m = Reseal(std::move(m));
    auto tables = storage::DecodeManifest(m);
    if (!tables.ok()) {
      EXPECT_TRUE(tables.status().IsCorruption()) << tables.status();
      ++rejected;
      continue;
    }
    ASSERT_EQ(EncodeTextFrame("saga-manifest-v1", *tables), m);
  }
  for (int i = 0; i < kMutations; ++i) {
    std::string m = Mutate(snap_manifest, rng);
    if (i % 2 == 1) m = Reseal(std::move(m));
    auto entries = DecodeSnapshotManifest(m);
    if (!entries.ok()) {
      EXPECT_TRUE(entries.status().IsCorruption()) << entries.status();
      ++rejected;
      continue;
    }
    std::vector<std::string> lines;
    for (const SnapshotEntry& e : *entries) {
      lines.push_back(e.file + " " + std::to_string(e.digest.size) + " " +
                      std::to_string(e.digest.crc));
    }
    ASSERT_EQ(EncodeTextFrame("saga-snapshot-v1", lines), m);
  }
  // Most mutations break a frame; the few accepted ones re-encode.
  EXPECT_GT(rejected, kMutations);
}

// ---------------------------------------------------------------------------
// Manifest + durability plumbing

TEST_F(IntegrityTest, LiveFilesMatchesLiveSet) {
  BuildStore(dir_, 20, 0);
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    for (int i = 20; i < 40; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "x").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ(LiveTables(dir_).size(), (*store)->num_sstables());
  }
  auto files = storage::LiveFiles(dir_);
  ASSERT_TRUE(files.ok());
  std::vector<std::string> names;
  for (const storage::LiveFile& f : *files) {
    EXPECT_TRUE(storage::VerifyLiveFile(JoinPath(dir_, f.name), f.kind).ok())
        << f.name;
    names.push_back(f.name);
  }
  // Tables in commit order, then the MANIFEST, then the active WAL.
  EXPECT_EQ(names, (std::vector<std::string>{"sst_00000000.sst",
                                             "sst_00000001.sst", "MANIFEST",
                                             "wal.log"}));
  EXPECT_FALSE(storage::LiveFiles(JoinPath(dir_, "nope")).ok());
}

TEST_F(IntegrityTest, DirsyncFaultFailsDurableCommit) {
  const std::string path = JoinPath(dir_, "f.txt");
  {
    ScopedFault f("file.dirsync", FaultSpec{FaultKind::kFail});
    Status s = WriteStringToFile(path, "hello", /*durable=*/true);
    ASSERT_FALSE(s.ok());
    EXPECT_TRUE(s.IsIOError()) << s;
  }
  ASSERT_TRUE(WriteStringToFile(path, "hello", /*durable=*/true).ok());

  const std::string moved = JoinPath(dir_, "g.txt");
  {
    ScopedFault f("file.dirsync", FaultSpec{FaultKind::kFail});
    EXPECT_FALSE(RenameFileDurable(path, moved).ok());
  }
}

}  // namespace
}  // namespace saga::integrity
