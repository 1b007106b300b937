// End-to-end integrity tests: checksummed SSTable/embedding/WAL read
// paths (corruption surfaces as kDataLoss, never as garbage), snapshot
// create/verify/restore/repair, and the background scrubber's
// repair-or-quarantine behavior including its low-priority admission
// citizenship.
//
// On-disk corruption is injected by rewriting the victim file through
// WriteStringToFile (tmp + rename): the store directory gets a fresh
// rotted inode while a hard-linked snapshot copy keeps the original
// bytes — the same asymmetry that makes snapshot repair meaningful.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "embedding/embedding_store.h"
#include "integrity/scrubber.h"
#include "integrity/snapshot.h"
#include "serving/admission_controller.h"
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
  SSTableBuilder b{SSTableBuilder::Options{}};
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
  SSTableBuilder b{SSTableBuilder::Options{}};
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Finish(path, 64).ok());
  auto r = SSTableReader::Open(path,
                               SSTableReader::OpenOptions{
                                   ReadVerifyMode::kAlways});
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
  SSTableBuilder b{SSTableBuilder::Options{}};
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(b.Add(Key(i), "v" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(b.Finish(path, 8).ok());
  auto r = SSTableReader::Open(path,
                               SSTableReader::OpenOptions{
                                   ReadVerifyMode::kFirstRead});
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
  KvStore::Options o;
  o.read_verify = ReadVerifyMode::kAlways;
  auto store = KvStore::Open(dir_, o);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE((*store)->Put(Key(i), "val" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  auto ok = (*store)->Get(Key(3));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "val3");

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
  return embedding::EmbeddingStore::FromRows(std::move(rows)).value();
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
  auto files = ListDir(JoinPath(snaps.root(), "s1"));
  ASSERT_TRUE(files.ok());
  std::string victim;
  for (const auto& f : *files) {
    if (f.rfind(".sst") != std::string::npos) victim = f;
  }
  ASSERT_FALSE(victim.empty());
  const std::string vpath = JoinPath(JoinPath(snaps.root(), "s1"), victim);
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
  auto tables = storage::ReadManifestTables(dir_);
  ASSERT_TRUE(tables.ok());
  ASSERT_FALSE(tables->empty());
  FlipBit(JoinPath(dir_, (*tables)[0]), 100);

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

  auto tables = storage::ReadManifestTables(dir_);
  ASSERT_TRUE(tables.ok());
  ASSERT_FALSE(tables->empty());
  const std::string victim = JoinPath(dir_, (*tables)[0]);
  auto original = ReadFileToString(victim);
  ASSERT_TRUE(original.ok());

  FlipBit(victim, original->size() / 3);
  auto rotted = ReadFileToString(victim);
  ASSERT_TRUE(rotted.ok());
  ASSERT_NE(*rotted, *original);

  const int64_t before = CounterValue("integrity.corruption.repaired");
  auto used = snaps.RepairFile((*tables)[0]);
  ASSERT_TRUE(used.ok()) << used.status();
  EXPECT_EQ(*used, "s1");
  auto repaired = ReadFileToString(victim);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(*repaired, *original) << "repair must be byte-identical";
  EXPECT_GT(CounterValue("integrity.corruption.repaired"), before);

  // No snapshot holds this name -> NotFound, loudly.
  auto missing = snaps.RepairFile("sst_9999999.sst");
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Scrubber

TEST_F(IntegrityTest, ScrubberCleanPassMarksEverythingVerified) {
  BuildStore(dir_, 30, 5);
  const std::string emb = JoinPath(dir_, "embeddings.bin");
  ASSERT_TRUE(MakeEmbeddings(10).Save(emb).ok());

  Scrubber::Options o;
  o.embedding_files = {emb};
  Scrubber scrub(dir_, o);
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

  auto tables = storage::ReadManifestTables(dir_);
  ASSERT_TRUE(tables.ok());
  const std::string victim = JoinPath(dir_, (*tables)[0]);
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
  auto tables = storage::ReadManifestTables(dir_);
  ASSERT_TRUE(tables.ok());
  const std::string victim = JoinPath(dir_, (*tables)[0]);
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

TEST_F(IntegrityTest, ScrubberShedsWhenAdmissionRefusesLowPriority) {
  BuildStore(dir_, 20, 0);
  serving::AdmissionController::Options ao;
  ao.max_concurrent = 4;
  ao.low_priority_max_concurrent = 1;
  serving::AdmissionController admission(ao);
  // Occupy the only low-priority slot so the scrubber is always shed.
  RequestContext low;
  low.set_priority(Priority::kLow);
  auto ticket = admission.TryAdmit(low);
  ASSERT_TRUE(ticket.ok());

  Scrubber::Options o;
  o.admission = &admission;
  o.shed_backoff_ms = 0;
  o.max_admit_retries = 2;
  Scrubber scrub(dir_, o);
  ASSERT_TRUE(scrub.RunOnce().ok());
  auto s = scrub.stats();
  EXPECT_EQ(s.files_scanned, 0u);
  EXPECT_GT(s.sheds, 0u);
  EXPECT_GT(s.skipped_shed, 0u);

  // Load drains; the next pass scans everything.
  ticket.Release();
  ASSERT_TRUE(scrub.RunOnce().ok());
  EXPECT_GT(scrub.stats().files_scanned, 0u);
}

TEST_F(IntegrityTest, ScrubberBackgroundThreadStartsAndStops) {
  BuildStore(dir_, 10, 0);
  Scrubber::Options o;
  o.pass_interval_ms = 5;
  Scrubber scrub(dir_, o);
  scrub.Start();
  scrub.Start();  // idempotent
  for (int spin = 0; spin < 200 && scrub.stats().passes == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  scrub.Stop();
  scrub.Stop();  // idempotent
  EXPECT_GE(scrub.stats().passes, 1u);
}

// ---------------------------------------------------------------------------
// Manifest + durability plumbing

TEST_F(IntegrityTest, ReadManifestTablesMatchesLiveSet) {
  BuildStore(dir_, 20, 0);
  {
    auto store = KvStore::Open(dir_);
    ASSERT_TRUE(store.ok());
    for (int i = 20; i < 40; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "x").ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
    auto names = storage::ReadManifestTables(dir_);
    ASSERT_TRUE(names.ok());
    EXPECT_EQ(names->size(), (*store)->num_sstables());
    auto live = (*store)->LiveTablePaths();
    ASSERT_EQ(live.size(), names->size());
  }
  auto missing = storage::ReadManifestTables(JoinPath(dir_, "nope"));
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound());
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
