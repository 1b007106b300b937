#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/file_util.h"
#include "common/rng.h"
#include "storage/bloom.h"
#include "storage/memtable.h"
#include "storage/sstable.h"
#include "storage/wal.h"

namespace saga::storage {
namespace {

// ---------- Bloom ----------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key" + std::to_string(i));
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(bloom.MayContain("key" + std::to_string(i)));
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilter bloom(1000, 10);
  for (int i = 0; i < 1000; ++i) {
    bloom.Add("key" + std::to_string(i));
  }
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MayContain("absent" + std::to_string(i))) ++false_positives;
  }
  // 10 bits/key -> ~1%; allow generous slack.
  EXPECT_LT(false_positives, 400);
}

TEST(BloomTest, SerializationPreservesBehaviour) {
  BloomFilter bloom(100, 10);
  for (int i = 0; i < 100; ++i) bloom.Add("k" + std::to_string(i));
  BloomFilter restored = BloomFilter::FromBytes(bloom.Serialize());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(restored.MayContain("k" + std::to_string(i)));
  }
  int fp = 0;
  for (int i = 0; i < 1000; ++i) {
    if (restored.MayContain("x" + std::to_string(i))) ++fp;
  }
  EXPECT_LT(fp, 100);
}

TEST(BloomTest, EmptyBytesYieldPermissiveFilter) {
  BloomFilter f = BloomFilter::FromBytes("");
  EXPECT_FALSE(f.MayContain("anything"));  // all-zero bits: nothing added
}

// ---------- WAL ----------

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("saga_wal_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }
  std::string dir_;
};

TEST_F(WalTest, Crc32KnownVector) {
  // Standard IEEE CRC-32 of "123456789".
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST_F(WalTest, AppendAndReplay) {
  const std::string path = JoinPath(dir_, "wal.log");
  {
    WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.Append("record one").ok());
    ASSERT_TRUE(wal.Append("").ok());
    ASSERT_TRUE(wal.Append("record three").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto read = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(read.ok());
  const std::vector<std::string>& records = read->records;
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], "record one");
  EXPECT_EQ(records[1], "");
  EXPECT_EQ(records[2], "record three");
}

TEST_F(WalTest, MissingFileMeansEmpty) {
  auto read = ReadWalRecordsDetailed(JoinPath(dir_, "absent.log"));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
}

TEST_F(WalTest, TornTailIsDropped) {
  const std::string path = JoinPath(dir_, "torn.log");
  {
    WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.Append("good").ok());
    ASSERT_TRUE(wal.Append("will be torn").ok());
  }
  // Truncate mid-record.
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, content->substr(0, content->size() - 5)).ok());
  auto read = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(read.ok());
  const std::vector<std::string>& records = read->records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "good");
}

TEST_F(WalTest, CorruptPayloadStopsReplay) {
  const std::string path = JoinPath(dir_, "corrupt.log");
  {
    WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.Append("first").ok());
    ASSERT_TRUE(wal.Append("second").ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = *content;
  bytes[bytes.size() - 2] ^= 0x5A;  // flip a bit inside "second"
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  auto read = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(read.ok());
  const std::vector<std::string>& records = read->records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "first");
}

TEST_F(WalTest, DetailedReadReportsDroppedBytes) {
  const std::string path = JoinPath(dir_, "detail.log");
  {
    WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    ASSERT_TRUE(wal.Append("one").ok());
    ASSERT_TRUE(wal.Append("two").ok());
    ASSERT_TRUE(wal.Sync().ok());
  }
  auto clean = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->records.size(), 2u);
  EXPECT_TRUE(clean->clean);
  EXPECT_EQ(clean->bytes_dropped, 0u);

  ASSERT_TRUE(AppendToFile(path, "torn!").ok());
  auto torn = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 2u);
  EXPECT_FALSE(torn->clean);
  EXPECT_EQ(torn->bytes_dropped, 5u);
}

TEST_F(WalTest, SyncedRecordsSurviveWithoutDestructorFlush) {
  const std::string path = JoinPath(dir_, "sync.log");
  auto* wal = new WalWriter(path);
  ASSERT_TRUE(wal->Open().ok());
  ASSERT_TRUE(wal->Append("durable").ok());
  ASSERT_TRUE(wal->Sync().ok());
  // After Sync the record must be on disk even though the writer is
  // still open (nothing pending in the userspace buffer).
  auto read = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(read.ok());
  const std::vector<std::string>& records = read->records;
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], "durable");
  delete wal;
}

TEST_F(WalTest, ResetTruncates) {
  const std::string path = JoinPath(dir_, "reset.log");
  WalWriter wal(path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append("data").ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.bytes_written(), 0u);
  auto read = ReadWalRecordsDetailed(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  // Still usable after reset.
  ASSERT_TRUE(wal.Append("fresh").ok());
}

TEST_F(WalTest, SequencedRecordsRoundTripAndFilterBySeq) {
  const std::string path = JoinPath(dir_, "seq.log");
  WalWriter wal(path);
  ASSERT_TRUE(wal.Open().ok());
  for (uint64_t s = 1; s <= 5; ++s) {
    SequencedRecord rec{s, /*epoch=*/7, "payload" + std::to_string(s)};
    ASSERT_TRUE(wal.Append(EncodeSequencedRecord(rec)).ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  // ReadFrom(seq) is the replication catch-up path: a follower asks
  // for everything at or past its own log end.
  auto tail = ReadWalRecordsFrom(path, 4);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 2u);
  EXPECT_EQ((*tail)[0].seq, 4u);
  EXPECT_EQ((*tail)[0].epoch, 7u);
  EXPECT_EQ((*tail)[0].payload, "payload4");
  EXPECT_EQ((*tail)[1].seq, 5u);
  // min_seq 0/1 returns everything; past-the-end returns empty.
  auto all = ReadWalRecordsFrom(path, 0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 5u);
  auto none = ReadWalRecordsFrom(path, 6);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
}

TEST_F(WalTest, SequencedResetStartsCleanWindow) {
  // The replicated log rewrites its WAL through Reset() on truncation
  // and compaction; the rewritten file must replay as exactly the new
  // window, with bytes_written restarting from zero.
  const std::string path = JoinPath(dir_, "seq_reset.log");
  WalWriter wal(path);
  ASSERT_TRUE(wal.Open().ok());
  for (uint64_t s = 1; s <= 4; ++s) {
    ASSERT_TRUE(
        wal.Append(EncodeSequencedRecord({s, 1, "old" + std::to_string(s)}))
            .ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.bytes_written(), 0u);
  for (uint64_t s = 3; s <= 4; ++s) {
    ASSERT_TRUE(
        wal.Append(EncodeSequencedRecord({s, 2, "new" + std::to_string(s)}))
            .ok());
  }
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_GT(wal.bytes_written(), 0u);
  auto records = ReadWalRecordsFrom(path, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].seq, 3u);
  EXPECT_EQ((*records)[0].epoch, 2u);
  EXPECT_EQ((*records)[0].payload, "new3");
}

TEST_F(WalTest, SequencedReadStopsAtUndecodablePayload) {
  const std::string path = JoinPath(dir_, "seq_damage.log");
  WalWriter wal(path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(EncodeSequencedRecord({1, 1, "good"})).ok());
  // A raw (unsequenced) record in the middle is framing damage: the
  // reader must stop there — nothing past damage is trusted — rather
  // than skip it and hand back a gapped history.
  ASSERT_TRUE(wal.Append("x").ok());
  ASSERT_TRUE(wal.Append(EncodeSequencedRecord({2, 1, "after"})).ok());
  ASSERT_TRUE(wal.Sync().ok());
  auto records = ReadWalRecordsFrom(path, 0);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].payload, "good");
}

// ---------- MemTable ----------

TEST(MemTableTest, PutGetDelete) {
  MemTable mt;
  EXPECT_FALSE(mt.Get("a").has_value());
  mt.Put("a", "1");
  ASSERT_TRUE(mt.Get("a").has_value());
  EXPECT_EQ(mt.Get("a")->value, "1");
  EXPECT_FALSE(mt.Get("a")->is_tombstone);

  mt.Put("a", "2");  // overwrite
  EXPECT_EQ(mt.Get("a")->value, "2");
  EXPECT_EQ(mt.size(), 1u);

  mt.Delete("a");
  ASSERT_TRUE(mt.Get("a").has_value());
  EXPECT_TRUE(mt.Get("a")->is_tombstone);

  mt.Delete("never-existed");
  EXPECT_TRUE(mt.Get("never-existed")->is_tombstone);
}

TEST(MemTableTest, ApproximateBytesTracksGrowth) {
  MemTable mt;
  EXPECT_EQ(mt.ApproximateBytes(), 0u);
  mt.Put("key", std::string(100, 'v'));
  const size_t after_put = mt.ApproximateBytes();
  EXPECT_GT(after_put, 100u);
  mt.Put("key", "small");
  EXPECT_LT(mt.ApproximateBytes(), after_put);
  mt.Clear();
  EXPECT_EQ(mt.ApproximateBytes(), 0u);
  EXPECT_TRUE(mt.empty());
}

TEST(MemTableTest, EntriesAreSorted) {
  MemTable mt;
  mt.Put("c", "3");
  mt.Put("a", "1");
  mt.Put("b", "2");
  std::vector<std::string> keys;
  for (const auto& [k, v] : mt.entries()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

// ---------- SSTable ----------

/// Checksum-verified point lookup; a read error fails the test.
std::optional<SSTableReader::Entry> Lookup(const SSTableReader& reader,
                                           std::string_view key) {
  auto got = reader.GetChecked(key);
  EXPECT_TRUE(got.ok()) << got.status();
  return got.ok() ? std::move(*got) : std::nullopt;
}

/// Checksum-verified prefix scan; a read error fails the test.
std::vector<SSTableReader::Entry> Scan(const SSTableReader& reader,
                                       std::string_view prefix) {
  auto got = reader.ScanPrefixChecked(prefix);
  EXPECT_TRUE(got.ok()) << got.status();
  return got.ok() ? std::move(*got) : std::vector<SSTableReader::Entry>();
}

class SSTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("saga_sst_test");
    ASSERT_TRUE(dir.ok());
    dir_ = *dir;
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }
  std::string dir_;
};

TEST_F(SSTableTest, BuildAndGet) {
  SSTableBuilder builder;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    ASSERT_TRUE(builder.Add(key, "value" + std::to_string(i)).ok());
  }
  const std::string path = JoinPath(dir_, "t.sst");
  ASSERT_TRUE(builder.Finish(path, 100).ok());

  auto reader = SSTableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_entries(), 100u);
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    auto entry = Lookup(**reader, key);
    ASSERT_TRUE(entry.has_value()) << key;
    EXPECT_EQ(entry->value, "value" + std::to_string(i));
  }
  EXPECT_FALSE(Lookup(**reader, "key9999").has_value());
  EXPECT_FALSE(Lookup(**reader, "aaa").has_value());
  EXPECT_FALSE(Lookup(**reader, "zzz").has_value());
}

TEST_F(SSTableTest, RejectsOutOfOrderKeys) {
  SSTableBuilder builder;
  ASSERT_TRUE(builder.Add("b", "1").ok());
  EXPECT_TRUE(builder.Add("a", "2").IsInvalidArgument());
  EXPECT_TRUE(builder.Add("b", "3").IsInvalidArgument());  // equal key
}

TEST_F(SSTableTest, TombstonesSurvive) {
  SSTableBuilder builder;
  ASSERT_TRUE(builder.Add("alive", "v").ok());
  ASSERT_TRUE(builder.Add("dead", "", /*is_tombstone=*/true).ok());
  const std::string path = JoinPath(dir_, "t2.sst");
  ASSERT_TRUE(builder.Finish(path, 2).ok());
  auto reader = SSTableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto dead = Lookup(**reader, "dead");
  ASSERT_TRUE(dead.has_value());
  EXPECT_TRUE(dead->is_tombstone);
  EXPECT_FALSE(Lookup(**reader, "alive")->is_tombstone);
}

TEST_F(SSTableTest, ScanPrefix) {
  SSTableBuilder builder;
  ASSERT_TRUE(builder.Add("apple", "1").ok());
  ASSERT_TRUE(builder.Add("apricot", "2").ok());
  ASSERT_TRUE(builder.Add("banana", "3").ok());
  ASSERT_TRUE(builder.Add("cherry", "4").ok());
  const std::string path = JoinPath(dir_, "t3.sst");
  ASSERT_TRUE(builder.Finish(path, 4).ok());
  auto reader = SSTableReader::Open(path);
  ASSERT_TRUE(reader.ok());

  auto ap = Scan(**reader, "ap");
  ASSERT_EQ(ap.size(), 2u);
  EXPECT_EQ(ap[0].key, "apple");
  EXPECT_EQ(ap[1].key, "apricot");
  EXPECT_TRUE(Scan(**reader, "zz").empty());
  EXPECT_EQ(Scan(**reader, "").size(), 4u);
  auto all = (*reader)->ScanAllChecked();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);
}

TEST_F(SSTableTest, CorruptFileIsRejected) {
  SSTableBuilder builder;
  ASSERT_TRUE(builder.Add("k", "v").ok());
  const std::string path = JoinPath(dir_, "t4.sst");
  ASSERT_TRUE(builder.Finish(path, 1).ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  std::string bytes = *content;
  bytes[2] ^= 0xFF;  // flip data byte -> crc mismatch
  ASSERT_TRUE(WriteStringToFile(path, bytes).ok());
  EXPECT_FALSE(SSTableReader::Open(path).ok());

  ASSERT_TRUE(WriteStringToFile(path, "tiny").ok());
  EXPECT_FALSE(SSTableReader::Open(path).ok());
}

TEST_F(SSTableTest, LargeTableWithRandomLookups) {
  Rng rng(17);
  SSTableBuilder builder;
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "user:%08d", i * 3);
    keys.push_back(key);
    ASSERT_TRUE(builder.Add(key, std::to_string(i)).ok());
  }
  const std::string path = JoinPath(dir_, "big.sst");
  ASSERT_TRUE(builder.Finish(path, keys.size()).ok());
  auto reader = SSTableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  for (int trial = 0; trial < 200; ++trial) {
    const size_t i = rng.Uniform(keys.size());
    auto entry = Lookup(**reader, keys[i]);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->value, std::to_string(i));
    // Keys between stored keys must miss.
    char missing[24];
    std::snprintf(missing, sizeof(missing), "user:%08zu", i * 3 + 1);
    EXPECT_FALSE(Lookup(**reader, missing).has_value());
  }
}

/// Property sweep: correctness must not depend on the sparse-index
/// stride.
class SstIndexIntervalTest : public ::testing::TestWithParam<int> {};

TEST_P(SstIndexIntervalTest, GetAndScanAgreeAtAnyStride) {
  auto dir = MakeTempDir("saga_sst_stride");
  ASSERT_TRUE(dir.ok());
  SSTableBuilder::Options opts;
  opts.index_interval = GetParam();
  SSTableBuilder builder(opts);
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i * 2);
    ASSERT_TRUE(builder.Add(key, std::to_string(i)).ok());
  }
  const std::string path = JoinPath(*dir, "t.sst");
  ASSERT_TRUE(builder.Finish(path, n).ok());
  auto reader = SSTableReader::Open(path);
  ASSERT_TRUE(reader.ok());
  for (int i = 0; i < n; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%05d", i * 2);
    auto hit = Lookup(**reader, key);
    ASSERT_TRUE(hit.has_value()) << key;
    EXPECT_EQ(hit->value, std::to_string(i));
    std::snprintf(key, sizeof(key), "k%05d", i * 2 + 1);
    EXPECT_FALSE(Lookup(**reader, key).has_value());
  }
  auto all = (*reader)->ScanAllChecked();
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), static_cast<size_t>(n));
  (void)RemoveDirRecursively(*dir);
}

INSTANTIATE_TEST_SUITE_P(Strides, SstIndexIntervalTest,
                         ::testing::Values(1, 4, 16, 128, 1024));

}  // namespace
}  // namespace saga::storage
