#include <gtest/gtest.h>

#include <set>

#include "common/file_util.h"
#include "ondevice/blocking.h"
#include "ondevice/device_data_generator.h"
#include "ondevice/fusion.h"
#include "ondevice/matcher.h"
#include "ondevice/personal_kg.h"
#include "ondevice/source_record.h"

namespace saga::ondevice {
namespace {

DeviceDataset MakeData() { return GenerateDeviceData(/*num_persons=*/80); }

// ---------- Phones / records ----------

TEST(SourceRecordTest, NormalizePhoneFormats) {
  EXPECT_EQ(NormalizePhone("+1 555 010 0199"), "5550100199");
  EXPECT_EQ(NormalizePhone("(555) 010-0199"), "5550100199");
  EXPECT_EQ(NormalizePhone("5550100199"), "5550100199");
  EXPECT_EQ(NormalizePhone(""), "");
  EXPECT_EQ(NormalizePhone("no digits"), "");
}

// ---------- Data generator ----------

TEST(DeviceDataTest, RecordsHaveTruthLabels) {
  DeviceDataset data = MakeData();
  EXPECT_EQ(data.records.size(), data.truth.size());
  EXPECT_GT(data.records.size(), data.num_persons);
  for (uint32_t label : data.truth) {
    EXPECT_LT(label, data.num_persons);
  }
}

TEST(DeviceDataTest, SourcesDifferInFieldAvailability) {
  DeviceDataset data = MakeData();
  for (size_t i = 0; i < data.records.size(); ++i) {
    const SourceRecord& rec = data.records[i];
    switch (rec.source) {
      case SourceKind::kContacts:
        EXPECT_FALSE(rec.phone.empty());
        break;
      case SourceKind::kMessages:
        EXPECT_FALSE(rec.phone.empty());
        EXPECT_TRUE(rec.email.empty());
        break;
      case SourceKind::kCalendar:
        EXPECT_TRUE(rec.phone.empty());
        EXPECT_FALSE(rec.email.empty());
        break;
    }
  }
}

TEST(DeviceDataTest, SamePersonRecordsShareIdentifiers) {
  DeviceDataset data = MakeData();
  // Any two records of the same person must share phone or email
  // (possibly in different formats).
  std::map<uint32_t, std::vector<size_t>> by_person;
  for (size_t i = 0; i < data.records.size(); ++i) {
    by_person[data.truth[i]].push_back(i);
  }
  for (const auto& [person, idxs] : by_person) {
    for (size_t a = 0; a < idxs.size(); ++a) {
      for (size_t b = a + 1; b < idxs.size(); ++b) {
        const SourceRecord& ra = data.records[idxs[a]];
        const SourceRecord& rb = data.records[idxs[b]];
        // Identifiers are consistent whenever both sides carry them;
        // pairs with disjoint fields (e.g. message phone vs calendar
        // email) are the transitive-linking case bridged by contacts.
        if (!ra.phone.empty() && !rb.phone.empty()) {
          EXPECT_EQ(NormalizePhone(ra.phone), NormalizePhone(rb.phone))
              << ra.native_id << " vs " << rb.native_id;
        }
        if (!ra.email.empty() && !rb.email.empty()) {
          EXPECT_EQ(ra.email, rb.email)
              << ra.native_id << " vs " << rb.native_id;
        }
      }
    }
  }
}

// ---------- Blocking ----------

TEST(BlockingTest, KeysIncludeIdentifiersAndNamePrefixes) {
  SourceRecord rec;
  rec.name = "Timothy Chen";
  rec.phone = "(555) 010-0199";
  rec.email = "T.Chen@Example.com";
  const auto keys = Blocker::KeysFor(rec);
  const std::set<std::string> key_set(keys.begin(), keys.end());
  EXPECT_TRUE(key_set.count("p:5550100199"));
  EXPECT_TRUE(key_set.count("e:t.chen@example.com"));
  EXPECT_TRUE(key_set.count("n:tim"));
  EXPECT_TRUE(key_set.count("n:che"));
}

TEST(BlockingTest, CandidatePairsCoverTruePairsSharingIdentifiers) {
  DeviceDataset data = MakeData();
  auto dir = MakeTempDir("saga_blocking");
  ASSERT_TRUE(dir.ok());
  Blocker::Options opts;
  opts.spill_dir = *dir;
  Blocker blocker(opts);
  auto pairs = blocker.CandidatePairs(data.records);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GT(pairs->size(), 0u);
  // Far fewer than n^2.
  const size_t n = data.records.size();
  EXPECT_LT(pairs->size(), n * (n - 1) / 4);

  const std::set<CandidatePair> pair_set(pairs->begin(), pairs->end());
  // Every same-person pair sharing a normalized phone must be a
  // candidate.
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (data.truth[i] != data.truth[j]) continue;
      const std::string pa = NormalizePhone(data.records[i].phone);
      if (pa.empty() || pa != NormalizePhone(data.records[j].phone)) {
        continue;
      }
      EXPECT_TRUE(pair_set.count({i, j}))
          << data.records[i].native_id << " / "
          << data.records[j].native_id;
    }
  }
  (void)RemoveDirRecursively(*dir);
}

TEST(BlockingTest, TinyBudgetSpillsToDisk) {
  DeviceDataset data = MakeData();
  auto dir = MakeTempDir("saga_blocking_spill");
  ASSERT_TRUE(dir.ok());
  Blocker::Options opts;
  opts.spill_dir = *dir;
  opts.memory_budget_bytes = 512;
  Blocker blocker(opts);
  auto pairs = blocker.CandidatePairs(data.records);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GT(blocker.stats().runs_spilled, 0u);
  EXPECT_GT(blocker.stats().bytes_spilled, 0u);

  // Spilled result equals in-memory result.
  auto dir2 = MakeTempDir("saga_blocking_mem");
  ASSERT_TRUE(dir2.ok());
  Blocker::Options big;
  big.spill_dir = *dir2;
  big.memory_budget_bytes = 64 << 20;
  Blocker in_memory(big);
  auto mem_pairs = in_memory.CandidatePairs(data.records);
  ASSERT_TRUE(mem_pairs.ok());
  EXPECT_EQ(*pairs, *mem_pairs);
  (void)RemoveDirRecursively(*dir);
  (void)RemoveDirRecursively(*dir2);
}

// ---------- Matcher / clustering ----------

TEST(MatcherTest, IdentifierMatchesScoreHigh) {
  EntityMatcher matcher;
  SourceRecord a;
  a.name = "Timothy Chen";
  a.phone = "+1 555 010 0199";
  SourceRecord b;
  b.name = "Tim";
  b.phone = "(555) 010-0199";
  EXPECT_TRUE(matcher.Matches(a, b));

  SourceRecord c;
  c.name = "Ada Okafor";
  c.phone = "9990001111";
  EXPECT_FALSE(matcher.Matches(a, c));
}

TEST(MatcherTest, NameOnlySimilarityIsNotEnough) {
  EntityMatcher matcher;
  SourceRecord a;
  a.name = "Tim";
  SourceRecord b;
  b.name = "Timothy Chen";
  // Same short name but no shared identifier: should not match (the
  // two-Tims problem).
  EXPECT_FALSE(matcher.Matches(a, b));
}

TEST(MatcherTest, EmailMatchCounts) {
  EntityMatcher matcher;
  SourceRecord a;
  a.name = "T. Chen";
  a.email = "t.chen@example.com";
  SourceRecord b;
  b.name = "Timothy Chen";
  b.email = "t.chen@example.com";
  EXPECT_TRUE(matcher.Matches(a, b));
}

TEST(ClusterTest, UnionFindMergesTransitively) {
  // 0-1 and 1-2 matched -> one cluster {0,1,2}; 3 alone.
  const auto clusters = ClusterMatches(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(clusters[0], clusters[1]);
  EXPECT_EQ(clusters[1], clusters[2]);
  EXPECT_NE(clusters[0], clusters[3]);
}

TEST(ClusterTest, QualityMetrics) {
  const std::vector<uint32_t> truth = {0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(EvaluateClustering({0, 0, 1, 1}, truth).f1, 1.0);
  const auto all_merged = EvaluateClustering({0, 0, 0, 0}, truth);
  EXPECT_DOUBLE_EQ(all_merged.recall, 1.0);
  EXPECT_LT(all_merged.precision, 0.5);
  const auto all_split = EvaluateClustering({0, 1, 2, 3}, truth);
  EXPECT_DOUBLE_EQ(all_split.precision, 1.0);
  EXPECT_DOUBLE_EQ(all_split.recall, 0.0);
}

TEST(EndToEndMatchingTest, HighPairwiseF1OnGeneratedData) {
  DeviceDataset data = MakeData();
  auto dir = MakeTempDir("saga_match_e2e");
  ASSERT_TRUE(dir.ok());
  Blocker::Options bopts;
  bopts.spill_dir = *dir;
  Blocker blocker(bopts);
  auto pairs = blocker.CandidatePairs(data.records);
  ASSERT_TRUE(pairs.ok());
  EntityMatcher matcher;
  const auto matches = matcher.MatchPairs(data.records, *pairs);
  const auto clusters = ClusterMatches(data.records.size(), matches);
  const auto quality = EvaluateClustering(clusters, data.truth);
  EXPECT_GT(quality.precision, 0.9);
  EXPECT_GT(quality.recall, 0.7);
  EXPECT_GT(quality.f1, 0.8);
  (void)RemoveDirRecursively(*dir);
}

// ---------- Fusion ----------

TEST(FusionTest, MergesAttributesWithProvenance) {
  std::vector<SourceRecord> records(3);
  records[0].source = SourceKind::kContacts;
  records[0].native_id = "contacts:1";
  records[0].name = "Timothy Chen";
  records[0].phone = "+1 555 010 0199";
  records[0].email = "t.chen@example.com";
  records[1].source = SourceKind::kMessages;
  records[1].native_id = "messages:2";
  records[1].name = "Tim";
  records[1].phone = "(555) 010-0199";
  records[1].interactions = {"About the SIGMOD draft"};
  records[2].source = SourceKind::kCalendar;
  records[2].native_id = "calendar:3";
  records[2].name = "Tim Chen";
  records[2].email = "t.chen@example.com";

  const auto fused = FuseClusters(records, {0, 0, 0});
  ASSERT_EQ(fused.size(), 1u);
  const FusedPerson& person = fused[0];
  EXPECT_EQ(person.display_name, "Timothy Chen");  // longest form
  EXPECT_EQ(person.names.size(), 3u);
  EXPECT_EQ(person.phones.size(), 1u);  // normalized to one number
  EXPECT_EQ(person.emails.size(), 1u);
  EXPECT_EQ(person.provenance.size(), 3u);
  EXPECT_EQ(person.interactions.size(), 1u);
}

TEST(FusionTest, SeparateClustersStaySeparate) {
  std::vector<SourceRecord> records(2);
  records[0].name = "A";
  records[0].native_id = "contacts:1";
  records[1].name = "B";
  records[1].native_id = "contacts:2";
  const auto fused = FuseClusters(records, {0, 1});
  EXPECT_EQ(fused.size(), 2u);
}

// ---------- PersonalKg reference resolution ----------

TEST(PersonalKgTest, ResolvesTheRightTimByContext) {
  // Two Tims with different interaction histories (Fig 7 / §5).
  std::vector<FusedPerson> persons(2);
  persons[0].display_name = "Timothy Chen";
  persons[0].names = {"Timothy Chen", "Tim"};
  persons[0].interactions = {"Reviewed the SIGMOD draft intro",
                             "About the SIGMOD draft, let's sync"};
  persons[1].display_name = "Tim Okafor";
  persons[1].names = {"Tim Okafor", "Tim"};
  persons[1].interactions = {"Soccer practice moved to Sunday",
                             "Bring cleats to soccer practice"};

  PersonalKg kg(std::move(persons));
  const auto sigmod = kg.ResolveReference(
      "Tim", "I've added comments to the SIGMOD draft");
  ASSERT_GE(sigmod.size(), 2u);
  EXPECT_EQ(kg.persons()[sigmod[0].person].display_name, "Timothy Chen");
  EXPECT_GT(sigmod[0].context_score, sigmod[1].context_score);

  const auto soccer =
      kg.ResolveReference("Tim", "are we still on for soccer practice");
  ASSERT_GE(soccer.size(), 2u);
  EXPECT_EQ(kg.persons()[soccer[0].person].display_name, "Tim Okafor");
}

TEST(PersonalKgTest, NameOnlyQueryRanksByNameSimilarity) {
  std::vector<FusedPerson> persons(2);
  persons[0].display_name = "Sara Lind";
  persons[0].names = {"Sara Lind"};
  persons[1].display_name = "Samuel Berg";
  persons[1].names = {"Samuel Berg"};
  PersonalKg kg(std::move(persons));
  const auto hits = kg.ResolveReference("Sara", "");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(kg.persons()[hits[0].person].display_name, "Sara Lind");
}

TEST(PersonalKgTest, NoMatchBelowNameFloor) {
  std::vector<FusedPerson> persons(1);
  persons[0].display_name = "Sara Lind";
  persons[0].names = {"Sara Lind"};
  PersonalKg kg(std::move(persons));
  EXPECT_TRUE(kg.ResolveReference("Zoltan", "").empty());
}

}  // namespace
}  // namespace saga::ondevice
