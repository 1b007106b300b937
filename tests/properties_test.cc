// Cross-cutting property tests: randomized invariants that hold across
// module boundaries (serialization fuzz, WAL truncation, incremental
// view maintenance vs full rebuild, quantized vs float serving,
// trending gaps, asset maintenance).

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "ann/brute_force_index.h"
#include "ann/quantized_index.h"
#include "common/file_util.h"
#include "common/request_context.h"
#include "common/rng.h"
#include "embedding_rows.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "odke/query_log.h"
#include "serving/embedding_service.h"
#include "storage/kv_store.h"
#include "storage/wal.h"
#include "text/aho_corasick.h"

namespace saga {
namespace {

// ---------- Serialization fuzz ----------

kg::Value RandomValue(Rng* rng) {
  switch (rng->Uniform(6)) {
    case 0:
      return kg::Value::Entity(kg::EntityId(rng->NextUint64() >> 1));
    case 1: {
      std::string s;
      const size_t len = rng->Uniform(40);
      for (size_t i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->Uniform(256)));
      }
      return kg::Value::String(std::move(s));
    }
    case 2:
      return kg::Value::Int(static_cast<int64_t>(rng->NextUint64()));
    case 3:
      return kg::Value::Double(rng->NextGaussian() * 1e100);
    case 4:
      return kg::Value::OfDate(kg::Date::FromYmd(
          static_cast<int>(rng->UniformInt(1, 9999)),
          static_cast<int>(rng->UniformInt(1, 12)),
          static_cast<int>(rng->UniformInt(1, 28))));
    default:
      return kg::Value::Bool(rng->Bernoulli(0.5));
  }
}

TEST(SerializationFuzzTest, RandomValuesRoundTrip) {
  Rng rng(1234);
  for (int trial = 0; trial < 2000; ++trial) {
    const kg::Value original = RandomValue(&rng);
    std::string buf;
    BinaryWriter w(&buf);
    original.Serialize(&w);
    BinaryReader r(buf);
    kg::Value restored;
    ASSERT_TRUE(kg::Value::Deserialize(&r, &restored).ok());
    EXPECT_EQ(restored, original);
    EXPECT_EQ(restored.Hash(), original.Hash());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SerializationFuzzTest, TruncatedValuesNeverCrash) {
  Rng rng(77);
  for (int trial = 0; trial < 500; ++trial) {
    const kg::Value original = RandomValue(&rng);
    std::string buf;
    BinaryWriter w(&buf);
    original.Serialize(&w);
    const size_t cut = rng.Uniform(buf.size());
    BinaryReader r(std::string_view(buf).substr(0, cut));
    kg::Value restored;
    // Either corruption is detected or (for prefix-valid encodings of
    // a different value) decoding succeeds; it must never crash.
    (void)kg::Value::Deserialize(&r, &restored);
  }
}

// ---------- WAL prefix property ----------

TEST(WalFuzzTest, AnyTruncationYieldsAValidPrefix) {
  auto dir = MakeTempDir("saga_wal_fuzz");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "wal.log");
  std::vector<std::string> records;
  {
    storage::WalWriter wal(path);
    ASSERT_TRUE(wal.Open().ok());
    Rng rng(5);
    for (int i = 0; i < 30; ++i) {
      std::string rec = "record-" + std::to_string(i) + "-";
      const size_t pad = rng.Uniform(50);
      rec.append(pad, 'x');
      records.push_back(rec);
      ASSERT_TRUE(wal.Append(rec).ok());
    }
  }
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());

  Rng rng(6);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t cut = rng.Uniform(full->size() + 1);
    ASSERT_TRUE(WriteStringToFile(path, full->substr(0, cut)).ok());
    auto replayed = storage::ReadWalRecordsDetailed(path);
    ASSERT_TRUE(replayed.ok());
    // Replay must be an exact prefix of the written records.
    ASSERT_LE(replayed->records.size(), records.size());
    for (size_t i = 0; i < replayed->records.size(); ++i) {
      EXPECT_EQ(replayed->records[i], records[i]);
    }
  }
  (void)RemoveDirRecursively(*dir);
}

// ---------- Incremental view == full rebuild ----------

TEST(ViewMaintenanceTest, DeltaEqualsRebuild) {
  kg::KgGeneratorConfig config;
  config.num_persons = 120;
  config.num_movies = 30;
  config.num_songs = 15;
  config.num_teams = 5;
  config.num_bands = 6;
  config.num_cities = 10;
  kg::GeneratedKg gen = kg::GenerateKg(config);

  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto incremental = graph_engine::GraphView::Build(gen.kg, def);

  // Grow the KG with a random mix of relevant and irrelevant facts.
  Rng rng(9);
  const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
  const kg::SourceId noisy = gen.kg.AddSource("noisy_delta", 0.2);
  std::vector<kg::TripleIdx> delta;
  for (int i = 0; i < 300; ++i) {
    const kg::EntityId s(rng.Uniform(gen.kg.num_entities()));
    switch (rng.Uniform(3)) {
      case 0:
        delta.push_back(gen.kg.AddFact(
            s, gen.schema.spouse,
            kg::Value::Entity(kg::EntityId(rng.Uniform(
                gen.kg.num_entities()))),
            src));
        break;
      case 1:  // literal: filtered out
        delta.push_back(gen.kg.AddFact(s, gen.schema.height_cm,
                                       kg::Value::Int(180), src));
        break;
      default:  // low-confidence: filtered out
        delta.push_back(gen.kg.AddFact(
            s, gen.schema.acted_in,
            kg::Value::Entity(kg::EntityId(rng.Uniform(
                gen.kg.num_entities()))),
            noisy, 0.2));
    }
  }
  incremental.ApplyDelta(gen.kg, delta);
  auto rebuilt = graph_engine::GraphView::Build(gen.kg, def);

  ASSERT_EQ(incremental.edges().size(), rebuilt.edges().size());
  ASSERT_EQ(incremental.num_entities(), rebuilt.num_entities());
  ASSERT_EQ(incremental.num_relations(), rebuilt.num_relations());
  // Edge multisets agree in global id space.
  auto canonical = [](const graph_engine::GraphView& view) {
    std::multiset<std::tuple<uint64_t, uint64_t, uint64_t>> edges;
    for (const auto& e : view.edges()) {
      edges.insert({view.global_entity(e.src).value(),
                    view.global_relation(e.relation).value(),
                    view.global_entity(e.dst).value()});
    }
    return edges;
  };
  EXPECT_EQ(canonical(incremental), canonical(rebuilt));
}

// ---------- Quantized serving vs float serving ----------

TEST(QuantizedIndexTest, TopKOverlapsFloatIndex) {
  Rng rng(17);
  const int dim = 32;
  std::vector<uint64_t> labels;
  std::vector<float> data;
  for (uint64_t i = 0; i < 1000; ++i) {
    labels.push_back(i);
    for (int d = 0; d < dim; ++d) {
      data.push_back(static_cast<float>(rng.NextGaussian()));
    }
  }
  const auto rows = std::make_shared<const ann::RowMatrix>(
      dim, std::move(labels), std::move(data));
  ann::BruteForceIndex exact(rows, ann::Metric::kCosine);
  ann::QuantizedBruteForceIndex quantized(rows, ann::Metric::kCosine);
  EXPECT_LT(quantized.PayloadBytes(), 1000u * dim * 4 / 3);

  double recall_sum = 0.0;
  const int queries = 20;
  for (int q = 0; q < queries; ++q) {
    std::vector<float> query(dim);
    for (float& x : query) x = static_cast<float>(rng.NextGaussian());
    const auto truth = exact.Search(query, 10);
    const auto approx = quantized.Search(query, 10);
    std::set<uint64_t> truth_set;
    for (const auto& h : truth) truth_set.insert(h.label);
    int hits = 0;
    for (const auto& h : approx) {
      if (truth_set.count(h.label)) ++hits;
    }
    recall_sum += hits / 10.0;
  }
  EXPECT_GT(recall_sum / queries, 0.85);
}

// ---------- Trending gaps ----------

TEST(TrendingGapsTest, DetectsSurgingUnansweredQueries) {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  ASSERT_FALSE(gen.withheld_facts.empty());
  const auto& hot = gen.withheld_facts[0];

  // Old window: background noise. New window: a surge for `hot`.
  Rng rng(4);
  auto old_window = odke::GenerateQueryLog(gen, 300, &rng);
  auto new_window = odke::GenerateQueryLog(gen, 300, &rng);
  odke::FactQuery surge;
  surge.subject = hot.subject;
  surge.predicate = hot.predicate;
  surge.text = "surge";
  for (int i = 0; i < 50; ++i) new_window.push_back(surge);

  const auto gaps =
      odke::FindTrendingGaps(gen.kg, old_window, new_window, 3.0, 10);
  ASSERT_FALSE(gaps.empty());
  EXPECT_EQ(gaps[0].subject, hot.subject);
  EXPECT_EQ(gaps[0].predicate, hot.predicate);
  EXPECT_EQ(gaps[0].reason, odke::GapReason::kTrending);
}

TEST(TrendingGapsTest, AnsweredQueriesAreNotGaps) {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  kg::GeneratedKg gen = kg::GenerateKg(config);
  // Surge on a fact the KG already has.
  const kg::GroundTruthFact* present = nullptr;
  for (const auto& f : gen.functional_facts) {
    if (f.in_kg &&
        !gen.kg.triples().BySubjectPredicate(f.subject, f.predicate)
             .empty()) {
      present = &f;
      break;
    }
  }
  ASSERT_NE(present, nullptr);
  std::vector<odke::FactQuery> new_window(
      40, odke::FactQuery{"q", present->subject, present->predicate});
  const auto gaps = odke::FindTrendingGaps(gen.kg, {}, new_window, 2.0, 5);
  EXPECT_TRUE(gaps.empty());
}

// ---------- Aho-Corasick vs naive multi-pattern search ----------

TEST(AhoCorasickPropertyTest, MatchesNaiveSearchOnRandomInputs) {
  Rng rng(2024);
  const std::string alphabet = "abcde";  // small alphabet => collisions
  for (int trial = 0; trial < 40; ++trial) {
    // Random pattern set (deduplicated; AddPattern registers each
    // occurrence separately otherwise).
    std::set<std::string> unique_patterns;
    const size_t num_patterns = 2 + rng.Uniform(10);
    while (unique_patterns.size() < num_patterns) {
      std::string p;
      const size_t len = 1 + rng.Uniform(5);
      for (size_t i = 0; i < len; ++i) {
        p.push_back(alphabet[rng.Uniform(alphabet.size())]);
      }
      unique_patterns.insert(std::move(p));
    }
    text::AhoCorasick ac;
    std::vector<std::string> patterns(unique_patterns.begin(),
                                      unique_patterns.end());
    for (const auto& p : patterns) ac.AddPattern(p);
    ac.Build();

    std::string haystack;
    const size_t hay_len = rng.Uniform(200);
    for (size_t i = 0; i < hay_len; ++i) {
      haystack.push_back(alphabet[rng.Uniform(alphabet.size())]);
    }

    // Naive reference: every (pattern, position) occurrence.
    std::multiset<std::pair<size_t, std::string>> expected;
    for (const auto& p : patterns) {
      size_t pos = 0;
      while ((pos = haystack.find(p, pos)) != std::string::npos) {
        expected.insert({pos, p});
        ++pos;
      }
    }
    std::multiset<std::pair<size_t, std::string>> actual;
    for (const auto& m : ac.FindAll(haystack)) {
      actual.insert({m.begin, patterns.at(m.pattern)});
    }
    EXPECT_EQ(actual, expected) << "trial " << trial;
  }
}

// ---------- KV store auto-compaction ----------

TEST(KvStoreAutoCompactTest, BoundsTableCountWithoutDataLoss) {
  auto dir = MakeTempDir("saga_kv_autocompact");
  ASSERT_TRUE(dir.ok());
  storage::KvStore::Options opts;
  opts.memtable_max_bytes = 1024;
  opts.auto_compact_trigger = 3;
  auto store = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok());
  const std::string value(120, 'v');
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i % 80), value).ok());
  }
  // Without compaction the 300 writes would leave dozens of tables.
  EXPECT_LE((*store)->num_sstables(), 4u);
  for (int i = 0; i < 80; ++i) {
    EXPECT_TRUE((*store)->Get("k" + std::to_string(i)).ok()) << i;
  }
  (void)RemoveDirRecursively(*dir);
}

}  // namespace
}  // namespace saga
