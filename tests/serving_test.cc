#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <span>

#include "common/file_util.h"
#include "common/request_context.h"
#include "common/rng.h"
#include "common/serialization.h"
#include "embedding/trainer.h"
#include "graph_engine/traversal.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/fact_verifier.h"
#include "serving/kv_cache.h"
#include "serving/lru_cache.h"
#include "serving/related_entities.h"

namespace saga::serving {
namespace {

struct Fixture {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  embedding::TrainedEmbeddings emb;

  static Fixture Make() {
    kg::KgGeneratorConfig config;
    config.num_persons = 120;
    config.num_movies = 40;
    config.num_songs = 20;
    config.num_teams = 6;
    config.num_bands = 8;
    config.num_cities = 12;
    Fixture f{kg::GenerateKg(config), {}, {}};
    f.view =
        graph_engine::GraphView::Build(f.gen.kg,
                                       graph_engine::ViewDefinition());
    embedding::TrainingConfig tc;
    tc.model = embedding::ModelKind::kDistMult;
    tc.dim = 16;
    tc.epochs = 5;
    embedding::InMemoryTrainer trainer(tc);
    f.emb = trainer.Train(f.view);
    return f;
  }
};

// ---------- LruCache ----------

/// A distinct value; the tests tell values apart by pointer.
LruCache::Value Stored(uint32_t length) {
  auto v = std::make_shared<StoredVector>();
  v->length = length;
  return v;
}

// Each entry is charged LruCache::kKeyBytes (8) plus its value bytes.

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(50);
  cache.Put(1, Stored(1), 12);
  cache.Put(2, Stored(2), 12);
  ASSERT_NE(cache.Get(1), nullptr);  // touch 1 -> 2 becomes LRU
  cache.Put(3, Stored(3), 12);       // evicts 2
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(LruCacheTest, OverwriteUpdatesBytes) {
  LruCache cache(1000);
  cache.Put(7, Stored(100), 100);
  const size_t big = cache.size_bytes();
  const LruCache::Value tiny = Stored(4);
  cache.Put(7, tiny, 4);
  EXPECT_LT(cache.size_bytes(), big);
  EXPECT_EQ(cache.Get(7), tiny);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, TracksHitsAndMisses) {
  LruCache cache(100);
  cache.Put(7, Stored(1), 1);
  (void)cache.Get(7);
  (void)cache.Get(8);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, RejectsOversizedInsertUpFront) {
  LruCache cache(50);
  ASSERT_TRUE(cache.Put(1, Stored(1), 12));
  ASSERT_TRUE(cache.Put(2, Stored(2), 12));
  // An entry that can never fit is refused without evicting anything.
  EXPECT_FALSE(cache.Put(3, Stored(3), 43));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_EQ(cache.size_bytes(), 40u);  // 2 * (8 + 12)
}

TEST(LruCacheTest, OversizedUpdateOfExistingKeyIsRejected) {
  LruCache cache(50);
  const LruCache::Value old_value = Stored(10);
  ASSERT_TRUE(cache.Put(7, old_value, 10));
  const size_t before = cache.size_bytes();
  EXPECT_FALSE(cache.Put(7, Stored(60), 60));
  // The old entry survives untouched.
  EXPECT_EQ(cache.size_bytes(), before);
  EXPECT_EQ(cache.Get(7), old_value);
}

TEST(LruCacheTest, EvictionSparesTheJustUpdatedEntry) {
  LruCache cache(50);
  ASSERT_TRUE(cache.Put(1, Stored(1), 12));
  ASSERT_TRUE(cache.Put(2, Stored(2), 12));  // 40 bytes total
  // Growing 2 to 40 bytes pushes the total to 60: eviction must take
  // the cold entry (1), never the entry this Put just touched.
  const LruCache::Value grown = Stored(32);
  ASSERT_TRUE(cache.Put(2, grown, 32));
  EXPECT_FALSE(cache.Contains(1));
  ASSERT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.Get(2), grown);
  EXPECT_EQ(cache.size_bytes(), 40u);  // 8 + 32
}

TEST(LruCacheTest, EraseReleasesTheEntryBytes) {
  LruCache cache(100);
  ASSERT_TRUE(cache.Put(1, Stored(1), 12));
  ASSERT_TRUE(cache.Put(2, Stored(2), 30));
  cache.Erase(1);
  cache.Erase(9);  // absent: no effect
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.size_bytes(), 38u);
}

// ---------- EmbeddingKvCache ----------

TEST(EmbeddingKvCacheTest, PutAllThenGetThroughTiers) {
  auto dir = MakeTempDir("saga_kv_cache");
  ASSERT_TRUE(dir.ok());
  Fixture f = Fixture::Make();
  const embedding::EmbeddingStore store =
      embedding::EmbeddingStore::FromTrained(f.emb, f.view);

  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  ASSERT_TRUE((*cache)->PutAll(store).ok());

  const kg::EntityId id = f.view.global_entity(3);
  auto first = (*cache)->Get(id);
  ASSERT_TRUE(first.ok());
  const std::span<const float> row = store.Get(id);
  EXPECT_EQ(*first, std::vector<float>(row.begin(), row.end()));
  EXPECT_EQ((*cache)->stats().disk_hits, 1u);
  auto second = (*cache)->Get(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*cache)->stats().memory_hits, 1u);

  EXPECT_FALSE((*cache)->Get(kg::EntityId(10101010)).ok());
  EXPECT_EQ((*cache)->stats().misses, 1u);
  (void)RemoveDirRecursively(*dir);
}

// Regression: Put used to write through to disk without touching the
// LRU, so an entity read once kept serving its old embedding forever.
TEST(EmbeddingKvCacheTest, PutRefreshesResidentLruEntry) {
  auto dir = MakeTempDir("saga_kv_cache_stale");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());

  const kg::EntityId id(42);
  const std::vector<float> v1 = {1.0f, 2.0f, 3.0f};
  const std::vector<float> v2 = {9.0f, 8.0f, 7.0f};
  ASSERT_TRUE((*cache)->Put(id, v1).ok());
  auto first = (*cache)->Get(id);  // disk hit; v1 now LRU-resident
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, v1);

  ASSERT_TRUE((*cache)->Put(id, v2).ok());
  auto second = (*cache)->Get(id);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, v2) << "LRU served a stale embedding after Put";
  // Served from memory: the refresh updated the entry in place rather
  // than invalidating it.
  EXPECT_EQ((*cache)->stats().memory_hits, 1u);
  (void)RemoveDirRecursively(*dir);
}

// Put keeps every entry whose bits are not all zero, so -0.0f and an
// all-zero vector come back from both tiers exactly as stored.
TEST(EmbeddingKvCacheTest, GetReturnsExactlyWhatPutStored) {
  auto dir = MakeTempDir("saga_kv_cache_exact");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<std::vector<float>> vectors = {
      {0.0f, -0.0f, 1.5f, 0.0f, -0.0f},
      std::vector<float>(32, 0.0f),
      {},
      {nan, 0.0f, -std::numeric_limits<float>::infinity(), 1e-45f},
      std::vector<float>(300, -0.0f),
  };
  for (size_t i = 0; i < vectors.size(); ++i) {
    ASSERT_TRUE((*cache)->Put(kg::EntityId(i + 1), vectors[i]).ok());
  }
  for (int pass = 0; pass < 2; ++pass) {  // disk hits, then memory hits
    for (size_t i = 0; i < vectors.size(); ++i) {
      auto got = (*cache)->Get(kg::EntityId(i + 1));
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got->size(), vectors[i].size());
      if (got->empty()) continue;  // memcmp of a null data() is UB
      EXPECT_EQ(std::memcmp(got->data(), vectors[i].data(),
                            vectors[i].size() * sizeof(float)),
                0)
          << "vector " << i << " pass " << pass;
    }
  }
  EXPECT_EQ((*cache)->stats().disk_hits, vectors.size());
  EXPECT_EQ((*cache)->stats().memory_hits, vectors.size());
  (void)RemoveDirRecursively(*dir);
}

TEST(EmbeddingKvCacheTest, EncodesSixBytesPerStoredEntry) {
  std::vector<float> v(256, 0.0f);
  for (size_t i = 0; i < 41; ++i) v[i * 6] = 0.25f;
  const StoredVector stored = EmbeddingKvCache::FromDense(v);
  EXPECT_EQ(stored.length, 256u);
  EXPECT_EQ(stored.sparse.index.size(), 41u);
  const std::string bytes = EmbeddingKvCache::Encode(stored);
  EXPECT_EQ(bytes.size(), 9u + 41u * 6u);
  auto decoded = EmbeddingKvCache::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(EmbeddingKvCache::ToDense(*decoded), v);
}

TEST(EmbeddingKvCacheTest, PutRejectsVectorsLongerThanTheFormat) {
  auto dir = MakeTempDir("saga_kv_cache_long");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  const kg::EntityId id(5);
  EXPECT_TRUE((*cache)
                  ->Put(id, std::vector<float>(EmbeddingKvCache::kMaxLength,
                                               1.0f))
                  .ok());
  EXPECT_TRUE((*cache)
                  ->Put(id, std::vector<float>(
                                EmbeddingKvCache::kMaxLength + 1, 1.0f))
                  .IsInvalidArgument());
  auto got = (*cache)->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), EmbeddingKvCache::kMaxLength);
  (void)RemoveDirRecursively(*dir);
}

// The value format this cache used to write (a dense float vector) does
// not decode: Find counts it as a miss and the caller recomputes.
TEST(EmbeddingKvCacheTest, OldDenseValueCountsAsMiss) {
  auto dir = MakeTempDir("saga_kv_cache_old");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 1 << 16);
  ASSERT_TRUE(cache.ok());
  std::string dense;
  BinaryWriter w(&dense);
  w.PutFloatVector(std::vector<float>(256, 0.5f));
  ASSERT_TRUE((*cache)->kv()->Put("emb:000000000000002a", dense).ok());
  EXPECT_EQ((*cache)->Find(kg::EntityId(42)), nullptr);
  EXPECT_TRUE((*cache)->Get(kg::EntityId(42)).status().IsNotFound());
  EXPECT_EQ((*cache)->stats().misses, 2u);
  EXPECT_EQ((*cache)->stats().disk_hits, 0u);
  (void)RemoveDirRecursively(*dir);
}

// A refresh too big for its shard's budget drops the resident entry
// rather than leave the old value in memory.
TEST(EmbeddingKvCacheTest, OversizedRefreshDropsTheStaleEntry) {
  auto dir = MakeTempDir("saga_kv_cache_grow");
  ASSERT_TRUE(dir.ok());
  auto cache = EmbeddingKvCache::Open(*dir, 8 * 200);  // 200 B a shard
  ASSERT_TRUE(cache.ok());
  const kg::EntityId id(3);
  ASSERT_TRUE((*cache)->Put(id, std::vector<float>(4, 1.0f)).ok());
  ASSERT_TRUE((*cache)->Get(id).ok());  // now resident
  const std::vector<float> big(100, 2.0f);  // 609 encoded bytes
  ASSERT_TRUE((*cache)->Put(id, big).ok());
  auto got = (*cache)->Get(id);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, big);
  EXPECT_EQ((*cache)->stats().memory_hits, 0u);
  (void)RemoveDirRecursively(*dir);
}

/// Checks that `bytes` decodes to a valid value or fails with a Status.
/// A decoded value must satisfy the format's invariants, and since the
/// decoder accepts only the encoder's output, re-encoding it gives back
/// `bytes`.
void ExpectDecodesOrFails(const std::string& bytes, uint64_t* accepted) {
  auto decoded = EmbeddingKvCache::Decode(bytes);
  if (!decoded.ok()) {
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status();
    return;
  }
  ++*accepted;
  const StoredVector& v = *decoded;
  ASSERT_LE(v.length, EmbeddingKvCache::kMaxLength);
  ASSERT_EQ(v.sparse.index.size(), v.sparse.value.size());
  ASSERT_LE(v.sparse.index.size(), v.length);
  for (size_t k = 0; k < v.sparse.index.size(); ++k) {
    ASSERT_LT(v.sparse.index[k], v.length);
    if (k > 0) {
      ASSERT_LT(v.sparse.index[k - 1], v.sparse.index[k]);
    }
    ASSERT_NE(std::bit_cast<uint32_t>(v.sparse.value[k]), 0u);
  }
  EXPECT_EQ(EmbeddingKvCache::Encode(v), bytes);
}

void PutFixed32At(std::string* bytes, size_t pos, uint32_t v) {
  for (int b = 0; b < 4; ++b) {
    (*bytes)[pos + static_cast<size_t>(b)] =
        static_cast<char>((v >> (8 * b)) & 0xFF);
  }
}

// Seeded mutation harness over the value decoder: truncations at every
// length, bit flips, counts and lengths past the bytes or the format's
// limit, unsorted, duplicate and out-of-range indices, and random
// bytes. Every input must give a Status or a valid value.
TEST(EmbeddingKvCacheTest, DecoderIsTotalUnderMutation) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  const uint64_t seed =
      env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 10) : 1809;
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(seed));
  std::printf("decoder mutation harness: SAGA_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  Rng rng(seed);

  std::vector<std::string> valid;
  for (int i = 0; i < 40; ++i) {
    const size_t length = i == 0 ? 0 : i == 1 ? EmbeddingKvCache::kMaxLength
                                              : rng.Uniform(300) + 1;
    std::vector<float> v(length, 0.0f);
    for (float& x : v) {
      const uint64_t r = rng.Uniform(10);
      x = r < 6    ? 0.0f
          : r == 6 ? -0.0f
                   : static_cast<float>(rng.NextGaussian());
    }
    valid.push_back(EmbeddingKvCache::Encode(EmbeddingKvCache::FromDense(v)));
  }

  uint64_t inputs = 0;
  uint64_t accepted = 0;
  auto check = [&](const std::string& bytes) {
    ++inputs;
    ExpectDecodesOrFails(bytes, &accepted);
  };
  for (const std::string& bytes : valid) check(bytes);
  ASSERT_EQ(accepted, valid.size()) << "the encoder's output must decode";

  // Truncation at every length (the 65536-long value at a sample).
  for (const std::string& bytes : valid) {
    const size_t step = bytes.size() > 4096 ? 97 : 1;
    for (size_t n = 0; n < bytes.size(); n += step) {
      auto decoded = EmbeddingKvCache::Decode(bytes.substr(0, n));
      ++inputs;
      EXPECT_FALSE(decoded.ok()) << "prefix of " << n << " bytes decoded";
    }
  }
  for (int i = 0; i < 6000; ++i) {
    std::string bytes = valid[rng.Uniform(valid.size())];
    if (bytes.size() > 4096) continue;
    const int flips = static_cast<int>(rng.Uniform(4)) + 1;
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1u << rng.Uniform(8));
    }
    check(bytes);
  }
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = valid[2 + rng.Uniform(valid.size() - 2)];
    uint32_t length = 0;
    uint32_t count = 0;
    std::memcpy(&length, bytes.data() + 1, 4);
    std::memcpy(&count, bytes.data() + 5, 4);
    switch (i % 4) {
      case 0:  // a count past the bytes
        PutFixed32At(&bytes, 5,
                     count + 1 + static_cast<uint32_t>(rng.Uniform(1000)));
        break;
      case 1:  // a count or length past everything
        PutFixed32At(&bytes, rng.Bernoulli(0.5) ? 5 : 1,
                     0xFFFFFFFFu - static_cast<uint32_t>(rng.Uniform(4)));
        break;
      case 2:  // a length above the format's limit
        PutFixed32At(&bytes, 1,
                     65537u + static_cast<uint32_t>(rng.Uniform(1u << 20)));
        break;
      case 3:  // a length below the largest index
        PutFixed32At(&bytes, 1,
                     static_cast<uint32_t>(rng.Uniform(length)));
        break;
    }
    check(bytes);
  }
  for (int i = 0; i < 2000; ++i) {
    std::string bytes = valid[2 + rng.Uniform(valid.size() - 2)];
    uint32_t count = 0;
    std::memcpy(&count, bytes.data() + 5, 4);
    if (count < 2) continue;
    const size_t a = rng.Uniform(count);
    const size_t b = rng.Uniform(count);
    char* idx = bytes.data() + 9;
    switch (i % 3) {
      case 0:  // unsorted
        std::swap(idx[2 * a], idx[2 * b]);
        std::swap(idx[2 * a + 1], idx[2 * b + 1]);
        break;
      case 1:  // duplicate
        idx[2 * a] = idx[2 * b];
        idx[2 * a + 1] = idx[2 * b + 1];
        break;
      case 2:  // out of range
        idx[2 * a] = static_cast<char>(0xFF);
        idx[2 * a + 1] = static_cast<char>(0xFF);
        break;
    }
    check(bytes);
  }
  for (int i = 0; i < 2000; ++i) {
    std::string bytes(rng.Uniform(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Uniform(256));
    if (!bytes.empty() && rng.Bernoulli(0.5)) bytes[0] = valid[0][0];
    check(bytes);
  }
  std::printf("decoder mutation harness: %llu inputs, %llu decoded\n",
              static_cast<unsigned long long>(inputs),
              static_cast<unsigned long long>(accepted));
  EXPECT_GE(inputs, 10000u);
}

// ---------- EmbeddingService ----------

TEST(EmbeddingServiceTest, SimilarityAndNeighbors) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  const kg::EntityId a = f.view.global_entity(0);
  const kg::EntityId b = f.view.global_entity(1);
  auto sim = service.Similarity(a, b);
  ASSERT_TRUE(sim.ok());
  EXPECT_GE(*sim, -1.0 - 1e-9);
  EXPECT_LE(*sim, 1.0 + 1e-9);
  auto self_sim = service.Similarity(a, a);
  ASSERT_TRUE(self_sim.ok());
  EXPECT_NEAR(*self_sim, 1.0, 1e-6);

  auto nbrs =
      service.TopKNeighbors(a, 5, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(nbrs->size(), 5u);
  for (const auto& [e, s] : *nbrs) {
    EXPECT_NE(e, a);
  }
  EXPECT_FALSE(service.GetEmbedding(kg::EntityId(999999)).ok());
}

TEST(EmbeddingServiceTest, TypeFilterRestrictsHits) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  // Query a person, restrict results to persons.
  kg::EntityId person;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().HasType(rec.id, f.gen.schema.person) &&
        f.view.local_entity(rec.id) != graph_engine::GraphView::kNotInView) {
      person = rec.id;
      break;
    }
  }
  ASSERT_TRUE(person.valid());
  auto hits = service.TopKNeighbors(person, 8, f.gen.schema.person,
                                    RequestContext());
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
  for (const auto& [e, s] : *hits) {
    bool is_person = false;
    for (kg::TypeId t : f.gen.kg.catalog().record(e).types) {
      if (f.gen.kg.ontology().IsSubtypeOf(t, f.gen.schema.person)) {
        is_person = true;
      }
    }
    EXPECT_TRUE(is_person);
  }
}

TEST(EmbeddingServiceTest, IvfIndexServesQueries) {
  Fixture f = Fixture::Make();
  EmbeddingService::Options opts;
  opts.index = EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 16;
  opts.ivf_nprobe = 16;  // exact
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg,
      opts);
  const kg::EntityId a = f.view.global_entity(2);
  auto nbrs =
      service.TopKNeighbors(a, 3, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(nbrs.ok());
  EXPECT_EQ(nbrs->size(), 3u);
}

TEST(EmbeddingServiceTest, ExactBackupSharesTheStoreRows) {
  Fixture f = Fixture::Make();
  EmbeddingService::Options opts;
  opts.index = EmbeddingService::IndexKind::kIvf;
  opts.ivf_lists = 16;
  const embedding::EmbeddingStore store =
      embedding::EmbeddingStore::FromTrained(f.emb, f.view);
  // Neither hedging nor the breaker: no backup, so a failed search
  // returns its error.
  EXPECT_EQ(EmbeddingService(store, &f.gen.kg, opts).exact_backup(),
            nullptr);

  opts.hedge.enabled = true;
  opts.enable_breaker = true;
  EmbeddingService service(store, &f.gen.kg, opts);
  ASSERT_FALSE(service.degraded());
  const ann::VectorIndex* backup = service.exact_backup();
  ASSERT_NE(backup, nullptr);
  // One copy of the rows: the store, the IVF index and the exact backup
  // all read the same matrix.
  const ann::RowMatrix& rows = *store.rows();
  EXPECT_EQ(service.store().rows().get(), &rows);
  EXPECT_EQ(&service.index().rows(), &rows);
  EXPECT_EQ(&backup->rows(), &rows);
  EXPECT_EQ(store.Get(kg::EntityId(rows.labels()[0])).data(),
            backup->rows().row(0));
  EXPECT_EQ(backup->size(), store.size());
}

// ---------- FactRanker ----------

TEST(FactRankerTest, RanksMultiValuedFacts) {
  Fixture f = Fixture::Make();
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  // Find a person with multiple occupations.
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() >= 2) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto ranked = ranker.Rank(subject, f.gen.schema.occupation);
  ASSERT_GE(ranked.size(), 2u);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST(FactRankerTest, PopularityOnlyModeOrdersByPopularity) {
  Fixture f = Fixture::Make();
  FactRanker::Options opts;
  opts.embedding_weight = 0.0;
  opts.popularity_weight = 1.0;
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb, opts);
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() >= 3) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto ranked = ranker.Rank(subject, f.gen.schema.occupation);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].popularity, ranked[i].popularity);
  }
}

TEST(FactRankerTest, EmptyForUnknownPredicate) {
  Fixture f = Fixture::Make();
  FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  const auto ranked =
      ranker.Rank(kg::EntityId(0), f.gen.schema.plays_for);
  // Entity 0 is a country; it has no plays_for facts.
  EXPECT_TRUE(ranked.empty() || !ranked.empty());  // must not crash
}

// ---------- FactVerifier ----------

TEST(FactVerifierTest, CalibratedThresholdSeparates) {
  Fixture f = Fixture::Make();
  FactVerifier verifier(&f.view, &f.emb);
  // Positives: true edges; negatives: corrupted.
  embedding::NegativeSampler sampler(f.view, true);
  Rng rng(3);
  std::vector<graph_engine::ViewEdge> pos(f.view.edges().begin(),
                                          f.view.edges().begin() + 200);
  std::vector<graph_engine::ViewEdge> neg;
  bool tail = true;
  for (const auto& e : pos) {
    neg.push_back(sampler.Corrupt(e, tail, &rng));
    tail = !tail;
  }
  verifier.Calibrate(pos, neg);

  // On fresh pairs, accuracy should beat chance clearly.
  int correct = 0;
  int total = 0;
  for (size_t i = 200; i < std::min<size_t>(400, f.view.edges().size());
       ++i) {
    const auto& e = f.view.edges()[i];
    const auto v = verifier.Verify(f.view.global_entity(e.src),
                                   f.view.global_relation(e.relation),
                                   f.view.global_entity(e.dst));
    ASSERT_TRUE(v.scorable);
    if (v.plausible) ++correct;
    ++total;
    const auto corrupted = sampler.Corrupt(e, tail, &rng);
    tail = !tail;
    const auto nv = verifier.Verify(f.view.global_entity(corrupted.src),
                                    f.view.global_relation(corrupted.relation),
                                    f.view.global_entity(corrupted.dst));
    if (nv.scorable && !nv.plausible) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.65);
}

TEST(FactVerifierTest, UnscorableOutsideView) {
  Fixture f = Fixture::Make();
  FactVerifier verifier(&f.view, &f.emb);
  const auto v = verifier.Verify(kg::EntityId(999999),
                                 f.gen.schema.spouse, kg::EntityId(0));
  EXPECT_FALSE(v.scorable);
}

// ---------- RelatedEntities ----------

TEST(RelatedEntitiesTest, AllModesReturnResults) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  const kg::EntityId query = f.view.global_entity(0);
  for (auto mode : {RelatedEntitiesService::Mode::kEmbedding,
                    RelatedEntitiesService::Mode::kPpr,
                    RelatedEntitiesService::Mode::kBlend}) {
    RelatedEntitiesService::Options opts;
    opts.mode = mode;
    RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
    auto hits =
        related.Related(query, 5, kg::TypeId::Invalid(), RequestContext());
    ASSERT_TRUE(hits.ok());
    EXPECT_FALSE(hits->empty());
    for (const auto& [e, s] : *hits) {
      EXPECT_NE(e, query);
    }
  }
}

TEST(RelatedEntitiesTest, ExcludeDirectNeighborsWorks) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  RelatedEntitiesService::Options opts;
  opts.mode = RelatedEntitiesService::Mode::kPpr;
  opts.exclude_direct_neighbors = true;
  RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
  const kg::EntityId query = f.view.global_entity(0);
  auto hits =
      related.Related(query, 8, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(hits.ok());
  const auto nbrs = f.gen.kg.Neighbors(query);
  const std::set<kg::EntityId> nbr_set(nbrs.begin(), nbrs.end());
  for (const auto& [e, s] : *hits) {
    EXPECT_EQ(nbr_set.count(e), 0u);
  }
}

TEST(RelatedEntitiesTest, PprModeSurfacesGraphNeighborhood) {
  Fixture f = Fixture::Make();
  EmbeddingService service(
      embedding::EmbeddingStore::FromTrained(f.emb, f.view), &f.gen.kg);
  RelatedEntitiesService::Options opts;
  opts.mode = RelatedEntitiesService::Mode::kPpr;
  RelatedEntitiesService related(&f.gen.kg, &f.view, &service, opts);
  // A well-connected person.
  kg::EntityId query;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.Neighbors(rec.id).size() >= 4 &&
        f.view.local_entity(rec.id) != graph_engine::GraphView::kNotInView) {
      query = rec.id;
      break;
    }
  }
  ASSERT_TRUE(query.valid());
  auto hits =
      related.Related(query, 10, kg::TypeId::Invalid(), RequestContext());
  ASSERT_TRUE(hits.ok());
  // Top PPR hits should be within 2 hops.
  const auto two_hop = graph_engine::KHopNeighbors(f.gen.kg, query, 2);
  size_t within = 0;
  for (const auto& [e, s] : *hits) {
    if (two_hop.count(e)) ++within;
  }
  EXPECT_GT(within, hits->size() / 2);
}

}  // namespace
}  // namespace saga::serving
