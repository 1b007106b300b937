#include <gtest/gtest.h>

#include <cmath>

#include "common/file_util.h"
#include "kg/entity_catalog.h"
#include "kg/kg_generator.h"
#include "kg/knowledge_graph.h"
#include "kg/ontology.h"
#include "kg/triple_store.h"
#include "kg/value.h"

namespace saga::kg {
namespace {

// ---------- Ids ----------

TEST(IdsTest, InvalidByDefault) {
  EntityId e;
  EXPECT_FALSE(e.valid());
  EXPECT_EQ(e, EntityId::Invalid());
  EntityId f(3);
  EXPECT_TRUE(f.valid());
  EXPECT_NE(e, f);
  EXPECT_LT(EntityId(1), EntityId(2));
}

TEST(IdsTest, DistinctTagTypesAreDistinctTypes) {
  static_assert(!std::is_same_v<EntityId, PredicateId>);
  static_assert(!std::is_same_v<TypeId, SourceId>);
}

// ---------- Date / Value ----------

TEST(DateTest, RoundTripFormatParse) {
  Date d = Date::FromYmd(1979, 7, 23);
  EXPECT_EQ(d.ToString(), "1979-07-23");
  Date parsed;
  ASSERT_TRUE(Date::Parse("1979-07-23", &parsed));
  EXPECT_EQ(parsed, d);
  EXPECT_EQ(parsed.year(), 1979);
  EXPECT_EQ(parsed.month(), 7);
  EXPECT_EQ(parsed.day(), 23);
}

TEST(DateTest, RejectsMalformed) {
  Date d;
  EXPECT_FALSE(Date::Parse("1979/07/23", &d));
  EXPECT_FALSE(Date::Parse("79-07-23", &d));
  EXPECT_FALSE(Date::Parse("1979-13-23", &d));
  EXPECT_FALSE(Date::Parse("1979-07-32", &d));
  EXPECT_FALSE(Date::Parse("", &d));
  EXPECT_FALSE(Date::Parse("1979-07-2x", &d));
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Entity(EntityId(3)).is_entity());
  EXPECT_EQ(Value::Entity(EntityId(3)).entity(), EntityId(3));
  EXPECT_EQ(Value::String("x").string_value(), "x");
  EXPECT_EQ(Value::Int(-5).int_value(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::OfDate(Date::FromYmd(2000, 1, 2)).date_value(),
            Date::FromYmd(2000, 1, 2));
  EXPECT_TRUE(Value::Bool(true).bool_value());
  EXPECT_TRUE(Value::Int(1).is_numeric());
  EXPECT_FALSE(Value::String("1").is_numeric());
  EXPECT_TRUE(Value::String("1").is_literal());
}

TEST(ValueTest, EqualityDiscriminatesKindAndPayload) {
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_NE(Value::Int(5), Value::Int(6));
  EXPECT_NE(Value::Int(5), Value::Double(5.0));
  EXPECT_EQ(Value::Entity(EntityId(1)), Value::Entity(EntityId(1)));
  EXPECT_NE(Value::Entity(EntityId(1)), Value::Entity(EntityId(2)));
  EXPECT_NE(Value::Bool(true), Value::Bool(false));
}

TEST(ValueTest, HashMatchesEquality) {
  EXPECT_EQ(Value::String("abc").Hash(), Value::String("abc").Hash());
  EXPECT_NE(Value::String("abc").Hash(), Value::String("abd").Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Bool(true).Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Entity(EntityId(7)).ToString(), "E7");
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
  EXPECT_EQ(Value::OfDate(Date::FromYmd(1999, 12, 31)).ToString(),
            "1999-12-31");
}

TEST(ValueTest, SerializationRoundTrip) {
  const std::vector<Value> values = {
      Value::Entity(EntityId(9)), Value::String("hello"),
      Value::Int(-123456),        Value::Double(1.5e300),
      Value::OfDate(Date::FromYmd(1850, 2, 28)),
      Value::Bool(true)};
  std::string buf;
  BinaryWriter w(&buf);
  for (const Value& v : values) v.Serialize(&w);
  BinaryReader r(buf);
  for (const Value& expected : values) {
    Value got;
    ASSERT_TRUE(Value::Deserialize(&r, &got).ok());
    EXPECT_EQ(got, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(ValueTest, CopiesOwnTheirStrings) {
  Value a = Value::String("a string past the inline buffer of std::string");
  Value b = a;  // deep copy
  EXPECT_EQ(b, a);
  EXPECT_NE(&b.string_value(), &a.string_value());
  Value c = std::move(a);  // moved-from is the empty string
  EXPECT_EQ(c, b);
  EXPECT_EQ(a, Value::String(""));
  EXPECT_EQ(Value().string_value(), "");
  a = c;
  EXPECT_EQ(a, c);
  const Value& alias = a;
  a = alias;  // self-assignment keeps the string
  EXPECT_EQ(a, c);
  b = Value::Int(7);  // drops the string
  EXPECT_EQ(b, Value::Int(7));
  c = std::move(b);
  EXPECT_EQ(c.int_value(), 7);
  // Strings and scalars share one 8-byte slot beside the kind.
  EXPECT_EQ(sizeof(Value), 16u);
}

TEST(ValueTest, DoublesCompareAsDoubles) {
  EXPECT_EQ(Value::Double(0.0), Value::Double(-0.0));
  EXPECT_NE(Value::Double(std::nan("")), Value::Double(std::nan("")));
  EXPECT_EQ(Value::Double(-2.25).ToString(), "-2.25");
}

TEST(ValueTest, DeserializeRejectsBadKind) {
  std::string buf = "\xFF";
  BinaryReader r(buf);
  Value v;
  EXPECT_TRUE(Value::Deserialize(&r, &v).IsCorruption());
}

// ---------- Ontology ----------

TEST(OntologyTest, TypeHierarchy) {
  Ontology on;
  TypeId thing = on.AddType("Thing");
  TypeId person = on.AddType("Person", thing);
  TypeId athlete = on.AddType("Athlete", person);
  TypeId place = on.AddType("Place", thing);

  EXPECT_TRUE(on.IsSubtypeOf(athlete, person));
  EXPECT_TRUE(on.IsSubtypeOf(athlete, thing));
  EXPECT_TRUE(on.IsSubtypeOf(person, person));
  EXPECT_FALSE(on.IsSubtypeOf(person, athlete));
  EXPECT_FALSE(on.IsSubtypeOf(place, person));
  EXPECT_EQ(on.type_name(athlete), "Athlete");
}

TEST(OntologyTest, AddTypeIsIdempotent) {
  Ontology on;
  TypeId a = on.AddType("X");
  TypeId b = on.AddType("X");
  EXPECT_EQ(a, b);
  EXPECT_EQ(on.num_types(), 1u);
}

TEST(OntologyTest, PredicateRegistration) {
  Ontology on;
  TypeId person = on.AddType("Person");
  PredicateMeta meta;
  meta.name = "spouse";
  meta.domain = person;
  meta.range_kind = Value::Kind::kEntity;
  meta.range_type = person;
  meta.functional = true;
  meta.surface_form = "spouse";
  PredicateId spouse = on.AddPredicate(meta);
  EXPECT_EQ(on.predicate_name(spouse), "spouse");
  EXPECT_TRUE(on.predicate(spouse).functional);
  ASSERT_TRUE(on.FindPredicate("spouse").ok());
  EXPECT_EQ(on.FindPredicate("spouse").value(), spouse);
  EXPECT_FALSE(on.FindPredicate("nope").ok());
  ASSERT_TRUE(on.FindType("Person").ok());
  EXPECT_FALSE(on.FindType("Robot").ok());
}

TEST(OntologyTest, SerializationRoundTrip) {
  Ontology on;
  TypeId thing = on.AddType("Thing");
  TypeId person = on.AddType("Person", thing);
  PredicateMeta meta;
  meta.name = "height";
  meta.domain = person;
  meta.range_kind = Value::Kind::kInt;
  meta.functional = true;
  meta.embedding_relevant = false;
  meta.surface_form = "height";
  on.AddPredicate(meta);

  std::string buf;
  BinaryWriter w(&buf);
  on.Serialize(&w);
  BinaryReader r(buf);
  Ontology loaded;
  ASSERT_TRUE(Ontology::Deserialize(&r, &loaded).ok());
  EXPECT_EQ(loaded.num_types(), 2u);
  EXPECT_EQ(loaded.num_predicates(), 1u);
  EXPECT_TRUE(loaded.IsSubtypeOf(loaded.FindType("Person").value(),
                                 loaded.FindType("Thing").value()));
  const PredicateMeta& h =
      loaded.predicate(loaded.FindPredicate("height").value());
  EXPECT_EQ(h.range_kind, Value::Kind::kInt);
  EXPECT_FALSE(h.embedding_relevant);
  EXPECT_TRUE(h.functional);
}

// ---------- EntityCatalog ----------

TEST(CatalogTest, NormalizeSurface) {
  EXPECT_EQ(EntityCatalog::NormalizeSurface("  Michael   JORDAN "),
            "michael jordan");
  EXPECT_EQ(EntityCatalog::NormalizeSurface(""), "");
}

TEST(CatalogTest, AliasLookupFindsAllNamesakes) {
  EntityCatalog cat;
  EntityId a = cat.AddEntity("Michael Jordan", {}, 0.9);
  EntityId b = cat.AddEntity("Michael Jordan", {}, 0.2);
  const auto& hits = cat.LookupAlias("michael jordan");
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_NE(std::find(hits.begin(), hits.end(), a), hits.end());
  EXPECT_NE(std::find(hits.begin(), hits.end(), b), hits.end());
}

TEST(CatalogTest, ExtraAliases) {
  EntityCatalog cat;
  EntityId e = cat.AddEntity("Timothy Chen", {}, 0.5);
  cat.AddAlias(e, "Tim Chen");
  cat.AddAlias(e, "Tim Chen");  // duplicate is a no-op
  EXPECT_EQ(cat.record(e).aliases.size(), 2u);
  EXPECT_EQ(cat.LookupAlias("TIM chen").size(), 1u);
  EXPECT_TRUE(cat.LookupAlias("unknown name").empty());
}

TEST(CatalogTest, TypesAndPopularity) {
  EntityCatalog cat;
  EntityId e = cat.AddEntity("X", {TypeId(1)}, 0.3, "desc");
  EXPECT_TRUE(cat.HasType(e, TypeId(1)));
  EXPECT_FALSE(cat.HasType(e, TypeId(2)));
  cat.AddType(e, TypeId(2));
  EXPECT_TRUE(cat.HasType(e, TypeId(2)));
  cat.SetPopularity(e, 0.8);
  EXPECT_DOUBLE_EQ(cat.popularity(e), 0.8);
  cat.SetDescription(e, "new");
  EXPECT_EQ(cat.record(e).description, "new");
}

TEST(CatalogTest, SerializationRoundTrip) {
  EntityCatalog cat;
  EntityId e = cat.AddEntity("Alice Smith", {TypeId(0)}, 0.7, "a person");
  cat.AddAlias(e, "A. Smith");
  cat.AddEntity("Bob", {}, 0.1);

  std::string buf;
  BinaryWriter w(&buf);
  cat.Serialize(&w);
  BinaryReader r(buf);
  EntityCatalog loaded;
  ASSERT_TRUE(EntityCatalog::Deserialize(&r, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.name(EntityId(0)), "Alice Smith");
  EXPECT_EQ(loaded.LookupAlias("a. smith").size(), 1u);
  EXPECT_DOUBLE_EQ(loaded.popularity(EntityId(0)), 0.7);
  EXPECT_EQ(loaded.record(EntityId(0)).description, "a person");
}

// ---------- TripleStore ----------

class TripleStoreTest : public ::testing::Test {
 protected:
  Triple Make(uint64_t s, uint64_t p, Value o) {
    Triple t;
    t.subject = EntityId(s);
    t.predicate = PredicateId(p);
    t.object = std::move(o);
    return t;
  }
};

TEST_F(TripleStoreTest, IndexesServeAllAccessPaths) {
  TripleStore store;
  store.Add(Make(1, 0, Value::Entity(EntityId(2))));
  store.Add(Make(1, 1, Value::Int(42)));
  store.Add(Make(3, 0, Value::Entity(EntityId(2))));

  EXPECT_EQ(store.live_size(), 3u);
  EXPECT_EQ(store.BySubject(EntityId(1)).size(), 2u);
  EXPECT_EQ(store.BySubjectPredicate(EntityId(1), PredicateId(0)).size(), 1u);
  EXPECT_EQ(store.ByPredicate(PredicateId(0)).size(), 2u);
  EXPECT_EQ(store.ByObjectEntity(EntityId(2)).size(), 2u);
  EXPECT_TRUE(store.BySubject(EntityId(99)).empty());
}

TEST_F(TripleStoreTest, ContainsChecksFullTriple) {
  TripleStore store;
  store.Add(Make(1, 0, Value::Entity(EntityId(2))));
  EXPECT_TRUE(store.Contains(EntityId(1), PredicateId(0),
                             Value::Entity(EntityId(2))));
  EXPECT_FALSE(store.Contains(EntityId(1), PredicateId(0),
                              Value::Entity(EntityId(3))));
  EXPECT_FALSE(store.Contains(EntityId(2), PredicateId(0),
                              Value::Entity(EntityId(2))));
}

TEST_F(TripleStoreTest, RemoveTombstones) {
  TripleStore store;
  const TripleIdx idx = store.Add(Make(1, 0, Value::Int(1)));
  store.Add(Make(1, 0, Value::Int(2)));
  store.Remove(idx);
  store.Remove(idx);  // double remove is safe
  EXPECT_EQ(store.live_size(), 1u);
  EXPECT_FALSE(store.IsLive(idx));
  const auto hits = store.BySubjectPredicate(EntityId(1), PredicateId(0));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(store.triple(hits[0]).object, Value::Int(2));
}

TEST_F(TripleStoreTest, AccessPathsMatchAScanAcrossStorageBlocks) {
  TripleStore store;
  constexpr uint64_t kTriples = 10000;  // spans several storage blocks
  for (uint64_t i = 0; i < kTriples; ++i) {
    EXPECT_EQ(store.Add(Make(i % 97, i % 7, Value::Int(i))), i);
  }
  for (TripleIdx i = 0; i < kTriples; i += 5) store.Remove(i);
  for (TripleIdx i = 0; i < kTriples; ++i) {
    EXPECT_EQ(store.triple(i).object, Value::Int(i));
  }
  for (uint64_t s = 0; s < 97; ++s) {
    for (uint64_t p = 0; p < 7; ++p) {
      std::vector<TripleIdx> want;
      for (TripleIdx i = 0; i < kTriples; ++i) {
        if (store.IsLive(i) && i % 97 == s && i % 7 == p) want.push_back(i);
      }
      EXPECT_EQ(store.BySubjectPredicate(EntityId(s), PredicateId(p)), want);
      EXPECT_EQ(store.HasFact(EntityId(s), PredicateId(p)), !want.empty());
    }
    std::vector<TripleIdx> want;
    for (TripleIdx i = 0; i < kTriples; ++i) {
      if (store.IsLive(i) && i % 97 == s) want.push_back(i);
    }
    const auto live = store.BySubject(EntityId(s));
    EXPECT_EQ(std::vector<TripleIdx>(live.begin(), live.end()), want);
  }
}

TEST_F(TripleStoreTest, RemoveKeepsSubjectListLiveAndOrdered) {
  TripleStore store;
  std::vector<TripleIdx> added;
  for (int i = 0; i < 6; ++i) {
    added.push_back(store.Add(Make(1, i % 2, Value::Int(i))));
  }
  store.Add(Make(2, 1, Value::Int(9)));
  store.Remove(added[0]);
  store.Remove(added[3]);
  store.Remove(added[3]);
  const auto live = store.BySubject(EntityId(1));
  EXPECT_EQ(std::vector<TripleIdx>(live.begin(), live.end()),
            (std::vector<TripleIdx>{added[1], added[2], added[4], added[5]}));
  EXPECT_TRUE(store.HasFact(EntityId(1), PredicateId(1)));
  store.Remove(added[1]);
  store.Remove(added[5]);
  EXPECT_FALSE(store.HasFact(EntityId(1), PredicateId(1)));
  EXPECT_TRUE(store.HasFact(EntityId(1), PredicateId(0)));
  EXPECT_TRUE(store.HasFact(EntityId(2), PredicateId(1)));
  EXPECT_FALSE(store.HasFact(EntityId(3), PredicateId(0)));
  EXPECT_FALSE(store.Contains(EntityId(1), PredicateId(0), Value::Int(0)));
  EXPECT_TRUE(store.Contains(EntityId(1), PredicateId(0), Value::Int(2)));
}

TEST_F(TripleStoreTest, PredicateFrequenciesCountLiveOnly) {
  TripleStore store;
  store.Add(Make(1, 0, Value::Int(1)));
  const TripleIdx idx = store.Add(Make(2, 0, Value::Int(2)));
  store.Add(Make(3, 5, Value::Int(3)));
  store.Remove(idx);
  auto freq = store.PredicateFrequencies();
  EXPECT_EQ(freq[PredicateId(0)], 1u);
  EXPECT_EQ(freq[PredicateId(5)], 1u);
}

TEST_F(TripleStoreTest, SerializationDropsTombstones) {
  TripleStore store;
  store.Add(Make(1, 0, Value::Int(1)));
  const TripleIdx dead = store.Add(Make(2, 0, Value::Int(2)));
  store.Remove(dead);
  std::string buf;
  BinaryWriter w(&buf);
  store.Serialize(&w);
  BinaryReader r(buf);
  TripleStore loaded;
  ASSERT_TRUE(TripleStore::Deserialize(&r, &loaded).ok());
  EXPECT_EQ(loaded.live_size(), 1u);
  EXPECT_EQ(loaded.size(), 1u);
}

// ---------- KnowledgeGraph ----------

TEST(KnowledgeGraphTest, SourcesAndFacts) {
  KnowledgeGraph kg;
  SourceId src = kg.AddSource("curated", 0.9);
  EXPECT_EQ(kg.AddSource("curated", 0.9), src);  // idempotent
  EXPECT_EQ(kg.source_name(src), "curated");
  EXPECT_DOUBLE_EQ(kg.source_quality(src), 0.9);
  EXPECT_TRUE(kg.FindSource("curated").ok());
  EXPECT_FALSE(kg.FindSource("nope").ok());

  EntityId a = kg.catalog().AddEntity("A", {});
  EntityId b = kg.catalog().AddEntity("B", {});
  PredicateMeta meta;
  meta.name = "knows";
  PredicateId knows = kg.ontology().AddPredicate(meta);
  kg.AddFact(a, knows, Value::Entity(b), src);
  EXPECT_EQ(kg.num_triples(), 1u);
  EXPECT_EQ(kg.ObjectsOf(a, knows).size(), 1u);
  EXPECT_EQ(kg.Neighbors(a), (std::vector<EntityId>{b}));
  EXPECT_EQ(kg.Neighbors(b), (std::vector<EntityId>{a}));
}

TEST(KnowledgeGraphTest, TimestampsAreMonotone) {
  KnowledgeGraph kg;
  const int64_t t1 = kg.NowTimestamp();
  const int64_t t2 = kg.NowTimestamp();
  EXPECT_GT(t2, t1);
  kg.AdvanceClock(1000);
  EXPECT_GT(kg.NowTimestamp(), 1000);
}

TEST(KnowledgeGraphTest, SaveLoadRoundTrip) {
  auto dir = MakeTempDir("saga_kg_test");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "kg.bin");
  {
    KgGeneratorConfig config;
    config.num_persons = 50;
    config.num_movies = 20;
    GeneratedKg gen = GenerateKg(config);
    ASSERT_TRUE(gen.kg.Save(path).ok());
    auto loaded = KnowledgeGraph::Load(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->num_entities(), gen.kg.num_entities());
    EXPECT_EQ(loaded->num_triples(), gen.kg.num_triples());
    EXPECT_EQ(loaded->ontology().num_predicates(),
              gen.kg.ontology().num_predicates());
    EXPECT_EQ(loaded->num_sources(), gen.kg.num_sources());
  }
  EXPECT_TRUE(RemoveDirRecursively(*dir).ok());
}

TEST(KnowledgeGraphTest, LoadRejectsGarbage) {
  auto dir = MakeTempDir("saga_kg_bad");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "bad.bin");
  ASSERT_TRUE(WriteStringToFile(path, "not a kg snapshot").ok());
  EXPECT_FALSE(KnowledgeGraph::Load(path).ok());
  EXPECT_TRUE(RemoveDirRecursively(*dir).ok());
}

TEST(KnowledgeGraphTest, LoadRejectsOversizedTypeCount) {
  auto dir = MakeTempDir("saga_kg_types");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "bad.kg");
  // A snapshot header, an empty ontology, then one catalog entity that
  // claims 2^61 types with a few bytes of input left.
  std::string buf;
  BinaryWriter w(&buf);
  w.PutFixed32(0x5341474Bu);  // "SAGK"
  w.PutFixed32(1);            // snapshot version
  w.PutVarint64(0);           // ontology types
  w.PutVarint64(0);           // ontology predicates
  w.PutVarint64(1);           // catalog entities
  w.PutString("Alice");
  w.PutString("");
  w.PutDouble(0.5);
  w.PutVarint64(uint64_t{1} << 61);
  w.PutVarint64(0);
  ASSERT_TRUE(WriteStringToFile(path, buf).ok());
  auto loaded = KnowledgeGraph::Load(path);
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status();
  EXPECT_TRUE(RemoveDirRecursively(*dir).ok());
}

}  // namespace
}  // namespace saga::kg
