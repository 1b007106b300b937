#ifndef SAGA_KG_KG_GENERATOR_H_
#define SAGA_KG_KG_GENERATOR_H_

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "kg/knowledge_graph.h"

namespace saga::kg {

/// Ids of the standard open-domain schema created by the generator.
/// Kept in a struct so tests and benches reference schema elements
/// without string lookups.
struct SchemaHandles {
  // Types.
  TypeId thing;
  TypeId person;
  TypeId athlete;
  TypeId musician;
  TypeId actor;
  TypeId director;
  TypeId professor;
  TypeId creative_work;
  TypeId movie;
  TypeId song;
  TypeId organization;
  TypeId sports_team;
  TypeId band;
  TypeId university;
  TypeId place;
  TypeId city;
  TypeId country;
  TypeId occupation_type;
  TypeId genre_type;

  // Entity-ranged predicates (embedding-relevant).
  PredicateId acted_in;
  PredicateId directed;
  PredicateId spouse;
  PredicateId plays_for;
  PredicateId member_of;
  PredicateId performed;
  PredicateId team_city;
  PredicateId born_in;
  PredicateId city_in;
  PredicateId works_at;
  PredicateId occupation;
  PredicateId genre;
  PredicateId studied_at;

  // Literal-ranged predicates (filtered out of embedding views).
  PredicateId date_of_birth;
  PredicateId height_cm;
  PredicateId library_id;
  PredicateId follower_count;
  PredicateId release_year;
  PredicateId population;
  PredicateId founded_year;
  PredicateId net_worth;
};

/// Registers the standard schema into `kg` and returns the handles.
SchemaHandles InstallStandardSchema(KnowledgeGraph* kg);

struct KgGeneratorConfig {
  uint64_t seed = 42;
  int num_persons = 1000;
  int num_movies = 250;
  int num_songs = 200;
  int num_teams = 24;
  int num_bands = 40;
  int num_cities = 50;

  /// Fraction of persons deliberately given a full name already used by
  /// another person of a *different* profession — the "Michael Jordan"
  /// ambiguity the annotation service must resolve with context.
  double ambiguous_name_fraction = 0.06;

  /// Fraction of functional literal facts (DOB etc.) that are known to
  /// the generator but withheld from the KG: the coverage gaps ODKE must
  /// find and fill.
  double withheld_fact_fraction = 0.15;
};

/// A fact the generator knows to be true. `in_kg` tells whether it was
/// actually inserted (false => withheld, an ODKE target).
struct GroundTruthFact {
  EntityId subject;
  PredicateId predicate;
  Value object;
  bool in_kg = true;
};

/// A fact present in the KG with an outdated value.
struct StaleFact {
  TripleIdx triple;
  Value fresh_value;
};

/// Generator output: the KG plus everything the evaluation harness needs
/// to score downstream components against known truth.
struct GeneratedKg {
  KnowledgeGraph kg;
  SchemaHandles schema;

  /// All true functional literal facts (DOB, heights, ...), including
  /// withheld ones.
  std::vector<GroundTruthFact> functional_facts;
  /// Subset of functional_facts withheld from the KG.
  std::vector<GroundTruthFact> withheld_facts;
  std::vector<StaleFact> stale_facts;

  /// Groups of distinct entities sharing a canonical name.
  std::vector<std::vector<EntityId>> ambiguous_groups;

  /// Noise triples injected into the KG (known-wrong entity edges);
  /// fact verification should score these low.
  std::vector<TripleIdx> noise_triples;
};

/// Builds a deterministic synthetic open-domain KG: people, movies,
/// songs, teams, bands, places with realistic link structure, aliases,
/// popularity skew, numeric/noisy predicates, ambiguity, withheld and
/// stale facts. See DESIGN.md §1 for why this substitutes for the
/// paper's production KG.
GeneratedKg GenerateKg(const KgGeneratorConfig& config);

}  // namespace saga::kg

#endif  // SAGA_KG_KG_GENERATOR_H_
