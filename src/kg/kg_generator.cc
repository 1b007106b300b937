#include "kg/kg_generator.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <string>

namespace saga::kg {

namespace {

constexpr std::array<const char*, 40> kFirstNames = {
    "Michael", "Sarah",  "James",  "Maria",   "David",  "Anna",
    "Robert",  "Linda",  "John",   "Emma",    "Carlos", "Sofia",
    "Ahmed",   "Yuki",   "Pierre", "Ingrid",  "Raj",    "Mei",
    "Tim",     "Laura",  "Kevin",  "Nadia",   "Oscar",  "Priya",
    "Hugo",    "Elena",  "Felix",  "Camila",  "Marco",  "Aisha",
    "Dmitri",  "Hana",   "Lucas",  "Freya",   "Mateo",  "Zara",
    "Henrik",  "Amara",  "Paulo",  "Michelle"};

constexpr std::array<const char*, 40> kLastNames = {
    "Jordan",    "Williams", "Smith",    "Garcia",   "Chen",
    "Johnson",   "Brown",    "Silva",    "Kim",      "Patel",
    "Muller",    "Rossi",    "Tanaka",   "Novak",    "Dubois",
    "Andersson", "Costa",    "Popov",    "Sato",     "Haddad",
    "Nguyen",    "Okafor",   "Jansen",   "Kowalski", "Moreau",
    "Ferrari",   "Yamamoto", "Petrov",   "Santos",   "Ali",
    "Larsen",    "Ibrahim",  "Fischer",  "Romano",   "Suzuki",
    "Volkov",    "Mendes",   "Hassan",   "Berg",     "Oliveira"};

constexpr std::array<const char*, 24> kCitySyllablesA = {
    "Spring", "River", "Oak",   "Maple", "Stone", "Clear", "Fair", "Green",
    "North",  "West",  "East",  "South", "Lake",  "Hill",  "Iron", "Silver",
    "Golden", "Red",   "Black", "White", "New",   "Old",   "High", "Bright"};

constexpr std::array<const char*, 16> kCitySyllablesB = {
    "field", "ton",   "ville", "burg",  "ford",  "haven", "port", "wood",
    "dale",  "brook", "mont",  "crest", "shore", "gate",  "view", "bridge"};

constexpr std::array<const char*, 16> kCountryStems = {
    "Vela", "Kora", "Mira", "Talu", "Zande", "Ostra", "Lumi", "Quira",
    "Bresk", "Navo", "Selva", "Tyrro", "Ardan", "Helvi", "Juno", "Pavi"};

constexpr std::array<const char*, 20> kMascots = {
    "Tigers",  "Eagles",   "Sharks",   "Wolves",  "Hawks",
    "Bulls",   "Raptors",  "Pirates",  "Comets",  "Knights",
    "Falcons", "Bears",    "Panthers", "Dragons", "Storm",
    "Titans",  "Rangers",  "Chargers", "Blaze",   "Royals"};

constexpr std::array<const char*, 20> kMovieAdjectives = {
    "Silent",  "Crimson", "Endless", "Hidden", "Broken",  "Golden",
    "Midnight", "Savage",  "Electric", "Frozen", "Burning", "Lost",
    "Final",   "Distant", "Shattered", "Rising", "Falling", "Secret",
    "Wild",    "Quiet"};

constexpr std::array<const char*, 20> kMovieNouns = {
    "Horizon", "Empire", "Garden",  "Symphony", "Mirror",  "Voyage",
    "Kingdom", "Echo",   "Harvest", "Protocol", "Paradox", "Summit",
    "Tide",    "Circuit", "Lantern", "Orchard",  "Frontier", "Cipher",
    "Monsoon", "Eclipse"};

constexpr std::array<const char*, 16> kSongWords = {
    "Love",  "Night", "Fire",  "Rain",  "Heart", "Dream", "Road",  "Light",
    "Ocean", "Star",  "Ghost", "Dance", "Wire",  "Glass", "Smoke", "Thunder"};

constexpr std::array<const char*, 16> kBandPrefixes = {
    "The",     "Electric", "Neon",   "Velvet", "Cosmic",  "Broken",
    "Silver",  "Midnight", "Plastic", "Golden", "Crystal", "Savage",
    "Hollow",  "Paper",    "Iron",   "Lunar"};

constexpr std::array<const char*, 16> kBandNouns = {
    "Foxes",   "Machines", "Rivers",  "Saints",  "Owls",    "Mirrors",
    "Engines", "Shadows",  "Tigers",  "Pilots",  "Castles", "Arrows",
    "Giants",  "Wolves",   "Lanterns", "Meteors"};

constexpr std::array<const char*, 16> kOccupationNames = {
    "basketball player", "actor",       "film director", "professor",
    "singer",            "guitarist",   "novelist",      "chef",
    "architect",         "journalist",  "physicist",     "painter",
    "footballer",        "comedian",    "producer",      "entrepreneur"};

constexpr std::array<const char*, 12> kGenreNames = {
    "drama",    "comedy", "thriller", "science fiction", "romance",
    "horror",   "action", "fantasy",  "documentary",     "mystery",
    "western",  "musical"};

std::string MakePersonAliases(const std::string& full_name,
                              std::vector<std::string>* aliases) {
  // "Michael Jordan" -> aliases "Michael Jordan", "M. Jordan".
  const size_t space = full_name.find(' ');
  if (space != std::string::npos && space > 0) {
    std::string initial;
    initial += full_name[0];
    initial += ". ";
    initial += full_name.substr(space + 1);
    aliases->push_back(initial);
  }
  return full_name;
}

}  // namespace

SchemaHandles InstallStandardSchema(KnowledgeGraph* kg) {
  Ontology& on = kg->ontology();
  SchemaHandles h;
  h.thing = on.AddType("Thing");
  h.person = on.AddType("Person", h.thing);
  h.athlete = on.AddType("Athlete", h.person);
  h.musician = on.AddType("Musician", h.person);
  h.actor = on.AddType("Actor", h.person);
  h.director = on.AddType("Director", h.person);
  h.professor = on.AddType("Professor", h.person);
  h.creative_work = on.AddType("CreativeWork", h.thing);
  h.movie = on.AddType("Movie", h.creative_work);
  h.song = on.AddType("Song", h.creative_work);
  h.organization = on.AddType("Organization", h.thing);
  h.sports_team = on.AddType("SportsTeam", h.organization);
  h.band = on.AddType("Band", h.organization);
  h.university = on.AddType("University", h.organization);
  h.place = on.AddType("Place", h.thing);
  h.city = on.AddType("City", h.place);
  h.country = on.AddType("Country", h.place);
  h.occupation_type = on.AddType("Occupation", h.thing);
  h.genre_type = on.AddType("Genre", h.thing);

  auto entity_pred = [&](const char* name, TypeId domain, TypeId range,
                         bool functional, const char* surface) {
    PredicateMeta m;
    m.name = name;
    m.domain = domain;
    m.range_kind = Value::Kind::kEntity;
    m.range_type = range;
    m.functional = functional;
    m.embedding_relevant = true;
    m.surface_form = surface;
    return on.AddPredicate(std::move(m));
  };
  auto literal_pred = [&](const char* name, TypeId domain, Value::Kind kind,
                          bool functional, const char* surface) {
    PredicateMeta m;
    m.name = name;
    m.domain = domain;
    m.range_kind = kind;
    m.functional = functional;
    // Literal facts (heights, library ids, follower counts) are exactly
    // the facts §2 says to filter out of embedding training views.
    m.embedding_relevant = false;
    m.surface_form = surface;
    return on.AddPredicate(std::move(m));
  };

  h.acted_in = entity_pred("acted_in", h.actor, h.movie, false, "movies");
  h.directed = entity_pred("directed", h.director, h.movie, false,
                           "movies directed");
  h.spouse = entity_pred("spouse", h.person, h.person, true, "spouse");
  h.plays_for =
      entity_pred("plays_for", h.athlete, h.sports_team, true, "team");
  h.member_of = entity_pred("member_of", h.musician, h.band, false, "band");
  h.performed = entity_pred("performed", h.band, h.song, false, "songs");
  h.team_city =
      entity_pred("team_city", h.sports_team, h.city, true, "home city");
  h.born_in = entity_pred("born_in", h.person, h.city, true, "birthplace");
  h.city_in = entity_pred("city_in", h.city, h.country, true, "country");
  h.works_at =
      entity_pred("works_at", h.professor, h.university, true, "university");
  h.occupation = entity_pred("occupation", h.person, h.occupation_type, false,
                             "occupation");
  h.genre = entity_pred("genre", h.movie, h.genre_type, false, "genre");
  h.studied_at =
      entity_pred("studied_at", h.person, h.university, false, "alma mater");

  h.date_of_birth = literal_pred("date_of_birth", h.person,
                                 Value::Kind::kDate, true, "date of birth");
  h.height_cm =
      literal_pred("height_cm", h.person, Value::Kind::kInt, true, "height");
  h.library_id = literal_pred("national_library_id", h.person,
                              Value::Kind::kString, true, "library id");
  h.follower_count = literal_pred("follower_count", h.person,
                                  Value::Kind::kInt, true, "followers");
  h.release_year = literal_pred("release_year", h.movie, Value::Kind::kInt,
                                true, "release year");
  h.population = literal_pred("population", h.city, Value::Kind::kInt, true,
                              "population");
  h.founded_year = literal_pred("founded_year", h.organization,
                                Value::Kind::kInt, true, "founded");
  h.net_worth = literal_pred("net_worth", h.person, Value::Kind::kDouble,
                             true, "net worth");
  return h;
}

GeneratedKg GenerateKg(const KgGeneratorConfig& config) {
  GeneratedKg out;
  KnowledgeGraph& kg = out.kg;
  out.schema = InstallStandardSchema(&kg);
  const SchemaHandles& h = out.schema;
  EntityCatalog& cat = kg.catalog();
  Rng rng(config.seed);

  const SourceId src_curated = kg.AddSource("curated", 0.95);
  const SourceId src_feeds = kg.AddSource("licensed_feeds", 0.8);
  const SourceId src_noise = kg.AddSource("web_crawl_legacy", 0.4);

  // Community structure: entities cluster by country so that the graph
  // has learnable block structure (real KGs are strongly assortative —
  // actors co-star within film industries, athletes play in national
  // leagues). Each non-place entity gets a community id; links stay
  // inside the community with probability `kCommunityAffinity`.
  constexpr double kCommunityAffinity = 0.85;

  // ---- Places ----
  constexpr int kNumCountries = 10;
  std::vector<EntityId> countries;
  for (int i = 0; i < kNumCountries; ++i) {
    std::string name = std::string(kCountryStems[i % kCountryStems.size()]);
    name += (i < static_cast<int>(kCountryStems.size())) ? "nia" : "land";
    if (i >= static_cast<int>(kCountryStems.size())) {
      name += std::to_string(i / kCountryStems.size());
    }
    countries.push_back(
        cat.AddEntity(name, {h.country}, 0.0, "A country."));
  }
  std::vector<EntityId> cities;
  std::vector<size_t> city_community;  // index into `countries`
  for (int i = 0; i < config.num_cities; ++i) {
    std::string name =
        std::string(kCitySyllablesA[i % kCitySyllablesA.size()]) +
        kCitySyllablesB[(i / kCitySyllablesA.size() + i) %
                        kCitySyllablesB.size()];
    EntityId city = cat.AddEntity(name, {h.city}, 0.0, "A city.");
    cities.push_back(city);
    const size_t community = rng.Uniform(countries.size());
    city_community.push_back(community);
    kg.AddFact(city, h.city_in, Value::Entity(countries[community]),
               src_curated);
    kg.AddFact(city, h.population,
               Value::Int(rng.UniformInt(20000, 9000000)), src_feeds);
  }

  // Picks an index into `pool` preferring items of `community`.
  auto community_pick = [&](const std::vector<EntityId>& pool,
                            const std::vector<size_t>& pool_community,
                            size_t community) -> EntityId {
    if (rng.Bernoulli(kCommunityAffinity)) {
      // Reservoir-sample a same-community member.
      EntityId chosen;
      size_t seen = 0;
      for (size_t i = 0; i < pool.size(); ++i) {
        if (pool_community[i] != community) continue;
        ++seen;
        if (rng.Uniform(seen) == 0) chosen = pool[i];
      }
      if (chosen.valid()) return chosen;
    }
    return pool[rng.Uniform(pool.size())];
  };

  // ---- Occupations & genres ----
  constexpr int kNumOccupations = 16;
  constexpr int kNumGenres = 12;
  std::vector<EntityId> occupations;
  for (int i = 0; i < kNumOccupations; ++i) {
    occupations.push_back(cat.AddEntity(
        kOccupationNames[i % kOccupationNames.size()], {h.occupation_type},
        0.0, "An occupation."));
  }
  std::vector<EntityId> genres;
  for (int i = 0; i < kNumGenres; ++i) {
    genres.push_back(cat.AddEntity(kGenreNames[i % kGenreNames.size()],
                                   {h.genre_type}, 0.0, "A genre."));
  }

  // ---- Universities ----
  constexpr int kNumUniversities = 20;
  std::vector<EntityId> universities;
  std::vector<size_t> university_community;
  for (int i = 0; i < kNumUniversities; ++i) {
    const size_t city_idx = rng.Uniform(cities.size());
    const std::string& city_name = cat.name(cities[city_idx]);
    std::string name = "University of " + city_name;
    if (cat.FindByName(name).ok()) name += " Tech";
    universities.push_back(
        cat.AddEntity(name, {h.university}, 0.0, "A university."));
    university_community.push_back(city_community[city_idx]);
    kg.AddFact(universities.back(), h.founded_year,
               Value::Int(rng.UniformInt(1820, 1990)), src_curated);
  }

  // ---- Teams ----
  std::vector<EntityId> teams;
  std::vector<size_t> team_community;
  for (int i = 0; i < config.num_teams; ++i) {
    const size_t city_idx = rng.Uniform(cities.size());
    EntityId city = cities[city_idx];
    std::string name =
        cat.name(city) + " " + kMascots[i % kMascots.size()];
    EntityId team = cat.AddEntity(name, {h.sports_team}, 0.0,
                                  "A professional sports team.");
    cat.AddAlias(team, kMascots[i % kMascots.size()]);  // "the Tigers"
    teams.push_back(team);
    team_community.push_back(city_community[city_idx]);
    kg.AddFact(team, h.team_city, Value::Entity(city), src_curated);
    kg.AddFact(team, h.founded_year,
               Value::Int(rng.UniformInt(1900, 2000)), src_curated);
  }

  // ---- Bands ----
  std::vector<EntityId> bands;
  std::vector<size_t> band_community;
  for (int i = 0; i < config.num_bands; ++i) {
    std::string name =
        std::string(kBandPrefixes[rng.Uniform(kBandPrefixes.size())]) + " " +
        kBandNouns[i % kBandNouns.size()];
    if (cat.FindByName(name).ok()) name += " " + std::to_string(i);
    bands.push_back(cat.AddEntity(name, {h.band}, 0.0, "A music band."));
    band_community.push_back(rng.Uniform(countries.size()));
    kg.AddFact(bands.back(), h.founded_year,
               Value::Int(rng.UniformInt(1960, 2015)), src_feeds);
  }

  // ---- Songs ----
  std::vector<EntityId> songs;
  for (int i = 0; i < config.num_songs; ++i) {
    std::string name = std::string(kSongWords[rng.Uniform(kSongWords.size())]) +
                       " " + kSongWords[i % kSongWords.size()];
    if (cat.FindByName(name).ok()) name += " (Part " + std::to_string(i) + ")";
    songs.push_back(cat.AddEntity(name, {h.song}, 0.0, "A song."));
  }
  for (EntityId song : songs) {
    kg.AddFact(rng.Pick(bands), h.performed, Value::Entity(song), src_feeds);
  }

  // ---- Movies ----
  std::vector<EntityId> movies;
  std::vector<size_t> movie_community;
  for (int i = 0; i < config.num_movies; ++i) {
    std::string name =
        "The " +
        std::string(kMovieAdjectives[rng.Uniform(kMovieAdjectives.size())]) +
        " " + kMovieNouns[i % kMovieNouns.size()];
    if (cat.FindByName(name).ok()) name += " " + std::to_string(1 + i % 3);
    EntityId movie = cat.AddEntity(name, {h.movie}, 0.0, "A film.");
    movies.push_back(movie);
    movie_community.push_back(rng.Uniform(countries.size()));
    kg.AddFact(movie, h.release_year,
               Value::Int(rng.UniformInt(1970, 2023)), src_curated);
    const int num_genres = 1 + static_cast<int>(rng.Uniform(2));
    for (int g = 0; g < num_genres; ++g) {
      kg.AddFact(movie, h.genre, Value::Entity(rng.Pick(genres)),
                 src_curated);
    }
  }

  // ---- Persons ----
  // Profession mix: weights for athlete/musician/actor/director/professor.
  const std::array<TypeId, 5> professions = {h.athlete, h.musician, h.actor,
                                             h.director, h.professor};
  const std::array<double, 5> profession_weights = {0.25, 0.25, 0.25, 0.10,
                                                    0.15};
  std::vector<EntityId> persons;
  std::vector<TypeId> person_profession;
  std::unordered_map<std::string, std::vector<EntityId>> by_full_name;

  auto pick_profession = [&]() {
    double u = rng.NextDouble();
    for (size_t i = 0; i < professions.size(); ++i) {
      if (u < profession_weights[i]) return professions[i];
      u -= profession_weights[i];
    }
    return professions.back();
  };

  for (int i = 0; i < config.num_persons; ++i) {
    const TypeId profession = pick_profession();
    std::string full_name;
    bool forced_ambiguous = false;
    if (!by_full_name.empty() &&
        rng.Bernoulli(config.ambiguous_name_fraction)) {
      // Reuse an existing name held by someone of a different profession.
      for (int attempt = 0; attempt < 8; ++attempt) {
        // person_profession is parallel to persons — index it with the
        // person's position, not the global catalog id.
        const size_t pos = rng.Uniform(persons.size());
        const EntityId other = persons[pos];
        if (person_profession[pos] != profession) {
          full_name = cat.name(other);
          forced_ambiguous = true;
          break;
        }
      }
    }
    if (full_name.empty()) {
      full_name =
          std::string(kFirstNames[rng.Uniform(kFirstNames.size())]) + " " +
          kLastNames[rng.Uniform(kLastNames.size())];
    }
    std::vector<std::string> aliases;
    MakePersonAliases(full_name, &aliases);
    EntityId person = cat.AddEntity(full_name, {h.person, profession}, 0.0,
                                    "A person.");
    for (const auto& a : aliases) cat.AddAlias(person, a);
    persons.push_back(person);
    person_profession.push_back(profession);
    by_full_name[full_name].push_back(person);
    (void)forced_ambiguous;
  }
  for (auto& [name, group] : by_full_name) {
    if (group.size() > 1) out.ambiguous_groups.push_back(group);
  }

  // Popularity: zipf over a random permutation so ids are uncorrelated
  // with rank.
  {
    std::vector<size_t> order(persons.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.Shuffle(&order);
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const double pop =
          1.0 / std::pow(static_cast<double>(rank + 1), 0.35);
      cat.SetPopularity(persons[order[rank]], pop);
    }
    // Non-person popularity is milder.
    auto assign_pop = [&](const std::vector<EntityId>& ids, double base) {
      for (EntityId e : ids) {
        cat.SetPopularity(e, base * (0.3 + 0.7 * rng.NextDouble()));
      }
    };
    assign_pop(movies, 0.6);
    assign_pop(teams, 0.7);
    assign_pop(bands, 0.5);
    assign_pop(cities, 0.4);
    assign_pop(songs, 0.3);
    assign_pop(universities, 0.35);
    assign_pop(countries, 0.5);
    assign_pop(occupations, 0.45);
    assign_pop(genres, 0.3);
  }

  // ---- Person relational facts ----
  auto add_occupation_for = [&](EntityId p, TypeId prof) {
    // Primary occupation aligned with profession; extra occupations with
    // decreasing probability (multi-valued fact-ranking workload).
    size_t primary = 0;
    if (prof == h.athlete) primary = 0;       // basketball player
    else if (prof == h.actor) primary = 1;    // actor
    else if (prof == h.director) primary = 2; // film director
    else if (prof == h.professor) primary = 3;
    else primary = 4;                         // singer
    kg.AddFact(p, h.occupation,
               Value::Entity(occupations[primary % occupations.size()]),
               src_curated);
    double extra_prob = 0.35;
    while (rng.Bernoulli(extra_prob)) {
      kg.AddFact(p, h.occupation, Value::Entity(rng.Pick(occupations)),
                 src_feeds, 0.8);
      extra_prob *= 0.5;
    }
  };

  std::vector<size_t> person_community(persons.size());
  for (size_t i = 0; i < persons.size(); ++i) {
    const EntityId p = persons[i];
    const TypeId prof = person_profession[i];
    const size_t city_idx = rng.Uniform(cities.size());
    const size_t community = city_community[city_idx];
    person_community[i] = community;
    kg.AddFact(p, h.born_in, Value::Entity(cities[city_idx]), src_curated);
    add_occupation_for(p, prof);
    if (rng.Bernoulli(0.25)) {
      kg.AddFact(
          p, h.studied_at,
          Value::Entity(community_pick(universities, university_community,
                                       community)),
          src_feeds, 0.85);
    }
    if (prof == h.athlete) {
      kg.AddFact(p, h.plays_for,
                 Value::Entity(community_pick(teams, team_community,
                                              community)),
                 src_curated);
    } else if (prof == h.musician) {
      kg.AddFact(p, h.member_of,
                 Value::Entity(community_pick(bands, band_community,
                                              community)),
                 src_curated);
    } else if (prof == h.actor) {
      const int n = 1 + static_cast<int>(rng.Uniform(5));
      for (int k = 0; k < n; ++k) {
        kg.AddFact(p, h.acted_in,
                   Value::Entity(community_pick(movies, movie_community,
                                                community)),
                   src_curated);
      }
    } else if (prof == h.director) {
      const int n = 1 + static_cast<int>(rng.Uniform(4));
      for (int k = 0; k < n; ++k) {
        kg.AddFact(p, h.directed,
                   Value::Entity(community_pick(movies, movie_community,
                                                community)),
                   src_curated);
      }
    } else if (prof == h.professor) {
      kg.AddFact(p, h.works_at,
                 Value::Entity(community_pick(universities,
                                              university_community,
                                              community)),
                 src_curated);
    }
  }
  // Spouses: pair up roughly two thirds of persons, preferring partners
  // from the same community.
  {
    std::vector<std::vector<size_t>> by_community(countries.size());
    for (size_t i = 0; i < persons.size(); ++i) {
      by_community[person_community[i]].push_back(i);
    }
    for (auto& group : by_community) {
      rng.Shuffle(&group);
      for (size_t i = 0; i + 1 < group.size() * 2 / 3; i += 2) {
        const EntityId a = persons[group[i]];
        const EntityId b = persons[group[i + 1]];
        kg.AddFact(a, h.spouse, Value::Entity(b), src_curated);
        kg.AddFact(b, h.spouse, Value::Entity(a), src_curated);
      }
    }
  }

  // ---- Functional literal facts with withheld / stale injection ----
  // Fraction of functional facts stored with an outdated value; the
  // fresh value is recorded as ground truth (staleness experiments).
  constexpr double kStaleFactFraction = 0.05;
  auto add_functional = [&](EntityId s, PredicateId p, Value true_value,
                            Value stale_value) {
    GroundTruthFact fact{s, p, true_value, true};
    const double u = rng.NextDouble();
    if (u < config.withheld_fact_fraction) {
      fact.in_kg = false;
      out.withheld_facts.push_back(fact);
    } else if (u < config.withheld_fact_fraction + kStaleFactFraction) {
      const TripleIdx idx =
          kg.AddFact(s, p, stale_value, src_feeds, 0.9, /*timestamp=*/1);
      out.stale_facts.push_back(StaleFact{idx, true_value});
    } else {
      kg.AddFact(s, p, true_value, src_curated);
    }
    out.functional_facts.push_back(fact);
  };

  for (EntityId p : persons) {
    const int year = static_cast<int>(rng.UniformInt(1930, 2004));
    const int month = static_cast<int>(rng.UniformInt(1, 12));
    const int day = static_cast<int>(rng.UniformInt(1, 28));
    add_functional(
        p, h.date_of_birth, Value::OfDate(Date::FromYmd(year, month, day)),
        Value::OfDate(Date::FromYmd(year - 1, month, day)));
    const int64_t height = rng.UniformInt(150, 210);
    int64_t stale_height = rng.UniformInt(150, 210);
    if (stale_height == height) stale_height = height + 1;  // stale must differ
    add_functional(p, h.height_cm, Value::Int(height),
                   Value::Int(stale_height));
    if (rng.Bernoulli(0.6)) {
      kg.AddFact(p, h.library_id,
                 Value::String("NLID" + std::to_string(100000 + p.value())),
                 src_feeds, 0.99);
    }
    if (rng.Bernoulli(0.5)) {
      kg.AddFact(p, h.follower_count,
                 Value::Int(rng.UniformInt(100, 50000000)), src_noise, 0.6);
    }
    if (rng.Bernoulli(0.2)) {
      kg.AddFact(p, h.net_worth,
                 Value::Double(rng.UniformDouble(1e5, 5e8)), src_noise, 0.5);
    }
  }

  // ---- Noise edges (open-domain junk the embedding view must survive) --
  // Wrong entity edges injected, as a fraction of the triples so far.
  constexpr double kNoiseFactFraction = 0.02;
  const size_t num_noise = static_cast<size_t>(
      static_cast<double>(kg.num_triples()) * kNoiseFactFraction);
  const std::array<PredicateId, 4> noise_preds = {h.acted_in, h.spouse,
                                                  h.member_of, h.plays_for};
  for (size_t i = 0; i < num_noise; ++i) {
    const EntityId s = persons[rng.Uniform(persons.size())];
    const PredicateId p = noise_preds[rng.Uniform(noise_preds.size())];
    EntityId o;
    if (p == h.acted_in) o = rng.Pick(movies);
    else if (p == h.spouse) o = rng.Pick(persons);
    else if (p == h.member_of) o = rng.Pick(bands);
    else o = rng.Pick(teams);
    const TripleIdx idx =
        kg.AddFact(s, p, Value::Entity(o), src_noise, 0.3);
    out.noise_triples.push_back(idx);
  }

  return out;
}

}  // namespace saga::kg
