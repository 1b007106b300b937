#include "websim/corpus_generator.h"

#include <array>
#include <unordered_map>

#include "common/hash.h"
#include "common/string_util.h"

namespace saga::websim {

namespace {

struct DomainInfo {
  const char* name;
  double quality;
};

constexpr std::array<DomainInfo, 5> kDomains = {{
    {"wikipedia-like.example.org", 0.95},
    {"sports-almanac.example.org", 0.85},
    {"starfacts.example.com", 0.65},
    {"fanwiki.example.info", 0.5},
    {"celebgossip.example.net", 0.3},
}};

constexpr std::array<const char*, 12> kMonthNames = {
    "January",   "February", "March",    "April",
    "May",       "June",     "July",     "August",
    "September", "October",  "November", "December"};

constexpr std::array<const char*, 24> kNoiseWords = {
    "market",  "weather", "recipe",  "garden", "travel",  "finance",
    "update",  "review",  "howto",   "deal",   "coupon",  "stream",
    "forum",   "thread",  "gadget",  "mobile", "crypto",  "fitness",
    "stocks",  "lottery", "horoscope", "quiz", "rumor",   "trend"};

/// Accumulates body text while recording gold mention spans.
class DocBuilder {
 public:
  void Text(std::string_view s) { body_ += s; }

  void Mention(kg::EntityId entity, std::string_view surface) {
    GoldMention m;
    m.begin = body_.size();
    m.end = m.begin + surface.size();
    m.entity = entity;
    gold_.push_back(m);
    body_ += surface;
  }

  std::string TakeBody() { return std::move(body_); }
  std::vector<GoldMention> TakeGold() { return std::move(gold_); }

 private:
  std::string body_;
  std::vector<GoldMention> gold_;
};

uint64_t FactKey(kg::EntityId e, kg::PredicateId p) {
  return HashCombine(e.value(), p.value());
}

}  // namespace

DocId WebCorpus::Add(WebDocument doc) {
  doc.id = static_cast<DocId>(docs_.size());
  docs_.push_back(std::move(doc));
  return docs_.back().id;
}

std::string RenderDateLong(kg::Date date) {
  return std::string(kMonthNames[(date.month() - 1) % 12]) + " " +
         std::to_string(date.day()) + ", " + std::to_string(date.year());
}

bool ParseDateLong(std::string_view text, kg::Date* out) {
  // "<Month> <day>, <year>"
  const size_t space1 = text.find(' ');
  if (space1 == std::string_view::npos) return false;
  const std::string_view month_name = text.substr(0, space1);
  int month = 0;
  for (size_t i = 0; i < kMonthNames.size(); ++i) {
    if (month_name == kMonthNames[i]) {
      month = static_cast<int>(i) + 1;
      break;
    }
  }
  if (month == 0) return false;
  const size_t comma = text.find(", ", space1);
  if (comma == std::string_view::npos) return false;
  int day = 0;
  for (size_t i = space1 + 1; i < comma; ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    day = day * 10 + (text[i] - '0');
  }
  int year = 0;
  for (size_t i = comma + 2; i < text.size() && year < 100000; ++i) {
    if (text[i] < '0' || text[i] > '9') break;
    year = year * 10 + (text[i] - '0');
  }
  if (day < 1 || day > 31 || year < 1000) return false;
  *out = kg::Date::FromYmd(year, month, day);
  return true;
}

WebCorpus GenerateCorpus(const kg::GeneratedKg& gen,
                         const CorpusGeneratorConfig& config) {
  const kg::KnowledgeGraph& kg = gen.kg;
  const kg::SchemaHandles& h = gen.schema;
  const kg::EntityCatalog& cat = kg.catalog();
  Rng rng(config.seed);
  WebCorpus corpus;

  // True functional fact values (including withheld ones).
  std::unordered_map<uint64_t, kg::Value> truth;
  for (const auto& f : gen.functional_facts) {
    truth.emplace(FactKey(f.subject, f.predicate), f.object);
  }
  // Namesake map for confusable wrong evidence.
  std::unordered_map<kg::EntityId, kg::EntityId> namesake;
  for (const auto& group : gen.ambiguous_groups) {
    for (size_t i = 0; i < group.size(); ++i) {
      namesake[group[i]] = group[(i + 1) % group.size()];
    }
  }

  auto true_value = [&](kg::EntityId e,
                        kg::PredicateId p) -> const kg::Value* {
    auto it = truth.find(FactKey(e, p));
    return it == truth.end() ? nullptr : &it->second;
  };

  auto first_entity_object = [&](kg::EntityId e,
                                 kg::PredicateId p) -> kg::EntityId {
    for (const kg::Value& v : kg.ObjectsOf(e, p)) {
      if (v.is_entity()) return v.entity();
    }
    return kg::EntityId::Invalid();
  };

  // ---- Entity (biography) pages ----
  // Biography-style pages per person entity (popular entities get
  // several, across domains of varying quality).
  constexpr double kEntityPageRate = 1.0;
  constexpr int kMaxPagesPerEntity = 3;
  // Probability a page omits its infobox (text-only evidence).
  constexpr double kNoInfoboxRate = 0.3;
  for (const auto& rec : cat.records()) {
    const bool is_person = cat.HasType(rec.id, h.person);
    if (!is_person) continue;
    if (!rng.Bernoulli(kEntityPageRate)) continue;
    const int num_pages =
        1 + static_cast<int>(rng.Uniform(static_cast<uint64_t>(
                std::max(1.0, rec.popularity * kMaxPagesPerEntity))));
    for (int page = 0; page < num_pages; ++page) {
      const DomainInfo& domain =
          page == 0 ? kDomains[rng.Uniform(2)]  // first page: high quality
                    : kDomains[rng.Uniform(kDomains.size())];
      WebDocument doc;
      doc.domain = domain.name;
      doc.quality = domain.quality;
      doc.timestamp = 100 + static_cast<int64_t>(rng.Uniform(900));
      doc.url = "https://" + doc.domain + "/wiki/" +
                kg::EntityCatalog::NormalizeSurface(rec.canonical_name) +
                "-" + std::to_string(rec.id.value()) + "-" +
                std::to_string(page);
      doc.title = rec.canonical_name + " - Profile";

      DocBuilder b;
      // Lead sentence: name + profession + birthplace (context that
      // disambiguates namesakes).
      b.Mention(rec.id, rec.canonical_name);
      const kg::EntityId occupation =
          first_entity_object(rec.id, h.occupation);
      if (occupation.valid()) {
        b.Text(" is a ");
        b.Mention(occupation, cat.name(occupation));
      }
      const kg::EntityId born_city = first_entity_object(rec.id, h.born_in);
      if (born_city.valid()) {
        b.Text(" from ");
        b.Mention(born_city, cat.name(born_city));
      }
      b.Text(". ");

      // Profession-specific relational sentences.
      const kg::EntityId team = first_entity_object(rec.id, h.plays_for);
      if (team.valid()) {
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" plays for the ");
        b.Mention(team, cat.name(team));
        b.Text(". ");
      }
      const kg::EntityId band = first_entity_object(rec.id, h.member_of);
      if (band.valid()) {
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" performs with ");
        b.Mention(band, cat.name(band));
        b.Text(". ");
      }
      const kg::EntityId university = first_entity_object(rec.id, h.works_at);
      if (university.valid()) {
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" teaches at ");
        b.Mention(university, cat.name(university));
        b.Text(". ");
      }
      int movies_mentioned = 0;
      for (const kg::Value& v : kg.ObjectsOf(rec.id, h.acted_in)) {
        if (!v.is_entity() || movies_mentioned >= 3) break;
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" starred in ");
        b.Mention(v.entity(), cat.name(v.entity()));
        b.Text(". ");
        ++movies_mentioned;
      }
      for (const kg::Value& v : kg.ObjectsOf(rec.id, h.directed)) {
        if (!v.is_entity() || movies_mentioned >= 3) break;
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" directed ");
        b.Mention(v.entity(), cat.name(v.entity()));
        b.Text(". ");
        ++movies_mentioned;
      }
      const kg::EntityId spouse = first_entity_object(rec.id, h.spouse);
      if (spouse.valid() && rng.Bernoulli(0.7)) {
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" is married to ");
        b.Mention(spouse, cat.name(spouse));
        b.Text(". ");
      }

      // Date of birth: true value, or (with wrong_fact_rate) a wrong
      // one — preferring the namesake's true DOB when one exists.
      const kg::Value* dob = true_value(rec.id, h.date_of_birth);
      if (dob != nullptr) {
        kg::Value rendered = *dob;
        if (rng.Bernoulli(config.wrong_fact_rate)) {
          auto ns = namesake.find(rec.id);
          const kg::Value* ns_dob =
              ns == namesake.end()
                  ? nullptr
                  : true_value(ns->second, h.date_of_birth);
          if (ns_dob != nullptr) {
            rendered = *ns_dob;
          } else {
            kg::Date d = dob->date_value();
            rendered = kg::Value::OfDate(
                kg::Date::FromYmd(d.year() + 1, d.month(), d.day()));
          }
        }
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" was born on " + RenderDateLong(rendered.date_value()) +
               ". ");
        if (!rng.Bernoulli(kNoInfoboxRate)) {
          doc.infobox.emplace_back("born", rendered.date_value().ToString());
        }
      }
      const kg::Value* height = true_value(rec.id, h.height_cm);
      if (height != nullptr && rng.Bernoulli(0.8)) {
        kg::Value rendered = *height;
        if (rng.Bernoulli(config.wrong_fact_rate)) {
          rendered = kg::Value::Int(height->int_value() +
                                    rng.UniformInt(2, 15));
        }
        b.Mention(rec.id, rec.canonical_name);
        b.Text(" is " + std::to_string(rendered.int_value()) +
               " cm tall. ");
        if (!rng.Bernoulli(kNoInfoboxRate)) {
          doc.infobox.emplace_back("height_cm",
                                   std::to_string(rendered.int_value()));
        }
      }
      if (!doc.infobox.empty() || !rng.Bernoulli(kNoInfoboxRate)) {
        doc.infobox.emplace_back("name", rec.canonical_name);
      }

      doc.body = b.TakeBody();
      doc.gold_mentions = b.TakeGold();
      corpus.Add(std::move(doc));
    }
  }

  // ---- News pages (co-mentions of related entities) ----
  const size_t num_entities = cat.size();
  for (int i = 0; i < config.num_news_pages && num_entities > 0; ++i) {
    // Seed on a random person and walk its neighborhood.
    kg::EntityId seed;
    for (int attempt = 0; attempt < 32; ++attempt) {
      kg::EntityId candidate(rng.Uniform(num_entities));
      if (cat.HasType(candidate, h.person)) {
        seed = candidate;
        break;
      }
    }
    if (!seed.valid()) continue;
    std::vector<kg::EntityId> others = kg.Neighbors(seed);
    DocBuilder b;
    b.Text("In recent news, ");
    b.Mention(seed, cat.name(seed));
    size_t mentioned = 0;
    for (kg::EntityId other : others) {
      if (mentioned >= 3) break;
      b.Text(mentioned == 0 ? " appeared together with " : " and ");
      b.Mention(other, cat.name(other));
      ++mentioned;
    }
    b.Text(". The event drew wide attention. ");

    WebDocument doc;
    const DomainInfo& domain = kDomains[rng.Uniform(kDomains.size())];
    doc.domain = domain.name;
    doc.quality = domain.quality;
    doc.timestamp = 100 + static_cast<int64_t>(rng.Uniform(900));
    doc.url = "https://" + doc.domain + "/news/" + std::to_string(i);
    doc.title = "News roundup " + std::to_string(i) + ": " + cat.name(seed);
    doc.body = b.TakeBody();
    doc.gold_mentions = b.TakeGold();
    corpus.Add(std::move(doc));
  }

  // ---- Noise pages (no KG entities) ----
  for (int i = 0; i < config.num_noise_pages; ++i) {
    WebDocument doc;
    const DomainInfo& domain = kDomains[rng.Uniform(kDomains.size())];
    doc.domain = domain.name;
    doc.quality = domain.quality * 0.5;
    doc.timestamp = 100 + static_cast<int64_t>(rng.Uniform(900));
    doc.url = "https://" + doc.domain + "/misc/" + std::to_string(i);
    doc.title = "Miscellaneous page " + std::to_string(i);
    std::string body;
    const int num_words = 30 + static_cast<int>(rng.Uniform(60));
    for (int w = 0; w < num_words; ++w) {
      body += kNoiseWords[rng.Uniform(kNoiseWords.size())];
      body += (w % 12 == 11) ? ". " : " ";
    }
    doc.body = std::move(body);
    corpus.Add(std::move(doc));
  }

  return corpus;
}

std::vector<DocId> MutateCorpus(WebCorpus* corpus, double fraction,
                                Rng* rng) {
  std::vector<DocId> changed;
  for (DocId id = 0; id < corpus->size(); ++id) {
    if (!rng->Bernoulli(fraction)) continue;
    WebDocument* doc = corpus->mutable_doc(id);
    doc->body += " Update " + std::to_string(doc->version + 1) +
                 ": this page was revised with additional details. ";
    ++doc->version;
    ++doc->timestamp;
    changed.push_back(id);
  }
  return changed;
}

}  // namespace saga::websim
