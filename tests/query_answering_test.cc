#include <gtest/gtest.h>

#include <barrier>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/context_reranker.h"
#include "annotation/query_answering.h"
#include "common/request_context.h"
#include "common/string_util.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/fact_ranker.h"

namespace saga::annotation {
namespace {

struct QaFixture {
  kg::GeneratedKg gen;
  graph_engine::GraphView view;
  embedding::TrainedEmbeddings emb;

  static QaFixture Make() {
    kg::KgGeneratorConfig config;
    config.num_persons = 120;
    config.num_movies = 40;
    config.num_songs = 20;
    config.num_teams = 6;
    config.num_bands = 8;
    config.num_cities = 12;
    QaFixture f{kg::GenerateKg(config), {}, {}};
    f.view = graph_engine::GraphView::Build(f.gen.kg,
                                            graph_engine::ViewDefinition());
    embedding::TrainingConfig tc;
    tc.dim = 16;
    tc.epochs = 3;
    embedding::InMemoryTrainer trainer(tc);
    f.emb = trainer.Train(f.view);
    return f;
  }
};

/// Asks under `RequestContext()`: no deadline, so Ask always answers.
QueryAnswerer::Answer AskUnbounded(const QueryAnswerer& answerer,
                                   std::string_view query) {
  auto answer = answerer.Ask(query, RequestContext());
  EXPECT_TRUE(answer.ok()) << answer.status();
  return answer.ok() ? std::move(answer).value() : QueryAnswerer::Answer();
}

kg::EntityId FindUnambiguous(const QaFixture& f, kg::TypeId type,
                             kg::PredicateId must_have) {
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (!f.gen.kg.catalog().HasType(rec.id, type)) continue;
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (f.gen.kg.ObjectsOf(rec.id, must_have).empty()) continue;
    return rec.id;
  }
  return kg::EntityId::Invalid();
}

TEST(QueryAnsweringTest, AnswersActorMoviesQuery) {
  QaFixture f = QaFixture::Make();
  serving::FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  QueryAnswerer answerer(&f.gen.kg, &ranker);

  const kg::EntityId actor =
      FindUnambiguous(f, f.gen.schema.actor, f.gen.schema.acted_in);
  ASSERT_TRUE(actor.valid());
  const auto answer = AskUnbounded(
      answerer, ToLower(f.gen.kg.catalog().name(actor)) + " movies");
  ASSERT_TRUE(answer.answered) << answer.explanation;
  EXPECT_EQ(answer.subject, actor);
  EXPECT_EQ(answer.predicate, f.gen.schema.acted_in);
  EXPECT_EQ(answer.facts.size(),
            f.gen.kg.ObjectsOf(actor, f.gen.schema.acted_in).size());
  for (const auto& fact : answer.facts) {
    EXPECT_TRUE(f.gen.kg.triples().Contains(actor, f.gen.schema.acted_in,
                                            fact.object));
  }
}

TEST(QueryAnsweringTest, AnswersLiteralFactQuery) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  // Person with a DOB in the KG.
  kg::EntityId subject;
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (!f.gen.kg.ObjectsOf(rec.id, f.gen.schema.date_of_birth).empty()) {
      subject = rec.id;
      break;
    }
  }
  ASSERT_TRUE(subject.valid());
  const auto answer = AskUnbounded(
      answerer, ToLower(f.gen.kg.catalog().name(subject)) + " date of birth");
  ASSERT_TRUE(answer.answered) << answer.explanation;
  EXPECT_EQ(answer.predicate, f.gen.schema.date_of_birth);
  ASSERT_EQ(answer.facts.size(), 1u);
  EXPECT_EQ(answer.facts[0].object.kind(), kg::Value::Kind::kDate);
}

TEST(QueryAnsweringTest, QueryContextDisambiguatesNamesakes) {
  // A player and a professor sharing a name: "X team" should resolve
  // to the athlete, "X university" to the professor.
  kg::KnowledgeGraph kg;
  kg::SchemaHandles h = kg::InstallStandardSchema(&kg);
  const kg::SourceId src = kg.AddSource("test", 1.0);
  kg::EntityId player = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.athlete}, 0.9, "basketball player");
  kg::EntityId professor = kg.catalog().AddEntity(
      "Michael Jordan", {h.person, h.professor}, 0.3, "professor");
  kg::EntityId team =
      kg.catalog().AddEntity("Springfield Bulls", {h.sports_team}, 0.5);
  kg::EntityId uni =
      kg.catalog().AddEntity("University of Oakdale", {h.university}, 0.4);
  kg.AddFact(player, h.plays_for, kg::Value::Entity(team), src);
  kg.AddFact(professor, h.works_at, kg::Value::Entity(uni), src);

  QueryAnswerer answerer(&kg, nullptr);
  const auto team_answer = AskUnbounded(answerer, "michael jordan team");
  ASSERT_TRUE(team_answer.answered) << team_answer.explanation;
  EXPECT_EQ(team_answer.subject, player);
  EXPECT_EQ(team_answer.facts[0].object, kg::Value::Entity(team));

  const auto uni_answer =
      AskUnbounded(answerer, "michael jordan university");
  ASSERT_TRUE(uni_answer.answered) << uni_answer.explanation;
  EXPECT_EQ(uni_answer.subject, professor);
  EXPECT_EQ(uni_answer.facts[0].object, kg::Value::Entity(uni));
}

TEST(QueryAnsweringTest, UnknownEntityIsUnanswered) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  const auto answer =
      AskUnbounded(answerer, "glorbnik the unheard of movies");
  EXPECT_FALSE(answer.answered);
  EXPECT_NE(answer.explanation.find("no entity"), std::string::npos);
}

TEST(QueryAnsweringTest, EntityWithoutRelationIsUnanswered) {
  QaFixture f = QaFixture::Make();
  QueryAnswerer answerer(&f.gen.kg, nullptr);
  const kg::EntityId actor =
      FindUnambiguous(f, f.gen.schema.actor, f.gen.schema.acted_in);
  ASSERT_TRUE(actor.valid());
  // No relation words at all.
  const auto answer =
      AskUnbounded(answerer, ToLower(f.gen.kg.catalog().name(actor)));
  EXPECT_FALSE(answer.answered);
  EXPECT_TRUE(answer.subject.valid());
}

TEST(QueryAnsweringTest, RankerOrdersMultiValuedAnswers) {
  QaFixture f = QaFixture::Make();
  serving::FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  QueryAnswerer answerer(&f.gen.kg, &ranker);
  // Person with multiple occupations.
  for (const auto& rec : f.gen.kg.catalog().records()) {
    if (f.gen.kg.catalog().LookupAlias(rec.canonical_name).size() != 1) {
      continue;
    }
    if (f.gen.kg.ObjectsOf(rec.id, f.gen.schema.occupation).size() < 2) {
      continue;
    }
    const auto answer =
        AskUnbounded(answerer, ToLower(rec.canonical_name) + " occupation");
    ASSERT_TRUE(answer.answered) << answer.explanation;
    for (size_t i = 1; i < answer.facts.size(); ++i) {
      EXPECT_GE(answer.facts[i - 1].score, answer.facts[i].score);
    }
    return;
  }
  FAIL() << "no multi-occupation person found";
}

/// Everything an answer says, doubles by their bits.
std::string Digest(const QueryAnswerer::Answer& a) {
  std::string out = std::to_string(a.answered) + " " +
                    std::to_string(a.subject.value()) + " " +
                    std::to_string(a.predicate.value()) + " " +
                    std::to_string(std::bit_cast<uint64_t>(a.subject_score)) +
                    " " + a.explanation;
  for (const auto& f : a.facts) {
    out += " " + f.object.ToString() + ":" +
           std::to_string(std::bit_cast<uint64_t>(f.score));
  }
  return out;
}

std::string Digest(const std::vector<Annotation>& annotations) {
  std::string out;
  for (const Annotation& a : annotations) {
    out += std::to_string(a.mention.begin) + "-" +
           std::to_string(a.mention.end) + ":" +
           std::to_string(a.entity.value()) + ":" +
           std::to_string(std::bit_cast<uint64_t>(a.score)) + ":" +
           std::to_string(a.type.value()) + " ";
  }
  return out;
}

// The annotation read path keeps per-call and thread_local scratch
// (profile pieces, sparse vectors, the hashing accumulator). Threads
// sharing one answerer and one annotator must each get exactly the
// single-threaded answers; the TSan build checks the sharing is clean.
TEST(QueryAnsweringTest, ConcurrentReadersMatchSerialAnswers) {
  QaFixture f = QaFixture::Make();
  serving::FactRanker ranker(&f.gen.kg, &f.view, &f.emb);
  const QueryAnswerer answerer(&f.gen.kg, &ranker);
  Annotator::Options options;
  options.preset = DeploymentPreset::kAccurate;
  options.rerank_only_ambiguous = false;  // rerank every mention
  const Annotator annotator(&f.gen.kg, /*cache=*/nullptr, options);
  const ContextReranker profiles(&f.gen.kg);

  std::vector<std::string> queries;
  std::vector<std::string> documents;
  const auto& records = f.gen.kg.catalog().records();
  for (size_t i = 0; i < records.size(); i += 7) {
    for (kg::TripleIdx idx : f.gen.kg.triples().BySubject(records[i].id)) {
      const kg::PredicateId p = f.gen.kg.triples().triple(idx).predicate;
      queries.push_back(ToLower(records[i].canonical_name) + " " +
                        f.gen.kg.ontology().predicate(p).surface_form);
      break;
    }
    documents.push_back(profiles.EntityProfileText(records[i].id) + ". " +
                        profiles.EntityProfileText(records[i / 2].id));
  }
  ASSERT_GT(queries.size(), 20u);

  auto serve = [&](std::vector<std::string>* out) {
    for (const std::string& q : queries) {
      out->push_back(Digest(AskUnbounded(answerer, q)));
    }
    for (const std::string& d : documents) {
      out->push_back(Digest(annotator.Annotate(d)));
    }
  };
  std::vector<std::string> serial;
  serve(&serial);

  constexpr int kThreads = 8;
  std::vector<std::vector<std::string>> got(kThreads);
  std::barrier start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      serve(&got[t]);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

}  // namespace
}  // namespace saga::annotation
