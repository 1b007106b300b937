// First use of the serving read path from many threads at once, with no
// warm-up call: graph views, PPR, the annotation index and the shared
// embedding rows must be read-only once built, so concurrent readers
// never write shared state.
// Meant to run under ThreadSanitizer (the CI tsan job does).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/web_linker.h"
#include "common/request_context.h"
#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/embedding_service.h"
#include "serving/related_entities.h"
#include "websim/corpus_generator.h"

namespace saga {
namespace {

using Hits = std::vector<std::pair<kg::EntityId, double>>;

TEST(GraphConcurrencyTest, FirstUseRelatedAndIndexReadsFromManyThreads) {
  kg::KgGeneratorConfig config;
  config.num_persons = 100;
  config.num_movies = 30;
  config.num_songs = 20;
  config.num_teams = 6;
  config.num_bands = 8;
  config.num_cities = 12;
  kg::GeneratedKg gen = kg::GenerateKg(config);

  // The linker pass writes the KG, so it runs before anything reads it.
  websim::CorpusGeneratorConfig cc;
  cc.num_news_pages = 10;
  cc.num_noise_pages = 0;
  const websim::WebCorpus corpus = websim::GenerateCorpus(gen, cc);
  annotation::Annotator annotator(&gen.kg, nullptr);
  annotation::IncrementalWebLinker linker(&annotator, &gen.kg);
  (void)linker.AnnotateCorpus(corpus);
  const annotation::AnnotationIndex& index = linker.index();

  const graph_engine::GraphView view =
      graph_engine::GraphView::Build(gen.kg, graph_engine::ViewDefinition());
  embedding::TrainingConfig tc;
  tc.dim = 16;
  tc.epochs = 2;
  const embedding::TrainedEmbeddings trained =
      embedding::InMemoryTrainer(tc).Train(view);
  const serving::EmbeddingService embeddings(
      embedding::EmbeddingStore::FromTrained(trained, view), &gen.kg);
  // IVF over the same rows, and its hedged, breaker-guarded twin. The
  // hedge timer is short enough that exact backups fire: hedge workers
  // (which record the breaker's outcomes), callers and the blend
  // threads' exact scans then read the shared matrix at the same time.
  serving::EmbeddingService::Options ivf_opts;
  ivf_opts.index = serving::EmbeddingService::IndexKind::kIvf;
  ivf_opts.ivf_lists = 8;
  const serving::EmbeddingService ivf(embeddings.store(), &gen.kg, ivf_opts);
  ivf_opts.hedge.enabled = true;
  ivf_opts.hedge.fixed_hedge_ms = 0.001;
  ivf_opts.enable_breaker = true;
  ivf_opts.breaker.open_ms = 1.0;
  const serving::EmbeddingService hedged(embeddings.store(), &gen.kg,
                                         ivf_opts);
  serving::RelatedEntitiesService::Options opts;
  opts.mode = serving::RelatedEntitiesService::Mode::kPpr;
  const serving::RelatedEntitiesService ppr(&gen.kg, &view, &embeddings, opts);
  opts.mode = serving::RelatedEntitiesService::Mode::kBlend;
  const serving::RelatedEntitiesService blend(&gen.kg, &view, &embeddings,
                                              opts);

  std::vector<kg::EntityId> queries;
  for (uint32_t local = 0; local < view.num_entities() && local < 48; ++local) {
    queries.push_back(view.global_entity(local));
  }
  size_t mentions = 0;
  for (websim::DocId d = 0; d < corpus.size(); ++d) {
    mentions += index.ForDoc(d)->annotations.size();
  }
  ASSERT_FALSE(queries.empty());
  ASSERT_GT(mentions, 0u);

  auto service = [&](size_t t, size_t i) -> const serving::RelatedEntitiesService& {
    return (t + i) % 2 == 0 ? ppr : blend;
  };

  constexpr size_t kRelatedThreads = 8;
  constexpr size_t kIndexThreads = 2;
  constexpr size_t kHedgedThreads = 4;
  std::vector<std::vector<Hits>> related(kRelatedThreads);
  std::vector<std::vector<std::vector<annotation::Annotation>>> docs(
      kIndexThreads);
  std::vector<std::vector<Hits>> neighbors(kHedgedThreads);
  std::atomic<size_t> failures{0};
  std::atomic<size_t> waiting{kRelatedThreads + kIndexThreads +
                              kHedgedThreads};
  auto start_together = [&] {
    waiting.fetch_sub(1);
    while (waiting.load() > 0) std::this_thread::yield();
  };
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kRelatedThreads; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      for (size_t i = 0; i < queries.size(); ++i) {
        auto hits = service(t, i).Related(queries[i], 10, kg::TypeId::Invalid(),
                                          RequestContext());
        if (!hits.ok()) {
          failures.fetch_add(1);
          continue;
        }
        related[t].push_back(std::move(*hits));
      }
    });
  }
  for (size_t t = 0; t < kIndexThreads; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      for (websim::DocId d = 0; d < corpus.size(); ++d) {
        docs[t].push_back(index.ForDoc(d)->annotations);
      }
    });
  }
  for (size_t t = 0; t < kHedgedThreads; ++t) {
    threads.emplace_back([&, t] {
      start_together();
      for (kg::EntityId q : queries) {
        auto hits = hedged.TopKNeighbors(q, 10, kg::TypeId::Invalid(),
                                         RequestContext());
        if (!hits.ok()) {
          failures.fetch_add(1);
          continue;
        }
        neighbors[t].push_back(std::move(*hits));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0u);

  // Every thread saw what one thread sees afterwards.
  for (size_t t = 0; t < kRelatedThreads; ++t) {
    ASSERT_EQ(related[t].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto want = service(t, i).Related(queries[i], 10, kg::TypeId::Invalid(),
                                        RequestContext());
      ASSERT_TRUE(want.ok());
      EXPECT_EQ(related[t][i], *want) << "thread " << t << " query " << i;
    }
  }
  // A hedged search answers from the IVF primary or the exact backup.
  for (size_t t = 0; t < kHedgedThreads; ++t) {
    ASSERT_EQ(neighbors[t].size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto from_ivf = ivf.TopKNeighbors(queries[i], 10, kg::TypeId::Invalid(),
                                        RequestContext());
      auto exact = embeddings.TopKNeighbors(queries[i], 10,
                                            kg::TypeId::Invalid(),
                                            RequestContext());
      ASSERT_TRUE(from_ivf.ok());
      ASSERT_TRUE(exact.ok());
      EXPECT_TRUE(neighbors[t][i] == *from_ivf || neighbors[t][i] == *exact)
          << "thread " << t << " query " << i;
    }
  }
  for (size_t t = 0; t < kIndexThreads; ++t) {
    ASSERT_EQ(docs[t].size(), corpus.size());
    for (websim::DocId d = 0; d < corpus.size(); ++d) {
      const auto& want = index.ForDoc(d)->annotations;
      ASSERT_EQ(docs[t][d].size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(docs[t][d][i].entity, want[i].entity);
      }
    }
  }
}

}  // namespace
}  // namespace saga
