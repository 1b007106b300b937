// F3: the embedding training & inference pipeline of Figure 3 —
// filtered-view ablation, in-memory vs disk-based (partition-buffer)
// training with memory/IO trade-off, batch inference throughput, and
// the random-walk pipeline for specialized related-entity embeddings.

#include <cstdio>
#include <set>

#include "bench_util.h"
#include "common/file_util.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "embedding/disk_trainer.h"
#include "embedding/evaluator.h"
#include "embedding/reasoning.h"
#include "embedding/trainer.h"
#include "graph_engine/sampler.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"

namespace saga {
namespace {

using bench::Fmt;
using bench::Section;
using bench::Table;

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 1200;
  config.num_movies = 300;
  config.num_songs = 150;
  config.num_teams = 24;
  config.num_bands = 40;
  config.num_cities = 50;
  return kg::GenerateKg(config);
}

void BenchViewFiltering(const kg::GeneratedKg& gen) {
  Section("F3a: graph-engine view filtering (noise & literals out)");
  struct Row {
    const char* name;
    graph_engine::ViewDefinition def;
  };
  graph_engine::ViewDefinition raw;
  raw.embedding_relevant_only = false;
  graph_engine::ViewDefinition relevant;
  graph_engine::ViewDefinition clean;
  clean.min_confidence = 0.4;
  graph_engine::ViewDefinition clean_minfreq;
  clean_minfreq.min_confidence = 0.4;
  clean_minfreq.min_predicate_frequency = 50;

  const Row rows[] = {{"all entity edges", raw},
                      {"+embedding-relevant only", relevant},
                      {"+min confidence 0.4", clean},
                      {"+min predicate freq 50", clean_minfreq}};
  Table table({"view", "edges", "relations", "holdout AUC"});
  for (const auto& row : rows) {
    auto view = graph_engine::GraphView::Build(gen.kg, row.def);
    embedding::TrainingConfig tc;
    tc.dim = 24;
    tc.epochs = 4;
    tc.holdout_fraction = 0.1;
    embedding::InMemoryTrainer trainer(tc);
    const auto emb = trainer.Train(view);
    Rng rng(2);
    const double auc = embedding::EvaluateVerificationAuc(
        emb, view, emb.holdout_edges, &rng);
    table.AddRow({row.name, std::to_string(view.edges().size()),
                  std::to_string(view.num_relations()), Fmt(auc)});
  }
  table.Print();
}

void BenchDiskVsMemory(const kg::GeneratedKg& gen) {
  Section(
      "F3b: in-memory vs disk-based training (Marius-style partition "
      "buffer)");
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);

  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 32;
  tc.epochs = 4;
  tc.holdout_fraction = 0.1;

  Table table({"trainer", "edges/s", "peak resident params",
               "disk IO", "holdout AUC"});

  {
    Stopwatch sw;
    embedding::InMemoryTrainer trainer(tc);
    const auto emb = trainer.Train(view);
    const double elapsed = sw.ElapsedSeconds();
    Rng rng(3);
    const double auc = embedding::EvaluateVerificationAuc(
        emb, view, emb.holdout_edges, &rng);
    table.AddRow(
        {"in-memory",
         Fmt(tc.epochs * static_cast<double>(emb.train_edges.size()) /
                 elapsed,
             0),
         FormatBytes(emb.entities.MemoryBytes()), "0 B", Fmt(auc)});
  }

  for (int buffer : {2, 4, 8}) {
    auto dir = MakeTempDir("bench_disk_trainer");
    embedding::DiskTrainerOptions opts;
    opts.buffer_partitions = buffer;
    opts.work_dir = *dir;
    embedding::DiskTrainer trainer(tc, opts);
    Stopwatch sw;
    auto emb = trainer.Train(view);
    const double elapsed = sw.ElapsedSeconds();
    if (!emb.ok()) {
      std::printf("disk trainer failed: %s\n",
                  emb.status().ToString().c_str());
      continue;
    }
    Rng rng(3);
    const double auc = embedding::EvaluateVerificationAuc(
        *emb, view, emb->holdout_edges, &rng);
    table.AddRow(
        {"disk buffer=" + std::to_string(buffer) + "/8",
         Fmt(tc.epochs * static_cast<double>(emb->train_edges.size()) /
                 elapsed,
             0),
         FormatBytes(trainer.stats().peak_resident_bytes),
         FormatBytes(trainer.stats().bytes_read +
                     trainer.stats().bytes_written),
         Fmt(auc)});
    (void)RemoveDirRecursively(*dir);
  }
  table.Print();
  std::printf(
      "Expected shape: disk trainers bound resident memory at "
      "buffer/num_partitions of the table, paying IO + some quality for "
      "restricted negatives; larger buffers close the gap (Marius).\n");
}

void BenchContinuousRefresh(kg::GeneratedKg gen) {
  Section("F3e: continuous embedding refresh (warm start vs cold)");
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  embedding::TrainingConfig tc;
  tc.dim = 24;
  tc.epochs = 6;
  tc.holdout_fraction = 0.1;
  embedding::InMemoryTrainer trainer(tc);
  const auto base = trainer.Train(view);

  // The KG grows ~5% (continuous construction), the view is maintained.
  Rng rng(13);
  const kg::SourceId src = gen.kg.AddSource("growth", 1.0);
  std::vector<kg::TripleIdx> delta;
  const size_t growth = view.edges().size() / 20;
  for (size_t i = 0; i < growth; ++i) {
    delta.push_back(gen.kg.AddFact(
        kg::EntityId(rng.Uniform(gen.kg.num_entities())), gen.schema.spouse,
        kg::Value::Entity(kg::EntityId(rng.Uniform(gen.kg.num_entities()))),
        src));
  }
  view.ApplyDelta(gen.kg, delta);

  Table table({"refresh strategy", "epochs", "wall s", "holdout AUC"});
  Rng eval_rng(7);
  {
    Stopwatch sw;
    embedding::TrainingConfig cold = tc;
    const auto emb = embedding::InMemoryTrainer(cold).Train(view);
    table.AddRow({"cold (from scratch)", std::to_string(cold.epochs),
                  Fmt(sw.ElapsedSeconds(), 2),
                  Fmt(embedding::EvaluateVerificationAuc(
                      emb, view, emb.holdout_edges, &eval_rng))});
  }
  {
    Stopwatch sw;
    embedding::TrainingConfig warm = tc;
    warm.epochs = 1;  // one touch-up epoch over the grown view
    warm.holdout_fraction = 0.1;
    const auto emb =
        embedding::InMemoryTrainer(warm).Retrain(view, base);
    table.AddRow({"warm (1 epoch from previous)", "1",
                  Fmt(sw.ElapsedSeconds(), 2),
                  Fmt(embedding::EvaluateVerificationAuc(
                      emb, view, emb.holdout_edges, &eval_rng))});
  }
  table.Print();
  std::printf("Expected shape: a single warm epoch after incremental KG "
              "growth matches cold-retrain quality at a fraction of the "
              "cost (continuous construction, §1).\n");
}

void BenchBatchInference(const kg::GeneratedKg& gen) {
  Section("F3c: batch inference throughput (candidate scoring)");
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  embedding::TrainingConfig tc;
  tc.dim = 32;
  tc.epochs = 2;
  embedding::InMemoryTrainer trainer(tc);
  const auto emb = trainer.Train(view);

  Table table({"batch size", "candidates/s"});
  Rng rng(4);
  for (size_t batch : {1000u, 10000u, 100000u}) {
    Stopwatch sw;
    double checksum = 0.0;
    for (size_t i = 0; i < batch; ++i) {
      const auto& e = view.edges()[rng.Uniform(view.edges().size())];
      checksum += emb.Score(e.src, e.relation,
                            static_cast<uint32_t>(
                                rng.Uniform(view.num_entities())));
    }
    const double elapsed = sw.ElapsedSeconds();
    table.AddRow({std::to_string(batch),
                  Fmt(static_cast<double>(batch) / elapsed, 0)});
    if (checksum == 12345.6789) std::printf("!");  // keep checksum alive
  }
  table.Print();
}

void BenchRelatedEntityWalks(const kg::GeneratedKg& gen) {
  Section("F3d: pre-computed traversals for related-entity embeddings");
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  graph_engine::RandomWalkSampler::Options wopts;
  wopts.walks_per_node = 2;
  wopts.walk_length = 6;
  graph_engine::RandomWalkSampler sampler(wopts);
  Rng rng(5);
  Stopwatch sw;
  const auto walks = sampler.GenerateWalks(view, &rng);
  const auto pairs = sampler.CoOccurrencePairs(walks);
  std::printf("walk generation: %zu walks, %zu co-occurrence pairs in "
              "%.2fs (%s pairs/s)\n",
              walks.size(), pairs.size(), sw.ElapsedSeconds(),
              Fmt(pairs.size() / sw.ElapsedSeconds(), 0).c_str());

  // Train a relatedness embedding on the walk pairs (single pseudo
  // relation) and spot-check that co-walked entities are closer.
  std::vector<graph_engine::ViewEdge> edges;
  edges.reserve(pairs.size());
  for (const auto& [a, b] : pairs) {
    edges.push_back(graph_engine::ViewEdge{a, 0, b});
  }
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = 24;
  tc.epochs = 2;
  embedding::InMemoryTrainer trainer(tc);
  sw.Reset();
  const auto emb = trainer.TrainEdges(view, edges);
  std::printf("relatedness embedding trained in %.2fs (loss %.3f -> %.3f)\n",
              sw.ElapsedSeconds(), emb.epoch_losses.front(),
              emb.epoch_losses.back());
}

void BenchReasoningQueries(const kg::GeneratedKg& gen) {
  Section("F3f: reasoning-based embeddings for multi-hop queries (§2)");
  graph_engine::ViewDefinition def;
  def.min_confidence = 0.4;
  auto view = graph_engine::GraphView::Build(gen.kg, def);
  Rng rng(21);
  auto samples = embedding::SamplePathQueries(view, 3000, 3, &rng);
  // Hold out multi-hop queries for evaluation; train on everything
  // else (1-hop queries teach the per-relation geometry).
  std::vector<embedding::PathQuerySample> train;
  std::vector<embedding::PathQuerySample> test;
  for (const auto& s : samples) {
    if (s.query.relations.size() >= 2 && test.size() < 60) {
      test.push_back(s);
    } else {
      train.push_back(s);
    }
  }

  Table table({"model", "multi-hop hits@10", "train s"});
  // Baseline 1: random guessing.
  table.AddRow({"random",
                Fmt(10.0 / static_cast<double>(view.num_entities())),
                "-"});
  // Baseline 2: composed TransE — translate hop by hop.
  {
    embedding::TrainingConfig tc;
    tc.model = embedding::ModelKind::kTransE;
    tc.dim = 32;
    tc.epochs = 6;
    Stopwatch sw;
    embedding::InMemoryTrainer trainer(tc);
    const auto emb = trainer.Train(view);
    const double train_s = sw.ElapsedSeconds();
    size_t hits = 0;
    for (const auto& s : test) {
      std::vector<float> q(emb.entities.Row(s.query.anchor),
                           emb.entities.Row(s.query.anchor) + tc.dim);
      for (uint32_t rel : s.query.relations) {
        const float* r = emb.relations.Row(rel);
        for (int i = 0; i < tc.dim; ++i) q[i] += r[i];
      }
      auto dist = [&](uint32_t e) {
        double d2 = 0;
        const float* a = emb.entities.Row(e);
        for (int i = 0; i < tc.dim; ++i) {
          const double d = q[i] - a[i];
          d2 += d * d;
        }
        return d2;
      };
      const auto truth = embedding::TrueAnswers(view, s.query);
      const std::set<uint32_t> truth_set(truth.begin(), truth.end());
      const double answer_dist = dist(s.answer);
      size_t rank = 1;
      for (uint32_t e = 0; e < view.num_entities() && rank <= 10; ++e) {
        if (e == s.answer || truth_set.count(e)) continue;
        if (dist(e) < answer_dist) ++rank;
      }
      if (rank <= 10) ++hits;
    }
    table.AddRow({"composed TransE (shallow)",
                  Fmt(static_cast<double>(hits) / test.size()),
                  Fmt(train_s, 2)});
  }
  // Reasoning model: Query2Box-style boxes trained on path queries.
  {
    Stopwatch sw;
    embedding::BoxReasoningModel model(view.num_entities(),
                                       view.num_relations());
    (void)model.Train(train, /*epochs=*/16);
    const double train_s = sw.ElapsedSeconds();
    table.AddRow({"box reasoning (Query2Box-style)",
                  Fmt(model.EvaluateHitsAtK(test, view, 10)),
                  Fmt(train_s, 2)});
  }
  table.Print();
  std::printf(
      "Expected shape: both embedding approaches answer multi-hop "
      "queries two orders of magnitude above random. At this scale "
      "(low-branching paths) composed translations stay competitive; "
      "boxes natively model answer *sets*, the property §2's "
      "reasoning-based models exist for once queries branch and add "
      "logical operators.\n");
}

}  // namespace
}  // namespace saga

int main() {
  saga::bench::ObsSession obs_session;
  std::printf("F3: embedding training & inference pipeline "
              "(paper Figure 3)\n");
  saga::kg::GeneratedKg gen = saga::MakeKg();
  std::printf("KG: %zu entities / %zu triples\n", gen.kg.num_entities(),
              gen.kg.num_triples());
  saga::BenchViewFiltering(gen);
  saga::BenchDiskVsMemory(gen);
  saga::BenchBatchInference(gen);
  saga::BenchRelatedEntityWalks(gen);
  saga::BenchReasoningQueries(gen);
  saga::BenchContinuousRefresh(std::move(gen));
  return 0;
}
