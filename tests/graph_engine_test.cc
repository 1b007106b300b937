#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/request_context.h"
#include "common/serialization.h"
#include "graph_engine/partitioner.h"
#include "graph_engine/ppr.h"
#include "graph_engine/query.h"
#include "graph_engine/sampler.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "reference_graph.h"

namespace saga::graph_engine {
namespace {

using reference::HashMapPpr;
using reference::OraclePpr;
using reference::OracleTopK;

kg::GeneratedKg MakeKg() {
  kg::KgGeneratorConfig config;
  config.num_persons = 150;
  config.num_movies = 40;
  config.num_songs = 30;
  config.num_teams = 8;
  config.num_bands = 10;
  config.num_cities = 15;
  return kg::GenerateKg(config);
}

// ---------- GraphView ----------

void ExpectNeighborsInEdgeOrder(const GraphView& view) {
  const auto adj = reference::EdgeOrderAdjacency(view);
  for (uint32_t u = 0; u < view.num_entities(); ++u) {
    const auto nbrs = view.Neighbors(u);
    EXPECT_EQ(std::vector<uint32_t>(nbrs.begin(), nbrs.end()), adj[u])
        << "node " << u;
  }
}

TEST(GraphViewTest, FiltersLiteralsAndIrrelevantPredicates) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_GT(view.edges().size(), 0u);
  for (const ViewEdge& e : view.edges()) {
    const kg::PredicateId p = view.global_relation(e.relation);
    EXPECT_TRUE(gen.kg.ontology().predicate(p).embedding_relevant);
    EXPECT_EQ(gen.kg.ontology().predicate(p).range_kind,
              kg::Value::Kind::kEntity);
  }
  // Literal predicates never appear as relations.
  EXPECT_EQ(view.local_relation(gen.schema.date_of_birth),
            GraphView::kNotInView);
  EXPECT_NE(view.local_relation(gen.schema.acted_in), GraphView::kNotInView);
}

TEST(GraphViewTest, LocalIdsAreDenseAndInvertible) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  for (uint32_t local = 0; local < view.num_entities(); ++local) {
    EXPECT_EQ(view.local_entity(view.global_entity(local)), local);
  }
  for (const ViewEdge& e : view.edges()) {
    EXPECT_LT(e.src, view.num_entities());
    EXPECT_LT(e.dst, view.num_entities());
    EXPECT_LT(e.relation, view.num_relations());
  }
}

TEST(GraphViewTest, MinConfidenceDropsNoise) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition noisy;
  GraphView with_noise = GraphView::Build(gen.kg, noisy);
  ViewDefinition clean;
  clean.min_confidence = 0.5;
  GraphView without_noise = GraphView::Build(gen.kg, clean);
  EXPECT_LT(without_noise.edges().size(), with_noise.edges().size());
}

TEST(GraphViewTest, MinPredicateFrequencyDropsRarePredicates) {
  kg::GeneratedKg gen = MakeKg();
  ViewDefinition def;
  def.min_predicate_frequency = 100000;  // nothing survives
  GraphView view = GraphView::Build(gen.kg, def);
  EXPECT_TRUE(view.edges().empty());
}

TEST(GraphViewTest, ApplyDeltaAddsNewEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  ExpectNeighborsInEdgeOrder(view);
  const size_t before = view.edges().size();
  const size_t entities_before = view.num_entities();

  // New entity + new relevant fact + one irrelevant fact.
  kg::EntityId fresh =
      gen.kg.catalog().AddEntity("Fresh Person", {gen.schema.person});
  const kg::SourceId src = gen.kg.AddSource("delta", 1.0);
  std::vector<kg::TripleIdx> delta;
  delta.push_back(gen.kg.AddFact(fresh, gen.schema.spouse,
                                 kg::Value::Entity(kg::EntityId(0)), src));
  delta.push_back(gen.kg.AddFact(fresh, gen.schema.height_cm,
                                 kg::Value::Int(180), src));
  view.ApplyDelta(gen.kg, delta);
  EXPECT_EQ(view.edges().size(), before + 1);
  EXPECT_EQ(view.num_entities(), entities_before + 1);
  EXPECT_NE(view.local_entity(fresh), GraphView::kNotInView);
  ExpectNeighborsInEdgeOrder(view);
}

TEST(GraphViewTest, AdjacencyIsSymmetric) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  size_t total_degree = 0;
  for (uint32_t u = 0; u < view.num_entities(); ++u) {
    total_degree += view.Neighbors(u).size();
  }
  EXPECT_EQ(total_degree, view.edges().size() * 2);
}

// ---------- Query ----------

TEST(QueryTest, MatchBySubjectPredicate) {
  kg::GeneratedKg gen = MakeKg();
  // Find any director and query their movies.
  kg::EntityId director;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (gen.kg.catalog().HasType(rec.id, gen.schema.director) &&
        !gen.kg.ObjectsOf(rec.id, gen.schema.directed).empty()) {
      director = rec.id;
      break;
    }
  }
  ASSERT_TRUE(director.valid());
  TriplePattern pattern;
  pattern.subject = director;
  pattern.predicate = gen.schema.directed;
  const auto hits = Match(gen.kg, pattern);
  EXPECT_FALSE(hits.empty());
  for (kg::TripleIdx idx : hits) {
    EXPECT_EQ(gen.kg.triples().triple(idx).subject, director);
    EXPECT_EQ(gen.kg.triples().triple(idx).predicate, gen.schema.directed);
  }
}

TEST(QueryTest, MatchByObjectEntity) {
  kg::GeneratedKg gen = MakeKg();
  // All athletes of some team.
  TriplePattern by_pred;
  by_pred.predicate = gen.schema.plays_for;
  const auto team_edges = Match(gen.kg, by_pred);
  ASSERT_FALSE(team_edges.empty());
  const kg::EntityId team =
      gen.kg.triples().triple(team_edges[0]).object.entity();
  TriplePattern pattern;
  pattern.object = kg::Value::Entity(team);
  for (kg::TripleIdx idx : Match(gen.kg, pattern)) {
    EXPECT_EQ(gen.kg.triples().triple(idx).object,
              kg::Value::Entity(team));
  }
}

TEST(QueryTest, UnboundPatternScansAll) {
  kg::GeneratedKg gen = MakeKg();
  TriplePattern everything;
  EXPECT_EQ(Match(gen.kg, everything).size(), gen.kg.num_triples());
}

TEST(QueryTest, FollowPathComposesHops) {
  kg::GeneratedKg gen = MakeKg();
  // athlete --plays_for--> team --team_city--> city.
  kg::EntityId athlete;
  for (const auto& rec : gen.kg.catalog().records()) {
    if (!gen.kg.ObjectsOf(rec.id, gen.schema.plays_for).empty()) {
      athlete = rec.id;
      break;
    }
  }
  ASSERT_TRUE(athlete.valid());
  const auto cities = FollowPath(
      gen.kg, athlete, {gen.schema.plays_for, gen.schema.team_city});
  ASSERT_EQ(cities.size(), 1u);
  // Verify against manual composition.
  const kg::EntityId team =
      gen.kg.ObjectsOf(athlete, gen.schema.plays_for)[0].entity();
  const kg::EntityId city =
      gen.kg.ObjectsOf(team, gen.schema.team_city)[0].entity();
  EXPECT_EQ(cities[0], city);
  // Dead-end path yields empty.
  EXPECT_TRUE(FollowPath(gen.kg, athlete,
                         {gen.schema.plays_for, gen.schema.plays_for})
                  .empty());
}

// ---------- Traversal ----------

TEST(TraversalTest, KHopNeighborsRespectDistance) {
  kg::GeneratedKg gen = MakeKg();
  const kg::EntityId start(0);
  auto one_hop = KHopNeighbors(gen.kg, start, 1);
  auto two_hop = KHopNeighbors(gen.kg, start, 2);
  EXPECT_GE(two_hop.size(), one_hop.size());
  for (const auto& [e, d] : one_hop) {
    EXPECT_EQ(d, 1);
  }
  for (const auto& [e, d] : two_hop) {
    EXPECT_LE(d, 2);
    EXPECT_GE(d, 1);
  }
  EXPECT_EQ(one_hop.count(start), 0u);
}

TEST(TraversalTest, MaxNodesBoundsTraversal) {
  kg::GeneratedKg gen = MakeKg();
  auto bounded = KHopNeighbors(gen.kg, kg::EntityId(0), 5, 10);
  EXPECT_LE(bounded.size(), 10u);
}

// ---------- Sampler ----------

TEST(SamplerTest, WalksStayOnEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  RandomWalkSampler::Options opts;
  opts.walks_per_node = 1;
  opts.walk_length = 5;
  RandomWalkSampler sampler(opts);
  Rng rng(3);
  const auto walks = sampler.GenerateWalks(view, &rng);
  EXPECT_EQ(walks.size(), view.num_entities());
  for (const auto& walk : walks) {
    ASSERT_FALSE(walk.empty());
    for (size_t i = 1; i < walk.size(); ++i) {
      const auto nbrs = view.Neighbors(walk[i - 1]);
      EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), walk[i]) !=
                  nbrs.end());
    }
  }
}

TEST(SamplerTest, CoOccurrencePairsWithinWindow) {
  RandomWalkSampler sampler(RandomWalkSampler::Options{});
  const std::vector<std::vector<uint32_t>> walks = {{1, 2, 3, 4, 5}};
  const auto pairs = sampler.CoOccurrencePairs(walks);
  // (1,2),(1,3),(1,4),(2,3),(2,4),(2,5),(3,4),(3,5),(4,5)
  EXPECT_EQ(pairs.size(), 9u);
  for (const auto& [a, b] : pairs) EXPECT_NE(a, b);
}

// ---------- Partitioner ----------

TEST(PartitionerTest, BalancedAssignment) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 4, &rng);
  size_t total = 0;
  for (int p = 0; p < 4; ++p) {
    total += part.partition_members(p).size();
    EXPECT_NEAR(static_cast<double>(part.partition_members(p).size()),
                static_cast<double>(view.num_entities()) / 4.0, 1.0);
  }
  EXPECT_EQ(total, view.num_entities());
}

// Every edge lands in the bucket of its endpoints' partitions.
TEST(PartitionerTest, DiskBucketsPartitionAllEdges) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 3, &rng);
  auto dir = MakeTempDir("saga_buckets");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(part.WriteBuckets(view.edges(), *dir).ok());
  size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      auto bucket = part.LoadBucket(*dir, i, j);
      ASSERT_TRUE(bucket.ok());
      for (const ViewEdge& e : *bucket) {
        EXPECT_EQ(part.partition_of(e.src), i);
        EXPECT_EQ(part.partition_of(e.dst), j);
      }
      total += bucket->size();
    }
  }
  EXPECT_EQ(total, view.edges().size());
  (void)RemoveDirRecursively(*dir);
}

// A bucket edge whose ids fall outside the bucket's partitions or the
// view's relations is Corruption, not an index into the trainer's rows.
TEST(PartitionerTest, LoadBucketRejectsIdsOutsideItsPartitions) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  Rng rng(5);
  EdgePartitioner part(view, 3, &rng);
  auto dir = MakeTempDir("saga_bad_buckets");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(part.WriteBuckets(view.edges(), *dir).ok());
  const uint32_t in0 = part.partition_members(0)[0];
  const uint32_t in1 = part.partition_members(1)[0];
  const uint64_t past_entities = view.num_entities();
  const uint64_t past_relations = view.num_relations();
  const std::string bucket = JoinPath(*dir, "bucket_0_1.bin");
  struct Edge {
    uint64_t src, rel, dst;
  };
  for (const Edge& bad : {Edge{in1, 0, in1},               // src not in 0
                          Edge{in0, 0, in0},               // dst not in 1
                          Edge{past_entities, 0, in1},     // src past view
                          Edge{in0, 0, past_entities},     // dst past view
                          Edge{in0, past_relations, in1},  // no relation
                          Edge{in0, 1ull << 40, in1}}) {
    std::string data;
    BinaryWriter w(&data);
    w.PutVarint64(in0);  // one good edge first
    w.PutVarint64(0);
    w.PutVarint64(in1);
    w.PutVarint64(bad.src);
    w.PutVarint64(bad.rel);
    w.PutVarint64(bad.dst);
    ASSERT_TRUE(WriteStringToFile(bucket, data).ok());
    auto loaded = part.LoadBucket(*dir, 0, 1);
    EXPECT_TRUE(loaded.status().IsCorruption())
        << bad.src << " " << bad.rel << " " << bad.dst;
  }
  (void)RemoveDirRecursively(*dir);
}

TEST(PartitionerTest, ScheduleCoversAllBucketsAndSharesPartitions) {
  const auto schedule = EdgePartitioner::BucketSchedule(4);
  EXPECT_EQ(schedule.size(), 16u);
  std::set<std::pair<int, int>> seen(schedule.begin(), schedule.end());
  EXPECT_EQ(seen.size(), 16u);
  // Consecutive entries share at least one partition.
  for (size_t i = 1; i < schedule.size(); ++i) {
    const auto& [a1, b1] = schedule[i - 1];
    const auto& [a2, b2] = schedule[i];
    EXPECT_TRUE(a1 == a2 || a1 == b2 || b1 == a2 || b1 == b2);
  }
}

// ---------- PPR ----------

TEST(PprTest, ScoresConcentrateNearSource) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  // Pick a node with neighbors.
  uint32_t source = 0;
  for (uint32_t i = 0; i < view.num_entities(); ++i) {
    if (view.Neighbors(i).size() >= 2) {
      source = i;
      break;
    }
  }
  const auto scores = ppr.Ppr(source);
  ASSERT_FALSE(scores.empty());
  EXPECT_GT(scores.at(source), 0.0);
  // Source should hold the top score.
  for (const auto& [node, score] : scores) {
    EXPECT_LE(score, scores.at(source) + 1e-12);
  }
  // Mass is (approximately) bounded by 1.
  double total = 0.0;
  for (const auto& [node, score] : scores) total += score;
  EXPECT_LE(total, 1.0 + 1e-6);
}

TEST(PprTest, TopKExcludesSourceAndIsSorted) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const auto top = ppr.TopKRelated(0, 10, RequestContext());
  ASSERT_TRUE(top.ok());
  EXPECT_LE(top->size(), 10u);
  for (size_t i = 0; i < top->size(); ++i) {
    EXPECT_NE((*top)[i].first, 0u);
    if (i > 0) {
      EXPECT_GE((*top)[i - 1].second, (*top)[i].second);
    }
  }
}

TEST(PprTest, NeighborsOutrankDistantNodes) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  uint32_t source = 0;
  for (uint32_t i = 0; i < view.num_entities(); ++i) {
    if (view.Neighbors(i).size() >= 3) {
      source = i;
      break;
    }
  }
  PprEngine ppr(&view);
  const auto scores = ppr.Ppr(source);
  // Average neighbor score should beat the average non-neighbor score.
  double nbr_sum = 0.0;
  size_t nbr_n = 0;
  double other_sum = 0.0;
  size_t other_n = 0;
  const auto adjacent = view.Neighbors(source);
  std::set<uint32_t> nbrs(adjacent.begin(), adjacent.end());
  for (const auto& [node, score] : scores) {
    if (node == source) continue;
    if (nbrs.count(node)) {
      nbr_sum += score;
      ++nbr_n;
    } else {
      other_sum += score;
      ++other_n;
    }
  }
  ASSERT_GT(nbr_n, 0u);
  if (other_n > 0) {
    EXPECT_GT(nbr_sum / nbr_n, other_sum / other_n);
  }
}

TEST(PprTest, MatchesHashMapOracleForEverySource) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const RequestContext ctx;
  const auto adj = reference::EdgeOrderAdjacency(view);
  for (uint32_t s = 0; s < view.num_entities(); ++s) {
    const OraclePpr want = HashMapPpr(adj, s);
    EXPECT_EQ(ppr.Ppr(s), want.p) << "source " << s;
    auto top = ppr.TopKRelated(s, 10, ctx);
    ASSERT_TRUE(top.ok());
    EXPECT_EQ(*top, OracleTopK(want.p, s, 10)) << "source " << s;
    auto all = ppr.TopKRelated(s, view.num_entities(), ctx);
    ASSERT_TRUE(all.ok());
    EXPECT_EQ(*all, OracleTopK(want.p, s, view.num_entities()))
        << "source " << s;
  }
}

TEST(PprTest, FailedCallsLeaveNoStateForTheNext) {
  kg::GeneratedKg gen = MakeKg();
  GraphView view = GraphView::Build(gen.kg, ViewDefinition());
  PprEngine ppr(&view);
  const auto adj = reference::EdgeOrderAdjacency(view);
  uint32_t source = 0;
  // The longest push loop, so faults land mid-run.
  OraclePpr want = HashMapPpr(adj, 0);
  for (uint32_t s = 1; s < view.num_entities() && want.steps < 2000; ++s) {
    OraclePpr o = HashMapPpr(adj, s);
    if (o.steps > want.steps) {
      source = s;
      want = std::move(o);
    }
  }
  ASSERT_GE(want.steps, 600u);
  const uint32_t other = source == 0 ? 1 : 0;
  const OraclePpr want_other = HashMapPpr(adj, other);
  auto expect_clean = [&](const char* after) {
    EXPECT_EQ(ppr.Ppr(source), want.p) << after;
    EXPECT_EQ(ppr.Ppr(other), want_other.p) << after;
    auto top = ppr.TopKRelated(source, 10, RequestContext());
    ASSERT_TRUE(top.ok()) << after;
    EXPECT_EQ(*top, OracleTopK(want.p, source, 10)) << after;
  };

  // Already expired: fails at the first step.
  auto dead =
      ppr.TopKRelated(source, 10, RequestContext::WithTimeoutMillis(-1.0));
  ASSERT_FALSE(dead.ok());
  EXPECT_TRUE(dead.status().IsDeadlineExceeded());
  expect_clean("expired context");

  {
    // Expires partway: step 100 stalls past the budget, and the strided
    // check at step 256 gives up with residuals spread over the graph.
    FaultSpec stall;
    stall.kind = FaultKind::kDelay;
    stall.fail_nth = 100;
    stall.delay_ms = 40.0;
    ScopedFault fault("graph.traverse", stall);
    auto late = ppr.TopKRelated(source, view.num_entities(),
                                RequestContext::WithTimeoutMillis(20.0));
    ASSERT_FALSE(late.ok());
    EXPECT_TRUE(late.status().IsDeadlineExceeded());
  }
  expect_clean("deadline expired mid-run");

  {
    FaultSpec fail;
    fail.fail_nth = 300;
    ScopedFault fault("graph.traverse", fail);
    auto failed = ppr.TopKRelated(source, 10, RequestContext());
    ASSERT_FALSE(failed.ok());
    EXPECT_TRUE(failed.status().IsIOError());
  }
  expect_clean("injected traverse failure");

  {
    // The offline accessor runs the same push loop: an injected failure
    // yields an empty map, never a partial one.
    FaultSpec fail;
    fail.fail_nth = 300;
    ScopedFault fault("graph.traverse", fail);
    const uint64_t fired = Faults().fires("graph.traverse");
    EXPECT_TRUE(ppr.Ppr(source).empty());
    EXPECT_EQ(Faults().fires("graph.traverse"), fired + 1);
  }
  expect_clean("injected failure in the offline accessor");
}

}  // namespace
}  // namespace saga::graph_engine
