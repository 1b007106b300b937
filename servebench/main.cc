// Closed-loop serving benchmark: builds one seeded knowledge graph,
// serves one workload from two client threads through an
// AdmissionController, and prints one JSON result line.
//
//   servebench --workload ask|related|link_web --seed N --seconds S
//              --trace 0|1 [--out-dir DIR] [--expect-quality Q]
//              [--quality-floor F]
//
// A run has kRounds rounds, each of which
//   1. sets everything up from scratch;
//   2. serves the workload's seeded request table single-threaded and
//      untimed: in round 0 all of it, giving answer quality and a
//      reference digest per request; later rounds recheck a prefix
//      against those digests;
//   3. warms up, then runs kSlicesPerRound slices of the timed closed
//      loop with tracing off, each 1/kNumSlices of --seconds.
// Set-up time is the median round. Each serving metric is the quartile
// of the slices on its good side (first quartile of p50 and p99, third
// of throughput): other work on a shared host only ever slows a slice,
// while a change to the program moves every slice, so stretches of
// machine noise in up to three quarters of the slices do not move the
// result. With --trace 1, kSlicesPerRound more slices replay
// the first slices' seeded request streams with every wrapped layer
// call timed (see wrap.cc).
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// Every timed response is compared with its reference digest, so a
// concurrency bug shows up as `correct: false`.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/query_answering.h"
#include "common/metrics.h"
#include "common/request_context.h"
#include "common/string_util.h"
#include "embedding/embedding_store.h"
#include "embedding/trainer.h"
#include "graph_engine/traversal.h"
#include "graph_engine/view.h"
#include "kg/kg_generator.h"
#include "serving/admission_controller.h"
#include "serving/embedding_service.h"
#include "serving/fact_ranker.h"
#include "serving/kv_cache.h"
#include "serving/related_entities.h"
#include "trace.h"
#include "websim/corpus_generator.h"

namespace servebench {
namespace {

using namespace saga;

// ---- fixed workload shape (see NOTES.md for the reasons) ----
constexpr int kPersons = 8000;
constexpr double kMinConfidence = 0.4;
constexpr int kEmbeddingDim = 32;
constexpr int kEmbeddingEpochs = 4;
constexpr int kClients = 2;
constexpr double kDeadlineMs = 1000.0;
constexpr int kRounds = 5;
constexpr size_t kRelatedK = 10;
// Request tables: big enough that a run revisits each entry only a few
// dozen times, small enough to verify in about a second. The ask table
// is the largest because its answer quality is a share of requests.
constexpr size_t kAskRequests = 16384;
constexpr size_t kRelatedRequests = 1536;
constexpr size_t kLinkWebRequests = 2048;
constexpr double kRefreshShare = 0.1;
constexpr size_t kProfileCacheBytes = 2u << 20;
constexpr size_t kStreamLength = 1u << 16;
constexpr size_t kSpanCapacityPerClient = 50000;
constexpr size_t kRecheckRequests = 64;
constexpr double kWarmupSeconds = 0.3;
constexpr int kSlicesPerRound = 6;
constexpr int kNumSlices = kRounds * kSlicesPerRound;
constexpr size_t kSliceStride = kStreamLength / kNumSlices;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  bool has_expected = false;
  double expected_quality = 0;
  double quality_floor = 0;
};

uint64_t Mix(uint64_t a, uint64_t b) {
  // splitmix64 over a combined word: independent streams per purpose.
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001B3ull;
  }
  return h;
}
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

uint64_t FnvString(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Bytes the allocator has handed out, mmapped chunks included.
double HeapMb() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The quartile of `v` on the good side: the first quartile of a metric
/// where lower is better, the third where higher is better (linear
/// interpolation between ranks).
double QuietQuartile(std::vector<double> v, bool lower_is_better) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos =
      (lower_is_better ? 0.25 : 0.75) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Nearest-rank percentile of `v` (p in [0, 100]); reorders `v`.
double Percentile(std::vector<uint32_t>* v, double p) {
  if (v->empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v->size())));
  rank = std::clamp<size_t>(rank, 1, v->size()) - 1;
  std::nth_element(v->begin(), v->begin() + rank, v->end());
  return (*v)[rank];
}

/// Draws entity ids in proportion to catalog popularity.
class PopularitySampler {
 public:
  PopularitySampler(const kg::KnowledgeGraph& kg,
                    const std::vector<kg::EntityId>& eligible)
      : ids_(eligible) {
    std::vector<double> w;
    w.reserve(ids_.size());
    for (kg::EntityId e : ids_) w.push_back(kg.catalog().popularity(e));
    dist_ = std::discrete_distribution<size_t>(w.begin(), w.end());
  }
  kg::EntityId Draw(std::mt19937_64* rng) { return ids_[dist_(*rng)]; }

 private:
  std::vector<kg::EntityId> ids_;
  std::discrete_distribution<size_t> dist_;
};

kg::TypeId MostSpecificType(const kg::KnowledgeGraph& kg, kg::EntityId id) {
  const auto& types = kg.catalog().record(id).types;
  kg::TypeId best = kg::TypeId::Invalid();
  for (kg::TypeId t : types) {
    bool has_more_specific = false;
    for (kg::TypeId other : types) {
      if (other != t && kg.ontology().IsSubtypeOf(other, t)) {
        has_more_specific = true;
        break;
      }
    }
    if (!has_more_specific) best = t;
  }
  return best;
}

/// Set-up stage wall times in seconds; stages a workload skips stay 0.
struct Stages {
  double kg_generate = 0;
  double view_build = 0;
  double embedding_train = 0;
  double service_build = 0;
  double corpus_generate = 0;
  double profile_precompute = 0;
  double embedding_build_mb = 0;
  double total() const {
    return kg_generate + view_build + embedding_train + service_build +
           corpus_generate + profile_precompute;
  }
};

class StageTimer {
 public:
  explicit StageTimer(double* out) : out_(out), start_(NowNs()) {}
  ~StageTimer() { *out_ = Seconds(NowNs() - start_); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* out_;
  uint64_t start_;
};

/// Quality numerators accumulated over the verification pass.
struct QualityTally {
  double a = 0;
  double b = 0;
  double c = 0;
};

struct Outcome {
  bool ok = false;
  uint64_t digest = 0;
};

/// One workload: its served objects and its seeded request table.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual size_t size() const = 0;
  /// Op kind of request `i`, for per-kind latency (0 when only one).
  virtual int kind(size_t i) const = 0;
  virtual int num_kinds() const { return 1; }
  virtual const char* kind_name(int) const { return "op"; }
  /// Serves request `i`; when `q` is non-null also scores it.
  virtual Outcome Serve(size_t i, const RequestContext& ctx,
                        QualityTally* q) = 0;
  virtual double Quality(const QualityTally& q) const = 0;
  /// Around the traced slice: snapshot the program's counters, then
  /// add the workload's own per-layer metrics to `m`. `traced_counts`
  /// holds how often each request ran in the traced slice.
  virtual void BeginTracedPhase() {}
  virtual void EndTracedPhase(uint64_t wall_ns,
                              const std::vector<const TraceState*>& states,
                              const std::vector<size_t>& traced_counts,
                              std::map<std::string, double>* m) {
    (void)wall_ns;
    (void)states;
    (void)traced_counts;
    (void)m;
  }
  /// One line per size the notes quote.
  virtual std::string Describe() const = 0;
};

graph_engine::GraphView BuildView(const kg::KnowledgeGraph& kg) {
  graph_engine::ViewDefinition def;
  def.min_confidence = kMinConfidence;
  return graph_engine::GraphView::Build(kg, def);
}

embedding::TrainedEmbeddings Train(const graph_engine::GraphView& view,
                                   uint64_t seed) {
  embedding::TrainingConfig tc;
  tc.model = embedding::ModelKind::kDistMult;
  tc.dim = kEmbeddingDim;
  tc.epochs = kEmbeddingEpochs;
  tc.seed = Mix(seed, 11);
  return embedding::InMemoryTrainer(tc).Train(view);
}

kg::GeneratedKg Generate(uint64_t seed) {
  kg::KgGeneratorConfig config;
  config.seed = seed;
  config.num_persons = kPersons;
  return kg::GenerateKg(config);
}

// ---------------------------------------------------------------- ask
class AskWorkload : public Workload {
 public:
  struct Request {
    std::string query;
    kg::EntityId subject;
    kg::PredicateId predicate;
  };

  static std::unique_ptr<AskWorkload> Setup(uint64_t seed, Stages* st) {
    auto w = std::make_unique<AskWorkload>();
    {
      StageTimer t(&st->kg_generate);
      w->gen_ = std::make_unique<kg::GeneratedKg>(Generate(seed));
    }
    {
      StageTimer t(&st->view_build);
      w->view_ = std::make_unique<graph_engine::GraphView>(
          BuildView(w->gen_->kg));
    }
    {
      StageTimer t(&st->embedding_train);
      w->emb_ = std::make_unique<embedding::TrainedEmbeddings>(
          Train(*w->view_, seed));
    }
    {
      StageTimer t(&st->service_build);
      w->ranker_ = std::make_unique<serving::FactRanker>(
          &w->gen_->kg, w->view_.get(), w->emb_.get());
      w->answerer_ = std::make_unique<annotation::QueryAnswerer>(
          &w->gen_->kg, w->ranker_.get());
    }
    w->MakeRequests(seed, kAskRequests);
    return w;
  }

  /// "<name or alias> <surface form of a predicate the subject holds>",
  /// subjects drawn in proportion to popularity.
  void MakeRequests(uint64_t seed, size_t n) {
    const kg::KnowledgeGraph& kg = gen_->kg;
    std::vector<kg::EntityId> eligible;
    std::unordered_map<uint64_t, std::vector<kg::PredicateId>> preds;
    for (const kg::EntityRecord& rec : kg.catalog().records()) {
      std::set<uint64_t> seen;
      std::vector<kg::PredicateId> held;
      for (kg::TripleIdx idx : kg.triples().BySubject(rec.id)) {
        const kg::PredicateId p = kg.triples().triple(idx).predicate;
        if (kg.ontology().predicate(p).surface_form.empty()) continue;
        if (seen.insert(p.value()).second) held.push_back(p);
      }
      if (held.empty()) continue;
      eligible.push_back(rec.id);
      preds[rec.id.value()] = std::move(held);
    }
    PopularitySampler sampler(kg, eligible);
    std::mt19937_64 rng(Mix(seed, 21));
    requests_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const kg::EntityId e = sampler.Draw(&rng);
      const auto& held = preds[e.value()];
      const kg::PredicateId p = held[rng() % held.size()];
      const kg::EntityRecord& rec = kg.catalog().record(e);
      const size_t pick = rng() % (rec.aliases.size() + 1);
      const std::string& name =
          pick == 0 ? rec.canonical_name : rec.aliases[pick - 1];
      requests_.push_back(
          {ToLower(name) + " " + kg.ontology().predicate(p).surface_form, e,
           p});
    }
  }

  size_t size() const override { return requests_.size(); }
  int kind(size_t) const override { return 0; }

  Outcome Serve(size_t i, const RequestContext& ctx,
                QualityTally* q) override {
    const Request& r = requests_[i];
    auto answer = answerer_->Ask(r.query, ctx);
    if (!answer.ok()) return {};
    uint64_t h = Fnv(kFnvBasis, answer->subject.value());
    h = Fnv(h, answer->predicate.value());
    for (const auto& f : answer->facts) {
      h = f.object.is_entity() ? Fnv(h, f.object.entity().value())
                               : FnvString(h, f.object.ToString());
    }
    if (q != nullptr) {
      q->a += answer->subject == r.subject && answer->predicate == r.predicate;
      q->b += 1;
    }
    return {true, h};
  }
  double Quality(const QualityTally& q) const override {
    return q.b > 0 ? q.a / q.b : 0;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "entities=%zu view_entities=%zu training_edges=%zu "
                  "embedding_bytes=%zu",
                  gen_->kg.num_entities(), view_->num_entities(),
                  emb_->train_edges.size(),
                  view_->num_entities() * kEmbeddingDim * sizeof(float));
    return buf;
  }

 private:
  std::unique_ptr<kg::GeneratedKg> gen_;
  std::unique_ptr<graph_engine::GraphView> view_;
  std::unique_ptr<embedding::TrainedEmbeddings> emb_;
  std::unique_ptr<serving::FactRanker> ranker_;
  std::unique_ptr<annotation::QueryAnswerer> answerer_;
  std::vector<Request> requests_;
};

// ------------------------------------------------------------ related
class RelatedWorkload : public Workload {
 public:
  struct Request {
    kg::EntityId entity;
    int mode;  // index into services_
    kg::TypeId filter;
  };

  static std::unique_ptr<RelatedWorkload> Setup(uint64_t seed, Stages* st) {
    auto w = std::make_unique<RelatedWorkload>();
    {
      StageTimer t(&st->kg_generate);
      w->gen_ = std::make_unique<kg::GeneratedKg>(Generate(seed));
    }
    {
      StageTimer t(&st->view_build);
      w->view_ = std::make_unique<graph_engine::GraphView>(
          BuildView(w->gen_->kg));
    }
    embedding::TrainedEmbeddings emb;
    {
      StageTimer t(&st->embedding_train);
      emb = Train(*w->view_, seed);
    }
    w->training_edges_ = emb.train_edges.size();
    {
      StageTimer t(&st->service_build);
      const double heap_before = HeapMb();
      w->embeddings_ = std::make_unique<serving::EmbeddingService>(
          embedding::EmbeddingStore::FromTrained(emb, *w->view_),
          &w->gen_->kg);
      st->embedding_build_mb = HeapMb() - heap_before;
      for (auto mode : {serving::RelatedEntitiesService::Mode::kEmbedding,
                        serving::RelatedEntitiesService::Mode::kPpr,
                        serving::RelatedEntitiesService::Mode::kBlend}) {
        serving::RelatedEntitiesService::Options opts;
        opts.mode = mode;
        w->services_.push_back(
            std::make_unique<serving::RelatedEntitiesService>(
                &w->gen_->kg, w->view_.get(), w->embeddings_.get(), opts));
      }
    }
    w->MakeRequests(seed, kRelatedRequests);
    return w;
  }

  /// Sources drawn in proportion to popularity among view entities;
  /// modes in equal thirds; half filter on the most specific type.
  void MakeRequests(uint64_t seed, size_t n) {
    const kg::KnowledgeGraph& kg = gen_->kg;
    std::vector<kg::EntityId> eligible;
    for (uint32_t l = 0; l < view_->num_entities(); ++l) {
      eligible.push_back(view_->global_entity(l));
    }
    PopularitySampler sampler(kg, eligible);
    std::mt19937_64 rng(Mix(seed, 22));
    requests_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.entity = sampler.Draw(&rng);
      r.mode = static_cast<int>(i % 3);
      r.filter = (rng() & 1) ? MostSpecificType(kg, r.entity)
                             : kg::TypeId::Invalid();
      requests_.push_back(r);
    }
  }

  size_t size() const override { return requests_.size(); }
  int kind(size_t i) const override { return requests_[i].mode; }
  int num_kinds() const override { return 3; }
  const char* kind_name(int k) const override {
    static const char* kNames[] = {"emb", "ppr", "blend"};
    return kNames[k];
  }

  Outcome Serve(size_t i, const RequestContext& ctx,
                QualityTally* q) override {
    const Request& r = requests_[i];
    auto hits = services_[r.mode]->Related(r.entity, kRelatedK, r.filter, ctx);
    if (!hits.ok()) return {};
    uint64_t h = kFnvBasis;
    for (const auto& [e, score] : *hits) h = Fnv(h, e.value());
    if (q != nullptr) {
      // Precision@k against the 2-hop neighbourhood (EXPERIMENTS F2c).
      auto it = two_hop_.find(r.entity.value());
      if (it == two_hop_.end()) {
        it = two_hop_
                 .emplace(r.entity.value(),
                          graph_engine::KHopNeighbors(gen_->kg, r.entity, 2))
                 .first;
      }
      size_t relevant = 0;
      for (const auto& [e, score] : *hits) relevant += it->second.count(e);
      if (!hits->empty()) {
        q->a += static_cast<double>(relevant) /
                static_cast<double>(hits->size());
      }
      q->b += 1;
    }
    return {true, h};
  }
  double Quality(const QualityTally& q) const override {
    return q.b > 0 ? q.a / q.b : 0;
  }

  void EndTracedPhase(uint64_t, const std::vector<const TraceState*>&,
                      const std::vector<size_t>& traced_counts,
                      std::map<std::string, double>* m) override {
    // The exact index scores every row on each search.
    (*m)["ann.scored_per_op"] =
        static_cast<double>(embeddings_->store().size());
    // Entries in the PPR vector, averaged over the traced PPR calls
    // (recomputed off the clock: TopKRelated calls Ppr inside ppr.cc,
    // where no wrapper can see it).
    graph_engine::PprEngine engine(view_.get());
    std::unordered_map<uint64_t, size_t> touched;
    double entries = 0;
    double calls = 0;
    for (size_t i = 0; i < requests_.size(); ++i) {
      if (traced_counts[i] == 0 || requests_[i].mode == 0) continue;
      const kg::EntityId e = requests_[i].entity;
      auto it = touched.find(e.value());
      if (it == touched.end()) {
        it = touched
                 .emplace(e.value(),
                          engine.Ppr(view_->local_entity(e)).size())
                 .first;
      }
      entries += static_cast<double>(it->second * traced_counts[i]);
      calls += static_cast<double>(traced_counts[i]);
    }
    (*m)["graph.ppr.touched_per_op"] = calls > 0 ? entries / calls : 0;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "entities=%zu view_entities=%zu training_edges=%zu "
                  "embedding_bytes=%zu",
                  gen_->kg.num_entities(), view_->num_entities(),
                  training_edges_,
                  embeddings_->store().size() * kEmbeddingDim * sizeof(float));
    return buf;
  }

 private:
  std::unique_ptr<kg::GeneratedKg> gen_;
  std::unique_ptr<graph_engine::GraphView> view_;
  size_t training_edges_ = 0;
  std::unique_ptr<serving::EmbeddingService> embeddings_;
  std::vector<std::unique_ptr<serving::RelatedEntitiesService>> services_;
  std::vector<Request> requests_;
  std::unordered_map<uint64_t, std::unordered_map<kg::EntityId, int>>
      two_hop_;
};

// ----------------------------------------------------------- link_web
class LinkWebWorkload : public Workload {
 public:
  struct Request {
    bool refresh;
    websim::DocId doc;
  };

  static std::unique_ptr<LinkWebWorkload> Setup(uint64_t seed,
                                                const std::string& cache_dir,
                                                Stages* st) {
    auto w = std::make_unique<LinkWebWorkload>();
    w->cache_dir_ = cache_dir;
    {
      StageTimer t(&st->kg_generate);
      w->gen_ = std::make_unique<kg::GeneratedKg>(Generate(seed));
    }
    {
      StageTimer t(&st->corpus_generate);
      websim::CorpusGeneratorConfig cc;
      cc.seed = Mix(seed, 12);
      w->corpus_ = websim::GenerateCorpus(*w->gen_, cc);
    }
    {
      StageTimer t(&st->service_build);
      auto cache = serving::EmbeddingKvCache::Open(cache_dir,
                                                   kProfileCacheBytes);
      if (!cache.ok()) {
        std::fprintf(stderr, "cache open failed: %s\n",
                     cache.status().ToString().c_str());
        return nullptr;
      }
      w->cache_ = std::move(cache).value();
      annotation::Annotator::Options opts;
      opts.preset = annotation::DeploymentPreset::kAccurate;
      w->annotator_ = std::make_unique<annotation::Annotator>(
          &w->gen_->kg, w->cache_.get(), opts);
    }
    {
      StageTimer t(&st->profile_precompute);
      const Status s =
          w->annotator_->reranker().PrecomputeProfiles(w->cache_.get());
      if (!s.ok()) {
        std::fprintf(stderr, "precompute failed: %s\n", s.ToString().c_str());
        return nullptr;
      }
    }
    w->MakeRequests(seed, kLinkWebRequests);
    return w;
  }

  ~LinkWebWorkload() override {
    annotator_.reset();
    cache_.reset();
    std::error_code ec;
    std::filesystem::remove_all(cache_dir_, ec);
  }

  /// 9 in 10 annotate a uniformly drawn document; 1 in 10 refresh the
  /// profile of the next entity in a seeded sweep over the catalog. The
  /// sweep writes distinct keys, so the store's memtable fills and
  /// flushes in the background while reads go on (about once a round);
  /// refreshing a few hot entities again and again would never flush.
  void MakeRequests(uint64_t seed, size_t n) {
    std::mt19937_64 rng(Mix(seed, 23));
    std::bernoulli_distribution refresh(kRefreshShare);
    requests_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      Request r;
      r.refresh = refresh(rng);
      r.doc = static_cast<websim::DocId>(rng() % corpus_.size());
      requests_.push_back(r);
    }
    for (const auto& rec : gen_->kg.catalog().records()) {
      refresh_order_.push_back(rec.id);
    }
    std::shuffle(refresh_order_.begin(), refresh_order_.end(), rng);
  }

  size_t size() const override { return requests_.size(); }
  int kind(size_t i) const override { return requests_[i].refresh ? 1 : 0; }
  int num_kinds() const override { return 2; }
  const char* kind_name(int k) const override {
    return k == 0 ? "annotate" : "refresh";
  }

  Outcome Serve(size_t i, const RequestContext& ctx,
                QualityTally* q) override {
    const Request& r = requests_[i];
    if (!ctx.Check("servebench.link_web").ok()) return {};
    if (r.refresh) {
      // Every entity's profile is the same vector it was precomputed
      // as, so the reads' digests do not depend on the refresh order.
      const kg::EntityId e =
          refresh_order_[next_refresh_.fetch_add(1) % refresh_order_.size()];
      const annotation::ContextReranker& reranker = annotator_->reranker();
      const std::vector<float> vec =
          reranker.vectorizer().Embed(reranker.EntityProfileText(e));
      return {cache_->Put(e, vec).ok(), 0};
    }
    const websim::WebDocument& doc = corpus_.doc(r.doc);
    const auto annotations = annotator_->Annotate(doc.body);
    uint64_t h = kFnvBasis;
    for (const auto& a : annotations) {
      h = Fnv(Fnv(Fnv(h, a.mention.begin), a.mention.end), a.entity.value());
    }
    if (q != nullptr) {
      // Mention-level F1 against the gold mentions (EXPERIMENTS F4a).
      std::set<std::tuple<size_t, size_t, uint64_t>> predicted;
      for (const auto& a : annotations) {
        predicted.insert({a.mention.begin, a.mention.end, a.entity.value()});
      }
      std::set<std::tuple<size_t, size_t, uint64_t>> gold;
      for (const auto& g : doc.gold_mentions) {
        gold.insert({g.begin, g.end, g.entity.value()});
      }
      for (const auto& p : predicted) (gold.count(p) ? q->a : q->b) += 1;
      for (const auto& g : gold) q->c += predicted.count(g) == 0;
    }
    return {true, h};
  }
  double Quality(const QualityTally& q) const override {
    const double tp = q.a, fp = q.b, fn = q.c;
    return tp > 0 ? 2 * tp / (2 * tp + fp + fn) : 0;
  }

  void BeginTracedPhase() override {
    cache_before_ = cache_->stats();
    auto& reg = obs::Registry::Global();
    kv_get_before_ = reg.latency("storage.kv.get_ns").SnapshotBuckets();
    bg_run_before_ = reg.latency("storage.kv.bg.run_ns").SumNs();
    flushes_before_ = reg.counter("storage.kv.bg.flushes").Value();
    compactions_before_ = reg.counter("storage.kv.bg.compactions").Value();
    stalls_before_ = reg.counter("storage.kv.bg.stall_rejects").Value();
  }

  void EndTracedPhase(uint64_t wall_ns,
                      const std::vector<const TraceState*>& states,
                      const std::vector<size_t>&,
                      std::map<std::string, double>* m) override {
    auto& reg = obs::Registry::Global();
    const auto now = cache_->stats();
    const double memory =
        static_cast<double>(now.memory_hits - cache_before_.memory_hits);
    const double disk =
        static_cast<double>(now.disk_hits - cache_before_.disk_hits);
    const double misses =
        static_cast<double>(now.misses - cache_before_.misses);
    const double gets = memory + disk + misses;
    (*m)["serving.kv_cache.memory_hit_ratio"] = gets > 0 ? memory / gets : 0;
    (*m)["serving.kv_cache.disk_hit_ratio"] = gets > 0 ? disk / gets : 0;

    auto buckets = reg.latency("storage.kv.get_ns").SnapshotBuckets();
    for (size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] -= std::min(buckets[b], kv_get_before_[b]);
    }
    (*m)["storage.kv.get.p99_us"] =
        obs::LatencyHistogram::PercentileFromBuckets(buckets, 99) / 1e3;

    uint64_t puts = 0;
    std::vector<uint32_t> put_ns;
    for (const TraceState* s : states) {
      puts += s->totals()[static_cast<size_t>(Layer::kKvCachePut)].calls;
      for (uint64_t ns : s->put_ns()) {
        put_ns.push_back(static_cast<uint32_t>(std::min<uint64_t>(ns, ~0u)));
      }
    }
    (*m)["serving.kv_cache.put.p99_us"] = Percentile(&put_ns, 99) / 1e3;
    const double kwrites = static_cast<double>(puts) / 1000.0;
    const auto delta = [&](const char* name, int64_t before) {
      return static_cast<double>(reg.counter(name).Value() - before);
    };
    (*m)["storage.kv.bg.flushes"] =
        kwrites > 0 ? delta("storage.kv.bg.flushes", flushes_before_) / kwrites
                    : 0;
    (*m)["storage.kv.bg.compactions"] =
        kwrites > 0
            ? delta("storage.kv.bg.compactions", compactions_before_) / kwrites
            : 0;
    (*m)["storage.kv.bg.stall_rejects"] =
        delta("storage.kv.bg.stall_rejects", stalls_before_);
    (*m)["storage.kv.bg.busy_share"] =
        static_cast<double>(reg.latency("storage.kv.bg.run_ns").SumNs() -
                            bg_run_before_) /
        static_cast<double>(wall_ns);

    uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(cache_dir_, ec)) {
      if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
    }
    const double live = static_cast<double>(gen_->kg.num_entities()) *
                        static_cast<double>(ProfileBytes());
    (*m)["storage.kv.space_amp"] =
        live > 0 ? static_cast<double>(bytes) / live : 0;
  }

  std::string Describe() const override {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "entities=%zu corpus_docs=%zu profile_bytes=%zu "
                  "lru_budget_bytes=%zu",
                  gen_->kg.num_entities(), corpus_.size(),
                  gen_->kg.num_entities() * ProfileBytes(),
                  kProfileCacheBytes);
    return buf;
  }

 private:
  size_t ProfileBytes() const {
    if (profile_bytes_ == 0) {
      const auto& reranker = annotator_->reranker();
      profile_bytes_ = reranker.vectorizer()
                           .Embed(reranker.EntityProfileText(
                               gen_->kg.catalog().records()[0].id))
                           .size() *
                       sizeof(float);
    }
    return profile_bytes_;
  }

  std::string cache_dir_;
  std::unique_ptr<kg::GeneratedKg> gen_;
  websim::WebCorpus corpus_;
  std::unique_ptr<serving::EmbeddingKvCache> cache_;
  std::unique_ptr<annotation::Annotator> annotator_;
  std::vector<Request> requests_;
  std::vector<kg::EntityId> refresh_order_;
  std::atomic<size_t> next_refresh_{0};
  mutable size_t profile_bytes_ = 0;

  serving::EmbeddingKvCache::Stats cache_before_;
  std::array<uint64_t, obs::LatencyHistogram::kNumBuckets> kv_get_before_{};
  uint64_t bg_run_before_ = 0;
  int64_t flushes_before_ = 0;
  int64_t compactions_before_ = 0;
  int64_t stalls_before_ = 0;
};

// ------------------------------------------------------- closed loop
struct Sample {
  uint32_t latency_ns;
  uint8_t kind;
};

struct ClientResult {
  std::vector<Sample> samples;
  std::vector<size_t> counts;  // executions per request index
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  uint64_t last_end_ns = 0;
};

struct LoopResult {
  std::vector<ClientResult> clients;
  uint64_t start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.attempted;
    return n;
  }
  uint64_t failed() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.failed;
    return n;
  }
  uint64_t wrong() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.wrong;
    return n;
  }
};

/// Runs kClients closed-loop clients for `seconds`. Client c serves
/// requests streams[c][offset], streams[c][offset + 1], ...; every op
/// passes admission with a kDeadlineMs deadline. With `traces`, each
/// client installs its TraceState and opens a root span per op.
LoopResult RunLoop(Workload* w, serving::AdmissionController* admission,
                   const std::vector<std::vector<uint32_t>>& streams,
                   const std::vector<uint64_t>& reference, double seconds,
                   size_t offset, bool record,
                   std::vector<std::unique_ptr<TraceState>>* traces) {
  LoopResult out;
  out.clients.resize(kClients);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<uint64_t> end_ns{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = out.clients[c];
      r.counts.assign(w->size(), 0);
      if (record) r.samples.reserve(static_cast<size_t>(seconds * 60000));
      TraceState* trace = traces != nullptr ? (*traces)[c].get() : nullptr;
      Install(trace);
      const std::vector<uint32_t>& stream = streams[c];
      size_t pos = offset;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const uint64_t stop = end_ns.load();
      uint64_t now = NowNs();
      while (now < stop) {
        const uint32_t i = stream[pos++ % stream.size()];
        if (trace != nullptr) {
          trace->set_request_id((static_cast<uint64_t>(c) << 40) |
                                r.attempted);
          trace->Begin(Layer::kOp);
        }
        const uint64_t t0 = NowNs();
        Outcome o;
        {
          const RequestContext ctx =
              RequestContext::WithTimeoutMillis(kDeadlineMs);
          serving::AdmissionController::Ticket ticket =
              admission->TryAdmit(ctx);
          if (ticket.ok()) o = w->Serve(i, ctx, nullptr);
        }
        now = NowNs();
        if (trace != nullptr) trace->End();
        ++r.attempted;
        ++r.counts[i];
        if (!o.ok) {
          ++r.failed;
        } else if (o.digest != reference[i]) {
          ++r.wrong;
        }
        if (record) {
          r.samples.push_back(
              {static_cast<uint32_t>(std::min<uint64_t>(now - t0, ~0u)),
               static_cast<uint8_t>(w->kind(i))});
        }
      }
      r.last_end_ns = now;
      Install(nullptr);
    });
  }
  while (ready.load() < kClients) std::this_thread::yield();
  out.start_ns = NowNs();
  end_ns.store(out.start_ns + static_cast<uint64_t>(seconds * 1e9));
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  uint64_t last = out.start_ns;
  for (const auto& c : out.clients) last = std::max(last, c.last_end_ns);
  out.wall_ns = last - out.start_ns;
  return out;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
    } else if (key == "--out-dir") {
      a->out_dir = v;
    } else if (key == "--expect-quality") {
      a->has_expected = true;
      a->expected_quality = std::strtod(v, nullptr);
    } else if (key == "--quality-floor") {
      a->quality_floor = std::strtod(v, nullptr);
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && a->seconds > 0 &&
         (a->workload == "ask" || a->workload == "related" ||
          a->workload == "link_web");
}

std::unique_ptr<Workload> SetupOnce(const Args& args, int rep, Stages* st) {
  if (args.workload == "ask") return AskWorkload::Setup(args.seed, st);
  if (args.workload == "related") {
    return RelatedWorkload::Setup(args.seed, st);
  }
  const std::string dir =
      args.out_dir + "/profile_cache_" + std::to_string(rep);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return LinkWebWorkload::Setup(args.seed, dir, st);
}

void PrintJson(bool correct, uint64_t attempted, uint64_t failed,
               const std::vector<std::tuple<std::string, double, const char*>>&
                   metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", name.c_str(), std::isfinite(value) ? value : 0,
                unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload ask|related|link_web "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] "
                 "[--expect-quality Q] [--quality-floor F]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  serving::AdmissionController admission;
  std::unique_ptr<Workload> w;
  std::vector<Stages> stages;
  std::vector<uint64_t> reference;
  std::vector<std::vector<uint32_t>> streams(kClients);
  double quality = 0;
  uint64_t recheck_mismatches = 0;
  std::vector<LoopResult> slices;
  for (int rep = 0; rep < kRounds; ++rep) {
    // 1. Set-up. The previous round's objects go first, so peak memory
    //    holds one set of serving objects.
    w.reset();
    Stages st;
    w = SetupOnce(args, rep, &st);
    if (w == nullptr) return 1;
    std::fprintf(stderr, "setup %d: %.3f s\n", rep, st.total());
    stages.push_back(st);

    if (rep == 0) {
      // 2. Verification pass, single-threaded and untimed. It also
      //    finishes any lazy set-up before two threads share the objects.
      std::fprintf(stderr, "%s\n", w->Describe().c_str());
      reference.resize(w->size());
      QualityTally tally;
      uint64_t verify_failed = 0;
      for (size_t i = 0; i < w->size(); ++i) {
        const Outcome o = w->Serve(
            i, RequestContext::WithTimeoutMillis(kDeadlineMs), &tally);
        verify_failed += !o.ok;
        reference[i] = o.digest;
      }
      quality = w->Quality(tally);
      std::fprintf(stderr, "verification: %zu requests, %" PRIu64
                   " failed, answer_quality %.17g\n",
                   w->size(), verify_failed, quality);
      if (verify_failed > 0) {
        std::fprintf(stderr, "verification requests failed\n");
        return 3;
      }
      if (args.has_expected &&
          quality != args.expected_quality) {
        std::fprintf(stderr,
                     "answer_quality %.17g differs from the recorded %.17g\n",
                     quality, args.expected_quality);
        return 3;
      }
      if (quality < args.quality_floor) {
        std::fprintf(stderr, "answer_quality %.17g is below the floor %.17g\n",
                     quality, args.quality_floor);
        return 3;
      }
      // Per-client request streams, seeded per client.
      for (int c = 0; c < kClients; ++c) {
        std::mt19937_64 rng(Mix(args.seed, 100 + c));
        streams[c].resize(kStreamLength);
        for (auto& i : streams[c]) {
          i = static_cast<uint32_t>(rng() % w->size());
        }
      }
    } else {
      // A rebuilt set-up must serve exactly what the first one did. The
      // single-threaded pass also finishes its lazy set-up.
      for (size_t i = 0; i < std::min(w->size(), kRecheckRequests); ++i) {
        const Outcome o = w->Serve(
            i, RequestContext::WithTimeoutMillis(kDeadlineMs), nullptr);
        recheck_mismatches += !o.ok || o.digest != reference[i];
      }
    }

    // 3. Warm-up, then this round's timed slices.
    (void)RunLoop(w.get(), &admission, streams, reference, kWarmupSeconds,
                  kStreamLength / 2 + rep * kSliceStride, false, nullptr);
    for (int s = 0; s < kSlicesPerRound; ++s) {
      const size_t index = slices.size();
      slices.push_back(RunLoop(w.get(), &admission, streams, reference,
                               args.seconds / kNumSlices,
                               index * kSliceStride, true, nullptr));
    }
  }
  const double rss_mb = PeakRssMb();

  std::vector<std::vector<uint32_t>> by_kind(w->num_kinds());
  std::vector<double> slice_throughput, slice_p50_ms, slice_p99_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = recheck_mismatches;
  for (const LoopResult& slice : slices) {
    attempted += slice.attempted();
    failed += slice.failed();
    wrong += slice.wrong();
    std::vector<uint32_t> latencies;
    for (const auto& c : slice.clients) {
      for (const Sample& s : c.samples) {
        latencies.push_back(s.latency_ns);
        by_kind[s.kind].push_back(s.latency_ns);
      }
    }
    slice_throughput.push_back(
        static_cast<double>(slice.attempted() - slice.failed()) /
        Seconds(slice.wall_ns));
    slice_p50_ms.push_back(Percentile(&latencies, 50) / 1e6);
    slice_p99_ms.push_back(Percentile(&latencies, 99) / 1e6);
    std::fprintf(stderr, "slice: %" PRIu64 " ops, %.1f ops/s p50 %.4f ms "
                 "p99 %.4f ms\n", slice.attempted(), slice_throughput.back(),
                 slice_p50_ms.back(), slice_p99_ms.back());
  }
  const auto mean_latency_ns = [](const LoopResult& r) {
    double sum = 0;
    double n = 0;
    for (const auto& c : r.clients) {
      for (const Sample& s : c.samples) sum += s.latency_ns;
      n += static_cast<double>(c.samples.size());
    }
    return n > 0 ? sum / n : 0.0;
  };
  const double throughput = QuietQuartile(slice_throughput, false);
  const double p50_ms = QuietQuartile(slice_p50_ms, true);
  const double p99_ms = QuietQuartile(slice_p99_ms, true);
  std::fprintf(stderr,
               "timed: %" PRIu64 " ops (%" PRIu64 " failed, %" PRIu64
               " wrong): %.1f ops/s p50 %.4f ms p99 %.4f ms rss %.1f MB\n",
               attempted, failed, wrong, throughput, p50_ms, p99_ms, rss_mb);

  bool correct = wrong == 0;
  std::vector<double> totals;
  for (const Stages& st : stages) totals.push_back(st.total());
  const double setup_s = Median(totals);

  if (!args.trace) {
    PrintJson(correct, attempted, failed,
              {{"setup_s", setup_s, "s"},
               {"throughput_ops_s", throughput, "1/s"},
               {"p50_ms", p50_ms, "ms"},
               {"p99_ms", p99_ms, "ms"},
               {"answer_quality", quality, "ratio"},
               {"rss_mb", rss_mb, "MB"}});
    return correct ? 0 : 1;
  }

  // 4. Traced run: the first slices' seeded streams again, in slices
  //    of the same length, accumulating into one TraceState per client.
  std::vector<std::unique_ptr<TraceState>> traces;
  for (int c = 0; c < kClients; ++c) {
    traces.push_back(
        std::make_unique<TraceState>(c, kSpanCapacityPerClient));
  }
  std::map<std::string, double> m;
  const auto admission_before = admission.stats();
  w->BeginTracedPhase();
  uint64_t traced_wall_ns = 0;
  std::vector<size_t> traced_counts(w->size(), 0);
  for (int s = 0; s < kSlicesPerRound; ++s) {
    const LoopResult traced =
        RunLoop(w.get(), &admission, streams, reference,
                args.seconds / kNumSlices, s * kSliceStride, false, &traces);
    correct = correct && traced.wrong() == 0;
    traced_wall_ns += traced.wall_ns;
    for (const auto& c : traced.clients) {
      for (size_t i = 0; i < c.counts.size(); ++i) {
        traced_counts[i] += c.counts[i];
      }
    }
  }
  std::vector<const TraceState*> states;
  for (const auto& t : traces) states.push_back(t.get());
  w->EndTracedPhase(traced_wall_ns, states, traced_counts, &m);

  std::array<LayerTotals, kNumLayers> sum{};
  std::array<uint64_t, kNumTallies> tallies{};
  for (const TraceState* s : states) {
    for (size_t l = 0; l < kNumLayers; ++l) {
      sum[l].calls += s->totals()[l].calls;
      sum[l].total_ns += s->totals()[l].total_ns;
      sum[l].self_ns += s->totals()[l].self_ns;
    }
    for (size_t t = 0; t < kNumTallies; ++t) {
      tallies[t] += s->tally(static_cast<Tally>(t));
    }
  }
  const auto& op = sum[static_cast<size_t>(Layer::kOp)];
  const double ops = static_cast<double>(std::max<uint64_t>(op.calls, 1));
  const auto calls = [&](Layer l) {
    return static_cast<double>(sum[static_cast<size_t>(l)].calls);
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  const auto tally_of = [&](Tally t) {
    return static_cast<double>(tallies[static_cast<size_t>(t)]);
  };
  for (size_t l = 1; l < kNumLayers; ++l) {
    m[std::string(LayerName(static_cast<Layer>(l))) + ".self_us"] =
        static_cast<double>(sum[l].self_ns) / ops / 1e3;
  }
  const auto admission_after = admission.stats();
  const double shed =
      static_cast<double>((admission_after.shed_low - admission_before.shed_low) +
                          (admission_after.shed_high - admission_before.shed_high) +
                          (admission_after.rejected_expired -
                           admission_before.rejected_expired));
  m["serving.admission.shed_share"] = ratio(shed, calls(Layer::kAdmission));
  m["annotation.detect.mentions_per_op"] = tally_of(Tally::kMentions) / ops;
  m["annotation.candidates.per_mention"] =
      ratio(tally_of(Tally::kCandidates), calls(Layer::kCandidates));
  m["annotation.rerank.share"] =
      ratio(calls(Layer::kRerank), tally_of(Tally::kMentions));
  m["serving.rank.facts_per_op"] =
      ratio(tally_of(Tally::kRankedFacts), calls(Layer::kRank));
  m["serving.kv_cache.gets_per_op"] = calls(Layer::kKvCacheGet) / ops;
  for (const char* name :
       {"ann.scored_per_op", "graph.ppr.touched_per_op",
        "serving.kv_cache.memory_hit_ratio", "serving.kv_cache.disk_hit_ratio",
        "storage.kv.get.p99_us", "serving.kv_cache.put.p99_us",
        "storage.kv.bg.flushes", "storage.kv.bg.compactions",
        "storage.kv.bg.busy_share", "storage.kv.bg.stall_rejects",
        "storage.kv.space_amp", "serving.related.emb.p50_us",
        "serving.related.ppr.p50_us", "serving.related.blend.p50_us"}) {
    m.emplace(name, 0.0);
  }
  if (args.workload == "related") {
    for (int k = 0; k < w->num_kinds(); ++k) {
      m[std::string("serving.related.") + w->kind_name(k) + ".p50_us"] =
          Percentile(&by_kind[k], 50) / 1e3;
    }
  }
  const auto median_stage = [&](double Stages::*field) {
    std::vector<double> v;
    for (const Stages& st : stages) v.push_back(st.*field);
    return Median(v);
  };
  m["setup.kg_generate_s"] = median_stage(&Stages::kg_generate);
  m["setup.view_build_s"] = median_stage(&Stages::view_build);
  m["setup.embedding_train_s"] = median_stage(&Stages::embedding_train);
  m["setup.service_build_s"] = median_stage(&Stages::service_build);
  m["setup.corpus_generate_s"] = median_stage(&Stages::corpus_generate);
  m["setup.profile_precompute_s"] = median_stage(&Stages::profile_precompute);
  m["serving.embedding.build_rss_mb"] =
      median_stage(&Stages::embedding_build_mb);
  // Against the last round's untraced slices: same set-up, and the
  // closest in time, so the least machine drift in between.
  double untraced_mean_ns = 0;
  for (size_t s = slices.size() - kSlicesPerRound; s < slices.size(); ++s) {
    untraced_mean_ns += mean_latency_ns(slices[s]) / kSlicesPerRound;
  }
  m["trace.overhead_ratio"] =
      ratio(static_cast<double>(op.total_ns) / ops, untraced_mean_ns);
  m["unattributed_share"] =
      ratio(static_cast<double>(op.self_ns), static_cast<double>(op.total_ns));

  // Per-layer table: calls and self time per op, share of op latency.
  std::fprintf(stderr, "traced: %.0f ops in %.3f s, mean op %.2f us\n", ops,
               Seconds(traced_wall_ns),
               static_cast<double>(op.total_ns) / ops / 1e3);
  std::fprintf(stderr, "%-26s %10s %12s %8s\n", "layer", "calls/op",
               "self us/op", "share");
  for (size_t l = 0; l < kNumLayers; ++l) {
    if (sum[l].calls == 0) continue;
    std::fprintf(stderr, "%-26s %10.3f %12.3f %8.4f\n",
                 l == 0 ? "(unattributed)"
                        : std::string(LayerName(static_cast<Layer>(l))).c_str(),
                 static_cast<double>(sum[l].calls) / ops,
                 static_cast<double>(sum[l].self_ns) / ops / 1e3,
                 ratio(static_cast<double>(sum[l].self_ns),
                       static_cast<double>(op.total_ns)));
  }
  std::fprintf(stderr, "trace.overhead_ratio %.4f\n",
               m["trace.overhead_ratio"]);
  const std::string spans_path =
      args.out_dir + "/spans_" + args.workload + ".csv";
  if (!WriteSpans(states, spans_path.c_str())) {
    std::fprintf(stderr, "could not write %s\n", spans_path.c_str());
  }

  std::vector<std::tuple<std::string, double, const char*>> out;
  for (const auto& [name, value] : m) {
    const char* unit = "ratio";
    if (name.ends_with("_us")) unit = "us";
    else if (name.ends_with("_s")) unit = "s";
    else if (name.ends_with("_mb")) unit = "MB";
    else if (name.ends_with("per_op") || name.ends_with("per_mention") ||
             name.ends_with("stall_rejects")) unit = "count";
    else if (name.ends_with("flushes") || name.ends_with("compactions")) {
      unit = "1/kwrite";
    }
    out.emplace_back(name, value, unit);
  }
  PrintJson(correct, attempted, failed, out);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
