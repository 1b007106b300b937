#include "annotation/web_linker.h"

#include <algorithm>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace saga::annotation {

void AnnotationIndex::Set(const AnnotatedDocument& doc) {
  auto it = by_doc_.find(doc.doc);
  if (it != by_doc_.end()) {
    num_edges_ -= it->second.annotations.size();
  }
  num_edges_ += doc.annotations.size();
  by_doc_[doc.doc] = doc;
}

const AnnotatedDocument* AnnotationIndex::ForDoc(websim::DocId doc) const {
  auto it = by_doc_.find(doc);
  return it == by_doc_.end() ? nullptr : &it->second;
}

IncrementalWebLinker::IncrementalWebLinker(const Annotator* annotator,
                                           kg::KnowledgeGraph* kg)
    : IncrementalWebLinker(annotator, kg, nullptr) {}

IncrementalWebLinker::IncrementalWebLinker(const Annotator* annotator,
                                           kg::KnowledgeGraph* kg,
                                           ThreadPool* pool)
    : annotator_(annotator), kg_(kg), pool_(pool) {
  kg::PredicateMeta meta;
  meta.name = "mentioned_in";
  meta.range_kind = kg::Value::Kind::kString;  // document URL
  meta.functional = false;
  meta.embedding_relevant = false;
  meta.surface_form = "mentioned in";
  mentioned_in_ = kg_->ontology().AddPredicate(std::move(meta));
  source_ = kg_->AddSource("web_annotation", 0.7);
}

IncrementalWebLinker::PassStats IncrementalWebLinker::AnnotateCorpus(
    const websim::WebCorpus& corpus) {
  obs::ScopedSpan pass_span("annotation.linker.pass");
  PassStats stats;
  // Phase 1: decide what changed.
  std::vector<websim::DocId> work;
  {
    obs::ScopedSpan span("annotation.linker.diff");
    for (websim::DocId id = 0; id < corpus.size(); ++id) {
      ++stats.docs_scanned;
      auto seen = seen_versions_.find(id);
      if (seen != seen_versions_.end() &&
          seen->second == corpus.doc(id).version) {
        ++stats.docs_skipped;
      } else {
        work.push_back(id);
      }
    }
  }

  // Phase 2: annotate — per-document, independent, parallelizable.
  std::vector<AnnotatedDocument> results(work.size());
  {
    obs::ScopedSpan span("annotation.linker.annotate");
    ParallelFor(pool_, work.size(), [&](size_t i) {
      const websim::WebDocument& doc = corpus.doc(work[i]);
      results[i].doc = work[i];
      results[i].doc_version = doc.version;
      results[i].annotations = annotator_->Annotate(doc.body);
    });
  }
  SAGA_COUNTER("annotation.linker.docs_annotated").Add(
      static_cast<int64_t>(work.size()));
  SAGA_COUNTER("annotation.linker.docs_skipped").Add(
      static_cast<int64_t>(stats.docs_skipped));

  // Phase 3: apply to the index and KG on this thread.
  obs::ScopedSpan apply_span("annotation.linker.apply");
  for (AnnotatedDocument& annotated : results) {
    const websim::WebDocument& doc = corpus.doc(annotated.doc);
    stats.annotations += annotated.annotations.size();
    ++stats.docs_annotated;
    for (const Annotation& a : annotated.annotations) {
      const uint64_t edge_key =
          HashCombine(a.entity.value(), Hash64(doc.url));
      if (kg_edges_.insert(edge_key).second) {
        kg_->AddFact(a.entity, mentioned_in_, kg::Value::String(doc.url),
                     source_, a.score);
      }
    }
    seen_versions_[annotated.doc] = annotated.doc_version;
    index_.Set(std::move(annotated));
  }
  return stats;
}

}  // namespace saga::annotation
