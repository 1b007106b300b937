#ifndef SAGA_ANNOTATION_WEB_LINKER_H_
#define SAGA_ANNOTATION_WEB_LINKER_H_

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "annotation/annotator.h"
#include "annotation/types.h"
#include "common/threadpool.h"
#include "kg/knowledge_graph.h"
#include "websim/corpus_generator.h"

namespace saga::annotation {

/// The entity->document edge set produced by "linking the Web" (§3.1):
/// every annotation becomes an edge from a KG entity to a Web document.
/// Set/Remove maintain both directions, so the const readers never
/// write and may run on many threads between updates.
class AnnotationIndex {
 public:
  void Set(const AnnotatedDocument& doc);
  void Remove(websim::DocId doc);

  /// Documents annotated with `e`, ascending by DocId.
  const std::vector<websim::DocId>& DocsMentioning(kg::EntityId e) const;
  const AnnotatedDocument* ForDoc(websim::DocId doc) const;
  size_t num_annotated_docs() const { return by_doc_.size(); }
  size_t num_entity_doc_edges() const { return num_edges_; }

 private:
  /// Removes `doc`'s entity->doc edges from by_entity_.
  void UnlinkEntities(const AnnotatedDocument& doc);

  std::unordered_map<websim::DocId, AnnotatedDocument> by_doc_;
  std::unordered_map<kg::EntityId, std::vector<websim::DocId>> by_entity_;
  size_t num_edges_ = 0;
  std::vector<websim::DocId> empty_;
};

/// Incremental web-scale annotation driver (§3.1 "rate of change"): the
/// first pass annotates everything; later passes re-annotate only
/// documents whose version changed, updating the index in place.
/// Annotation is embarrassingly parallel per document; pass a
/// ThreadPool to fan out (KG/index updates stay on the calling thread).
class IncrementalWebLinker {
 public:
  struct PassStats {
    size_t docs_scanned = 0;
    size_t docs_annotated = 0;   // actually processed this pass
    size_t docs_skipped = 0;     // unchanged, reused
    size_t annotations = 0;      // produced this pass
  };

  IncrementalWebLinker(const Annotator* annotator, kg::KnowledgeGraph* kg);
  IncrementalWebLinker(const Annotator* annotator, kg::KnowledgeGraph* kg,
                       ThreadPool* pool);

  /// Annotates (changed) documents, updates the index, and records
  /// entity->document edges in the KG via the `mentioned_in` predicate.
  PassStats AnnotateCorpus(const websim::WebCorpus& corpus);

  const AnnotationIndex& index() const { return index_; }
  kg::PredicateId mentioned_in_predicate() const { return mentioned_in_; }

 private:
  const Annotator* annotator_;
  kg::KnowledgeGraph* kg_;
  ThreadPool* pool_;  // nullable: annotate inline
  kg::PredicateId mentioned_in_;
  kg::SourceId source_;
  AnnotationIndex index_;
  std::unordered_map<websim::DocId, uint32_t> seen_versions_;
  /// Entity-doc pairs already edged into the KG (avoid duplicates).
  std::unordered_set<uint64_t> kg_edges_;
};

}  // namespace saga::annotation

#endif  // SAGA_ANNOTATION_WEB_LINKER_H_
