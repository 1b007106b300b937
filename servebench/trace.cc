#include "trace.h"

#include <cstdlib>

namespace servebench {

std::string_view LayerName(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kAdmission: return "serving.admission";
    case Layer::kQaGlue: return "serving.qa.glue";
    case Layer::kAnnotate: return "annotation.annotate";
    case Layer::kDetect: return "annotation.detect";
    case Layer::kCandidates: return "annotation.candidates";
    case Layer::kRerank: return "annotation.rerank";
    case Layer::kProfileText: return "annotation.profile_text";
    case Layer::kProfileEmbed: return "text.profile_embed";
    case Layer::kKgObjects: return "kg.objects";
    case Layer::kRank: return "serving.rank";
    case Layer::kRelatedFuse: return "serving.related.fuse";
    case Layer::kAnnSearch: return "ann.search";
    case Layer::kPpr: return "graph.ppr";
    case Layer::kKvCacheGet: return "serving.kv_cache.get";
    case Layer::kKvCachePut: return "serving.kv_cache.put";
    case Layer::kKvStoreGet: return "storage.kv.get";
    case Layer::kKvStorePut: return "storage.kv.put";
    case Layer::kCount: break;
  }
  return "?";
}

TraceState::TraceState(uint32_t thread_index, size_t span_capacity)
    : thread_index_(thread_index), span_capacity_(span_capacity) {
  spans_.reserve(span_capacity);
}

void TraceState::Begin(Layer layer) {
  if (depth_ == kMaxDepth) std::abort();  // wrappers recurse: a bug
  int32_t span = -1;
  if (spans_.size() < span_capacity_) {
    span = static_cast<int32_t>(spans_.size());
    SpanRecord rec;
    rec.request_id = request_id_;
    rec.parent = depth_ > 0 ? stack_[depth_ - 1].span : -1;
    rec.layer = layer;
    spans_.push_back(rec);
  }
  if (depth_ > 0) ++stack_[depth_ - 1].children;
  // Read the clock last so span bookkeeping is charged to the parent.
  stack_[depth_++] = Frame{layer, 0, 0, 0, span};
  stack_[depth_ - 1].start_ns = NowNs();
}

uint64_t TraceState::End() {
  const uint64_t end = NowNs();
  const Frame& f = stack_[--depth_];
  const uint64_t duration = end - f.start_ns;
  LayerTotals& t = totals_[static_cast<size_t>(f.layer)];
  ++t.calls;
  t.total_ns += duration;
  t.self_ns += duration > f.child_ns ? duration - f.child_ns : 0;
  if (depth_ > 0) stack_[depth_ - 1].child_ns += duration;
  if (f.span >= 0) {
    spans_[f.span].start_ns = f.start_ns;
    spans_[f.span].end_ns = end;
  }
  if (f.layer == Layer::kKvCachePut) put_ns_.push_back(duration);
  return duration;
}

bool TraceState::TakeFirstChildOf(Layer layer) {
  if (depth_ == 0) return false;
  Frame& top = stack_[depth_ - 1];
  if (top.layer != layer || top.children != 0) return false;
  top.children = 1;
  return true;
}

bool WriteSpans(const std::vector<const TraceState*>& states,
                const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "thread,request_id,span,parent,name,start_ns,end_ns\n");
  for (const TraceState* s : states) {
    for (size_t i = 0; i < s->spans().size(); ++i) {
      const SpanRecord& r = s->spans()[i];
      if (r.end_ns == 0) continue;  // still open when the run stopped
      const std::string_view name = LayerName(r.layer);
      std::fprintf(f, "%u,%llu,%zu,%d,%.*s,%llu,%llu\n", s->thread_index(),
                   static_cast<unsigned long long>(r.request_id), i,
                   r.parent, static_cast<int>(name.size()), name.data(),
                   static_cast<unsigned long long>(r.start_ns),
                   static_cast<unsigned long long>(r.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
