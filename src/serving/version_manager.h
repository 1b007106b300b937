#ifndef SAGA_SERVING_VERSION_MANAGER_H_
#define SAGA_SERVING_VERSION_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "embedding/embedding_store.h"
#include "serving/embedding_service.h"
#include "storage/kv_store.h"

namespace saga::serving {

/// One immutable serving version of the graph: a KvStore (facts /
/// entity catalog), the embedding shard, and an optional ANN-backed
/// embedding service — loaded side by side with whatever is live and
/// flipped in atomically. The paper's serving tier rebuilds the whole
/// graph artifact set per growth cycle; versions are how a bad build
/// is rejected *before* it takes traffic (§6).
struct ServingVersion {
  std::string id;   // directory name, e.g. "v00042"
  std::string dir;  // version root on disk
  std::unique_ptr<storage::KvStore> kv;
  embedding::EmbeddingStore embeddings;
  /// Built when the version has a non-empty shard; null otherwise.
  std::unique_ptr<EmbeddingService> service;
  /// Live key count at load time (catalog size invariant input).
  uint64_t key_count = 0;
};

/// Validated hot-swap of serving versions with automatic rollback.
///
/// Swap pipeline (SwapTo):
///   1. side-by-side: the candidate is fully loaded before the live
///      version is touched;
///   2. canary validation: checksum pass over every candidate table,
///      a coverage invariant (the max fraction of the live catalog
///      allowed to disappear), and a sampled query-answer diff against
///      the live version;
///   3. RCU-style flip: Current() hands out shared_ptr copies, so
///      in-flight requests finish on the version they started with
///      while new requests see the new pointer;
///   4. probation: the previous version is kept alive; if the error
///      rate over the first kProbationRequests outcomes exceeds
///      kRollbackErrorRate, the flip is undone automatically.
///
/// A rejected candidate never takes a request and the live version
/// keeps serving throughout — validation failure is FailedPrecondition
/// (deploy-time bug), checksum failure is DataLoss (rotted artifact).
///
/// Metrics: `version.swap.attempts/.committed/.rejected/.rollbacks`
/// counters, `version.swap.probation_errors` counter and
/// `version.serving.age_swaps` gauge (committed swaps + 1, set at each
/// flip).
class VersionManager {
 public:
  struct ValidationOptions {
    /// Sampled query-answer diff: this many keys sampled from the live
    /// version and looked up in the candidate.
    size_t sample_queries = 16;
  };

  struct Options {
    ValidationOptions validation;
  };

  /// Outcomes counted after a flip before the swap is considered
  /// committed.
  static constexpr uint64_t kProbationRequests = 100;
  /// Error-rate threshold over the probation window that triggers
  /// automatic rollback, checked once this many outcomes are in.
  static constexpr double kRollbackErrorRate = 0.5;
  static constexpr uint64_t kRollbackMinOutcomes = 10;

  explicit VersionManager(Options options);

  /// Loads a version directory into a handle: KvStore recovery, then,
  /// when the directory holds an embedding shard
  /// (EmbeddingStore::kShardFileName), the shard and an exact
  /// EmbeddingService over it. No effect on what is being served.
  static Result<std::shared_ptr<ServingVersion>> LoadVersion(
      const std::string& id, const std::string& dir);

  /// Installs the first version without a live baseline (the checksum
  /// check still applies; no diff, no probation).
  Status Activate(std::shared_ptr<ServingVersion> version);

  /// Full validated swap against the current version. On any
  /// validation failure the candidate is rejected and the live version
  /// keeps serving.
  Status SwapTo(std::shared_ptr<ServingVersion> candidate);

  /// The version serving new requests. Callers keep the shared_ptr for
  /// the duration of one request — versions die only once the last
  /// in-flight request drops its reference.
  std::shared_ptr<const ServingVersion> Current() const;
  std::string current_id() const;

  /// Post-swap health feedback: callers report request outcomes and
  /// the manager rolls back if probation goes bad. Cheap no-op when no
  /// probation is active.
  void RecordRequestOutcome(bool ok);
  bool InProbation() const;

 private:
  Status Validate(const ServingVersion& candidate,
                  const ServingVersion* live);
  void RollbackLocked();

  Options options_;

  mutable std::mutex mu_;
  std::shared_ptr<const ServingVersion> current_;
  std::shared_ptr<const ServingVersion> previous_;
  bool in_probation_ = false;
  uint64_t probation_seen_ = 0;
  uint64_t probation_failed_ = 0;
};

}  // namespace saga::serving

#endif  // SAGA_SERVING_VERSION_MANAGER_H_
