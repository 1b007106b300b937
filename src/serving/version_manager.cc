#include "serving/version_manager.h"

#include <algorithm>
#include <utility>

#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"

namespace saga::serving {

namespace {

/// Fraction of the live catalog a candidate may drop: 0.1 = the
/// candidate must keep >= 90% of live keys.
constexpr double kMaxKeyDropFraction = 0.1;
/// Max fraction of sampled lookups allowed to miss in the candidate
/// (changed values are expected across growth cycles; wholesale
/// disappearance is not).
constexpr double kMaxSampleMissFraction = 0.25;
constexpr uint64_t kSampleSeed = 0x5A6A;

}  // namespace

VersionManager::VersionManager(Options options) : options_(options) {}

Result<std::shared_ptr<ServingVersion>> VersionManager::LoadVersion(
    const std::string& id, const std::string& dir) {
  auto v = std::make_shared<ServingVersion>();
  v->id = id;
  v->dir = dir;
  SAGA_ASSIGN_OR_RETURN(v->kv, storage::KvStore::Open(dir));
  const std::string shard =
      JoinPath(dir, embedding::EmbeddingStore::kShardFileName);
  if (FileExists(shard)) {
    SAGA_ASSIGN_OR_RETURN(v->embeddings,
                          embedding::EmbeddingStore::Load(shard));
  }
  if (v->embeddings.size() > 0) {
    v->service =
        std::make_unique<EmbeddingService>(v->embeddings, /*kg=*/nullptr);
  }
  SAGA_ASSIGN_OR_RETURN(auto all, v->kv->ScanPrefix(""));
  v->key_count = all.size();
  return v;
}

Status VersionManager::Validate(const ServingVersion& candidate,
                                const ServingVersion* live) {
  const ValidationOptions& vo = options_.validation;

  // Checksum pass: every block of every table. A candidate that rots
  // between build and deploy is caught here, not by a user query.
  SAGA_RETURN_IF_ERROR(candidate.kv->VerifyTables());

  if (live == nullptr) return Status::OK();

  // Coverage invariant: a growth cycle may reshape the graph, but a
  // candidate that lost a large slice of the live catalog is a broken
  // build, not a smaller graph.
  const auto floor_keys = static_cast<uint64_t>(
      static_cast<double>(live->key_count) *
      (1.0 - kMaxKeyDropFraction));
  if (candidate.key_count < floor_keys) {
    return Status::FailedPrecondition(
        "candidate " + candidate.id + " dropped too much of the catalog: " +
        std::to_string(candidate.key_count) + " keys vs live " +
        std::to_string(live->key_count));
  }

  // Sampled query-answer diff: ask the candidate for keys the live
  // version answers. Values may legitimately change; vanishing
  // wholesale may not.
  if (vo.sample_queries > 0 && live->key_count > 0) {
    SAGA_ASSIGN_OR_RETURN(auto live_rows, live->kv->ScanPrefix(""));
    Rng rng(kSampleSeed);
    size_t misses = 0;
    const size_t samples =
        std::min(vo.sample_queries, live_rows.size());
    for (size_t i = 0; i < samples; ++i) {
      const auto& key = live_rows[rng.Uniform(live_rows.size())].first;
      auto r = candidate.kv->Get(key);
      if (r.status().IsDataLoss()) return r.status();
      if (!r.ok()) ++misses;
    }
    if (static_cast<double>(misses) >
        kMaxSampleMissFraction * static_cast<double>(samples)) {
      return Status::FailedPrecondition(
          "candidate " + candidate.id + " missed " + std::to_string(misses) +
          "/" + std::to_string(samples) + " sampled live queries");
    }
  }
  return Status::OK();
}

Status VersionManager::Activate(std::shared_ptr<ServingVersion> version) {
  if (version == nullptr || version->kv == nullptr) {
    return Status::InvalidArgument("null version");
  }
  SAGA_RETURN_IF_ERROR(Validate(*version, nullptr));
  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != nullptr) {
    return Status::FailedPrecondition(
        "already serving " + current_->id + "; use SwapTo");
  }
  current_ = std::move(version);
  SAGA_LOG(Info) << "serving version " << current_->id;
  return Status::OK();
}

Status VersionManager::SwapTo(std::shared_ptr<ServingVersion> candidate) {
  if (candidate == nullptr || candidate->kv == nullptr) {
    return Status::InvalidArgument("null candidate");
  }
  SAGA_COUNTER("version.swap.attempts").Add();
  const std::shared_ptr<const ServingVersion> live = Current();
  if (live == nullptr) {
    return Status::FailedPrecondition("no live version; use Activate");
  }
  // Validation runs outside the lock: the live version keeps serving
  // (and the flip stays atomic) while the candidate is interrogated.
  Status valid = Validate(*candidate, live.get());
  if (!valid.ok()) {
    SAGA_COUNTER("version.swap.rejected").Add();
    SAGA_LOG(Error) << "rejecting candidate " << candidate->id << ": "
                    << valid;
    return valid;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (current_ != live) {
    // Someone else swapped while we validated; the diff baseline is
    // stale, so the caller must re-run.
    return Status::FailedPrecondition(
        "live version changed during validation");
  }
  previous_ = std::move(current_);
  current_ = std::move(candidate);
  in_probation_ = true;
  probation_seen_ = 0;
  probation_failed_ = 0;
  const int64_t committed = SAGA_COUNTER("version.swap.committed").Value();
  SAGA_GAUGE("version.serving.age_swaps")
      .Set(static_cast<double>(committed + 1));
  SAGA_LOG(Info) << "swapped serving version " << previous_->id << " -> "
                 << current_->id << " (probation)";
  return Status::OK();
}

void VersionManager::RollbackLocked() {
  SAGA_COUNTER("version.swap.rollbacks").Add();
  SAGA_LOG(Error) << "rolling back serving version " << current_->id
                  << " -> " << previous_->id << " (probation error rate "
                  << probation_failed_ << "/" << probation_seen_ << ")";
  current_ = std::move(previous_);
  previous_ = nullptr;
  in_probation_ = false;
}

void VersionManager::RecordRequestOutcome(bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!in_probation_) return;
  ++probation_seen_;
  if (!ok) {
    ++probation_failed_;
    SAGA_COUNTER("version.swap.probation_errors").Add();
  }
  // Early rollback: check the rate at every outcome once a minimum
  // sample exists.
  if (probation_seen_ >= kRollbackMinOutcomes &&
      static_cast<double>(probation_failed_) >
          kRollbackErrorRate *
              static_cast<double>(probation_seen_)) {
    RollbackLocked();
    return;
  }
  if (probation_seen_ >= kProbationRequests) {
    in_probation_ = false;
    previous_ = nullptr;  // commit: old version may now be reclaimed
    SAGA_COUNTER("version.swap.committed").Add();
    SAGA_LOG(Info) << "serving version " << current_->id
                   << " committed after probation";
  }
}

bool VersionManager::InProbation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_probation_;
}

std::shared_ptr<const ServingVersion> VersionManager::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

std::string VersionManager::current_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_ == nullptr ? "" : current_->id;
}

}  // namespace saga::serving
