#include "replication/replica_group.h"

#include <algorithm>
#include <chrono>

#include "common/file_util.h"
#include "common/metrics.h"
#include "common/serialization.h"
#include "common/trace.h"

namespace saga::replication {

namespace {

constexpr uint8_t kOpPut = 1;
/// Simulation granularity.
constexpr double kTickMs = 1.0;
/// Logical time budget for one acked Put (covers one failover).
constexpr double kPutTimeoutMs = 3000.0;
/// Logical time budget for finding/electing a leader before a Put
/// gives up.
constexpr double kElectionSettleMs = 3000.0;

double WallUnixMs() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::string ReplicaGroup::EncodePut(std::string_view key,
                                    std::string_view value) {
  std::string out;
  out.push_back(static_cast<char>(kOpPut));
  BinaryWriter w(&out);
  w.PutString(key);
  w.PutString(value);
  return out;
}

ReplicaGroup::ReplicaGroup(Options options)
    : options_(options), transport_(options.seed ^ 0x7A115EEDull) {}

Result<std::unique_ptr<ReplicaGroup>> ReplicaGroup::Create(Options options) {
  if (options.num_replicas < 1) {
    return Status::InvalidArgument("replica group needs >= 1 replica");
  }
  if (!options.dir.empty()) {
    SAGA_RETURN_IF_ERROR(CreateDirIfMissing(options.dir));
  }
  std::unique_ptr<ReplicaGroup> group(new ReplicaGroup(options));
  group->applied_.resize(options.num_replicas);
  for (int i = 0; i < options.num_replicas; ++i) {
    Replica::Options r;
    r.id = i;
    r.group_size = options.num_replicas;
    r.seed = options.seed;
    r.wal_path = options.dir.empty()
                     ? std::string()
                     : options.dir + "/replica_" + std::to_string(i) + ".wal";
    auto* self = group.get();
    group->replicas_.push_back(std::make_unique<Replica>(
        r, &group->transport_,
        [self](int id, const LogRecord& rec) { self->ApplyRecord(id, rec); }));
    SAGA_RETURN_IF_ERROR(group->replicas_.back()->Open(0));
  }
  for (int i = 0; i < options.num_replicas; ++i) {
    Replica* rep = group->replicas_[i].get();
    auto* self = group.get();
    group->transport_.Register(i, [self, rep](const Message& m) {
      rep->HandleMessage(m, self->now_ms_);
    });
  }
  return group;
}

void ReplicaGroup::ApplyRecord(int replica_id, const LogRecord& record) {
  // Committed-only, in seq order, deterministic: the replicated state
  // machine of this tier is a sorted KV map per replica.
  std::string_view payload(record.payload);
  if (payload.empty() || static_cast<uint8_t>(payload[0]) != kOpPut) return;
  BinaryReader r(payload.substr(1));
  std::string key;
  std::string value;
  if (!r.GetString(&key).ok() || !r.GetString(&value).ok()) return;
  applied_[replica_id].insert_or_assign(std::move(key), std::move(value));
}

void ReplicaGroup::Step(double ms) {
  const double deadline = now_ms_ + ms;
  while (now_ms_ < deadline) {
    now_ms_ = std::min(now_ms_ + kTickMs, deadline);
    for (auto& r : replicas_) r->Tick(now_ms_);
    transport_.DeliverDue(now_ms_);
  }
  TrackFailover();
  UpdateMetrics();
}

bool ReplicaGroup::StepUntil(const std::function<bool()>& pred,
                             double max_ms) {
  const double deadline = now_ms_ + max_ms;
  while (true) {
    if (pred()) return true;
    if (now_ms_ >= deadline) return false;
    Step(kTickMs);
  }
}

int ReplicaGroup::LeaderId() const {
  int best = -1;
  uint64_t best_epoch = 0;
  for (const auto& r : replicas_) {
    if (r->alive() && r->role() == Role::kLeader && r->epoch() >= best_epoch) {
      best = r->id();
      best_epoch = r->epoch();
    }
  }
  return best;
}

uint64_t ReplicaGroup::epoch() const {
  uint64_t e = 0;
  for (const auto& r : replicas_) e = std::max(e, r->epoch());
  return e;
}

uint64_t ReplicaGroup::CommitSeq() const {
  uint64_t c = 0;
  for (const auto& r : replicas_) {
    if (r->alive()) c = std::max(c, r->commit_seq());
  }
  return c;
}

uint64_t ReplicaGroup::LagOf(int replica_id) const {
  const uint64_t group_commit = CommitSeq();
  const uint64_t mine = replicas_[replica_id]->commit_seq();
  return group_commit > mine ? group_commit - mine : 0;
}

Status ReplicaGroup::AppendOp(std::string op) {
  // Root span of the quorum write: leader append, shipped appends and
  // follower acks all stitch under it (by trace id, across the
  // simulated transport).
  obs::ScopedSpan span("replication.group.write");
  // Find (or wait out the election of) a leader.
  if (!StepUntil([this] { return LeaderId() >= 0; }, kElectionSettleMs)) {
    SAGA_COUNTER("replication.group.rejected_puts").Add();
    obs::MarkSpanError(StatusCode::kUnavailable);
    return Status::Unavailable("no leader elected within settle budget");
  }
  const int lid = LeaderId();
  Replica* leader = replicas_[lid].get();
  const uint64_t put_epoch = leader->epoch();
  Result<uint64_t> seq = leader->LeaderAppend(std::move(op), now_ms_);
  if (!seq.ok()) {
    SAGA_COUNTER("replication.group.rejected_puts").Add();
    obs::MarkSpanError(StatusCode::kUnavailable);
    return Status::Unavailable("leader refused append: " +
                               seq.status().ToString());
  }
  // Acked only when committed — observed on any live replica (commit
  // indexes only ever cover quorum-replicated records).
  const bool acked = StepUntil(
      [&] {
        for (const auto& r : replicas_) {
          if (r->alive() && r->IsCommitted(*seq, put_epoch)) return true;
        }
        return false;
      },
      kPutTimeoutMs);
  if (!acked) {
    SAGA_COUNTER("replication.group.rejected_puts").Add();
    obs::MarkSpanError(StatusCode::kUnavailable);
    return Status::Unavailable(
        "write not quorum-acked within timeout (outcome unknown)");
  }
  SAGA_COUNTER("replication.group.acked_puts").Add();
  return Status::OK();
}

Status ReplicaGroup::Put(std::string_view key, std::string_view value) {
  return AppendOp(EncodePut(key, value));
}

std::vector<serving::ReplicaRouter::ReplicaView> ReplicaGroup::Views() const {
  std::vector<serving::ReplicaRouter::ReplicaView> views;
  const int lid = LeaderId();
  const Replica* leader = lid >= 0 ? replicas_[lid].get() : nullptr;
  for (const auto& r : replicas_) {
    serving::ReplicaRouter::ReplicaView v;
    v.id = r->id();
    v.is_leader = r->id() == lid;
    if (!r->alive() || leader == nullptr) {
      v.healthy = false;
    } else if (v.is_leader) {
      v.healthy = true;
    } else {
      v.healthy = !leader->PeerSuspected(r->id());
    }
    v.lag_records = LagOf(r->id());
    views.push_back(v);
  }
  return views;
}

Result<std::string> ReplicaGroup::Get(std::string_view key) {
  const int target = router_.PickRead(Views());
  if (target < 0) {
    return Status::Unavailable("no replica may serve reads (no leader)");
  }
  return GetAt(target, key);
}

Result<std::string> ReplicaGroup::GetAt(int replica_id,
                                        std::string_view key) const {
  const auto& kv = applied_[replica_id];
  auto it = kv.find(key);
  if (it == kv.end()) {
    return Status::NotFound("no value for key on replica " +
                            std::to_string(replica_id));
  }
  return it->second;
}

void ReplicaGroup::Crash(int replica_id) { replicas_[replica_id]->Crash(); }

Status ReplicaGroup::Restart(int replica_id) {
  // Volatile applied state died with the process; it is rebuilt as the
  // recovered replica re-advances its commit index.
  applied_[replica_id].clear();
  return replicas_[replica_id]->Restart(now_ms_);
}

void ReplicaGroup::PartitionNode(int replica_id) {
  transport_.PartitionNode(replica_id, num_replicas());
}

void ReplicaGroup::PartitionSides(const std::vector<int>& a,
                                  const std::vector<int>& b) {
  for (int x : a) {
    for (int y : b) transport_.Partition(x, y);
  }
}

void ReplicaGroup::HealAll() { transport_.HealAll(); }

void ReplicaGroup::SetFaultProfile(double drop_p, double duplicate_p,
                                   double reorder_p, double jitter_ms) {
  transport_.SetFaultProfile(drop_p, duplicate_p, reorder_p, jitter_ms);
}

void ReplicaGroup::TrackFailover() {
  const int lid = LeaderId();
  if (lid < 0) return;
  const uint64_t e = replicas_[lid]->epoch();
  if (last_leader_ >= 0 &&
      (lid != last_leader_ || e != last_leader_epoch_)) {
    SAGA_COUNTER("replication.group.failovers").Add();
    SAGA_GAUGE("replication.group.last_failover_unix_ms").Set(WallUnixMs());
  }
  last_leader_ = lid;
  last_leader_epoch_ = e;
}

void ReplicaGroup::UpdateMetrics() {
  SAGA_GAUGE("replication.group.epoch").Set(static_cast<double>(epoch()));
  SAGA_GAUGE("replication.group.commit_seq")
      .Set(static_cast<double>(CommitSeq()));
  SAGA_GAUGE("replication.group.leader_index")
      .Set(static_cast<double>(LeaderId()));
  uint64_t max_lag = 0;
  const auto views = Views();
  for (const auto& v : views) {
    max_lag = std::max(max_lag, v.lag_records);
    // Dynamic (per-replica) names can't go through the literal-only
    // SAGA_* macros; the registry call is the same thing uncached.
    const std::string idx = std::to_string(v.id);
    obs::Registry::Global()
        .gauge("replication.health.replica_" + idx)
        .Set(v.healthy ? 1.0 : 0.0);
    obs::Registry::Global()
        .gauge("replication.lag.replica_" + idx)
        .Set(static_cast<double>(v.lag_records));
  }
  SAGA_GAUGE("replication.group.max_lag_records")
      .Set(static_cast<double>(max_lag));
}

}  // namespace saga::replication
