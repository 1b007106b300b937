#include "replication/replica.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/trace.h"

namespace saga::replication {

namespace {

/// Leader-side ship/heartbeat cadence.
constexpr double kHeartbeatIntervalMs = 10.0;
/// Each election timer is the detector timeout stretched by a fresh
/// draw in [1, 1 + kElectionJitterFraction).
constexpr double kElectionJitterFraction = 0.8;
/// Records per append message (catch-up batches).
constexpr size_t kMaxBatchRecords = 64;

/// Attaches the sender's ambient trace context to an outgoing message:
/// handler spans on the receiver parent under the span that was open
/// when the message was sent.
void StampTrace(Message& m) {
  const obs::TraceContext ctx = obs::CurrentTraceContext();
  m.trace_id_hi = ctx.trace_id_hi;
  m.trace_id_lo = ctx.trace_id_lo;
  m.parent_span_id = ctx.span_id;
}

std::string_view HandlerSpanName(MessageType type) {
  switch (type) {
    case MessageType::kAppend:
      return "replication.replica.handle_append";
    case MessageType::kAppendAck:
      return "replication.replica.handle_append_ack";
    case MessageType::kVoteRequest:
      return "replication.replica.handle_vote_request";
    case MessageType::kVoteReply:
      return "replication.replica.handle_vote_reply";
  }
  return "replication.replica.handle_message";
}

}  // namespace

Replica::Replica(Options options, SimTransport* transport, ApplyFn apply)
    : options_(options),
      transport_(transport),
      apply_(std::move(apply)),
      rng_(options.seed ^ (0x9E3779B97F4A7C15ull * (options.id + 1))),
      log_(options.wal_path) {
  ArmElectionTimer(0);
}

/// (Re)arms the leader detector with a freshly drawn jittered timeout.
/// The re-roll on *every* arm (not once per replica) matters: with a
/// fixed per-replica draw, whichever node happened to hold the
/// shortest timeout fires first after every timer reset, so a lagging
/// node that can never win an election can fence the electable ones
/// forever — a deterministic livelock the chaos suite found. A fresh
/// draw each cycle guarantees the order eventually favors a node whose
/// log can actually win. Deterministic: draws come from the replica's
/// own seeded rng.
void Replica::ArmElectionTimer(double now_ms) {
  leader_detector_ = FailureDetector(
      FailureDetector::kTimeoutMs *
      (1.0 + rng_.UniformDouble(0, kElectionJitterFraction)));
  leader_detector_.Reset(now_ms);
}

Status Replica::Open(double now_ms) {
  SAGA_RETURN_IF_ERROR(log_.Open());
  ArmElectionTimer(now_ms);
  return Status::OK();
}

void Replica::BecomeFollower(int leader_id, uint64_t epoch, double now_ms) {
  role_ = Role::kFollower;
  epoch_ = std::max(epoch_, epoch);
  leader_id_ = leader_id;
  votes_.clear();
  next_seq_.clear();
  match_seq_.clear();
  peer_detectors_.clear();
  ArmElectionTimer(now_ms);
}

void Replica::BecomeLeader(double now_ms) {
  role_ = Role::kLeader;
  leader_id_ = options_.id;
  SAGA_COUNTER("replication.replica.elections_won").Add();
  next_seq_.clear();
  match_seq_.clear();
  peer_detectors_.clear();
  for (int p = 0; p < options_.group_size; ++p) {
    if (p == options_.id) continue;
    next_seq_[p] = log_.last_seq() + 1;
    match_seq_[p] = 0;
    peer_detectors_.emplace(p, FailureDetector());
    peer_detectors_.at(p).Reset(now_ms);
  }
  // Leadership no-op: gives this epoch an entry of its own, so the
  // current-epoch commit rule can advance over inherited records.
  (void)log_.Append(LogRecord{log_.last_seq() + 1, epoch_, std::string()});
  AdvanceCommit();  // single-node groups commit instantly
  last_broadcast_ms_ = now_ms;
  ShipToAll(now_ms);
}

void Replica::StartElection(double now_ms) {
  ++epoch_;
  voted_epoch_ = epoch_;  // vote for self
  role_ = Role::kCandidate;
  leader_id_ = -1;
  votes_.clear();
  votes_.insert(options_.id);
  ArmElectionTimer(now_ms);  // fresh jitter = retry cadence for a loss
  if (static_cast<int>(votes_.size()) >= quorum()) {
    BecomeLeader(now_ms);
    return;
  }
  Message req;
  req.type = MessageType::kVoteRequest;
  req.from = options_.id;
  req.epoch = epoch_;
  req.last_seq = log_.last_seq();
  req.last_epoch = log_.last_epoch();
  StampTrace(req);
  for (int p = 0; p < options_.group_size; ++p) {
    if (p == options_.id) continue;
    req.to = p;
    transport_->Send(req, now_ms);
  }
}

void Replica::ShipTo(int peer, double now_ms) {
  Message m;
  m.type = MessageType::kAppend;
  m.from = options_.id;
  m.to = peer;
  m.epoch = epoch_;
  m.commit_seq = commit_seq_;
  const uint64_t from = next_seq_[peer];
  m.prev_seq = from - 1;
  const LogRecord* prev = log_.At(m.prev_seq);  // null for prev_seq 0
  m.prev_epoch = prev == nullptr ? 0 : prev->epoch;
  m.records = log_.ReadFrom(from, kMaxBatchRecords);
  StampTrace(m);
  transport_->Send(m, now_ms);
}

void Replica::ShipToAll(double now_ms) {
  for (int p = 0; p < options_.group_size; ++p) {
    if (p != options_.id) ShipTo(p, now_ms);
  }
}

void Replica::Tick(double now_ms) {
  if (!alive_) return;
  if (role_ == Role::kLeader) {
    for (auto& [peer, det] : peer_detectors_) {
      (void)peer;
      det.Tick(now_ms);  // health view only; leaders never demote peers
    }
    if (now_ms - last_broadcast_ms_ >= kHeartbeatIntervalMs) {
      last_broadcast_ms_ = now_ms;
      ShipToAll(now_ms);
    }
    return;
  }
  // Followers and stuck candidates: a fired detector means the leader
  // (or the election) is presumed dead — run for office.
  if (leader_detector_.Tick(now_ms)) {
    StartElection(now_ms);
  }
}

Result<uint64_t> Replica::LeaderAppend(std::string payload, double now_ms) {
  obs::ScopedSpan span("replication.replica.leader_append");
  if (!alive_ || role_ != Role::kLeader) {
    obs::MarkSpanError(StatusCode::kUnavailable);
    return Status::FailedPrecondition("not the leader");
  }
  if (payload.empty()) {
    return Status::InvalidArgument("empty payloads are reserved for no-ops");
  }
  const uint64_t seq = log_.last_seq() + 1;
  SAGA_RETURN_IF_ERROR(
      log_.Append(LogRecord{seq, epoch_, std::move(payload)}));
  SAGA_COUNTER("replication.replica.appends").Add();
  AdvanceCommit();  // single-node groups
  ShipToAll(now_ms);
  last_broadcast_ms_ = now_ms;
  return seq;
}

bool Replica::IsCommitted(uint64_t seq, uint64_t epoch) const {
  if (commit_seq_ < seq) return false;
  const LogRecord* rec = log_.At(seq);
  if (rec != nullptr) return rec->epoch == epoch;
  // Not in the log, but the commit index covers it.
  return true;
}

void Replica::AdvanceCommit() {
  if (role_ != Role::kLeader) return;
  for (uint64_t s = log_.last_seq(); s > commit_seq_; --s) {
    const LogRecord* rec = log_.At(s);
    if (rec == nullptr) break;
    if (rec->epoch != epoch_) break;  // only current-epoch entries directly
    int replicas = 1;  // self
    for (const auto& [peer, match] : match_seq_) {
      (void)peer;
      if (match >= s) ++replicas;
    }
    if (replicas >= quorum()) {
      commit_seq_ = s;
      break;  // everything below s commits transitively
    }
  }
  ApplyUpTo(commit_seq_);
}

void Replica::ApplyUpTo(uint64_t seq) {
  while (last_applied_ < seq) {
    ++last_applied_;
    const LogRecord* rec = log_.At(last_applied_);
    if (rec == nullptr || rec->is_noop()) continue;
    if (apply_) apply_(options_.id, *rec);
  }
}

void Replica::HandleMessage(const Message& m, double now_ms) {
  if (!alive_) return;
  obs::TraceContext ctx;
  ctx.trace_id_hi = m.trace_id_hi;
  ctx.trace_id_lo = m.trace_id_lo;
  ctx.span_id = m.parent_span_id;
  if (obs::TracingEnabled() && ctx.valid()) {
    // Adopt the sender's context as a fresh segment: in the simulated
    // transport this handler runs on the *sender's* OS thread, and
    // without the segment boundary its spans would physically nest
    // under whatever span the sender still has open. Untraced
    // messages (heartbeats outside any request) skip this so they do
    // not each mint a trace of their own.
    obs::ScopedTraceContext scope(ctx);
    obs::ScopedSpan span(HandlerSpanName(m.type));
    DispatchMessage(m, now_ms);
    return;
  }
  DispatchMessage(m, now_ms);
}

void Replica::DispatchMessage(const Message& m, double now_ms) {
  switch (m.type) {
    case MessageType::kAppend:
      HandleAppend(m, now_ms);
      break;
    case MessageType::kAppendAck:
      HandleAppendAck(m, now_ms);
      break;
    case MessageType::kVoteRequest:
      HandleVoteRequest(m, now_ms);
      break;
    case MessageType::kVoteReply:
      HandleVoteReply(m, now_ms);
      break;
  }
}

void Replica::HandleAppend(const Message& m, double now_ms) {
  Message ack;
  ack.type = MessageType::kAppendAck;
  ack.from = options_.id;
  ack.to = m.from;

  // Fencing: a lower-epoch leader is an ex-leader. Reject and tell it
  // the epoch that fenced it, so it steps down.
  if (m.epoch < epoch_) {
    SAGA_COUNTER("replication.replica.fenced_appends").Add();
    ack.epoch = epoch_;
    ack.success = false;
    ack.last_seq = log_.last_seq();
    StampTrace(ack);
    transport_->Send(ack, now_ms);
    return;
  }
  if (m.epoch > epoch_ || role_ != Role::kFollower || leader_id_ != m.from) {
    BecomeFollower(m.from, m.epoch, now_ms);
  }
  leader_detector_.RecordContact(now_ms);
  ack.epoch = epoch_;

  // Consistency check at the splice point.
  bool consistent = true;
  if (m.prev_seq > log_.last_seq()) {
    consistent = false;  // gap: we are missing records before these
  } else if (m.prev_seq >= 1) {
    if (const LogRecord* prev = log_.At(m.prev_seq)) {
      if (prev->epoch != m.prev_epoch) {
        // Divergent history at prev itself: drop it and everything
        // after; the leader will back up and re-ship.
        (void)log_.TruncateFrom(m.prev_seq);
        consistent = false;
      }
    }
  }
  if (!consistent) {
    ack.success = false;
    ack.nack_reason = NackReason::kLogMismatch;
    ack.last_seq = log_.last_seq();
    StampTrace(ack);
    transport_->Send(ack, now_ms);
    return;
  }

  // `matched` is the highest seq this message *proved* we share with
  // the leader's history: the splice point plus every shipped record
  // now in our log with its shipped epoch. The ack reports that — not
  // our raw log end — because a stale follower may carry a divergent
  // uncommitted tail from a dead epoch, and a leader that counted that
  // tail toward quorum could commit (and ack to a client) a record
  // living on fewer real copies than quorum — exactly the lost-write
  // the protocol exists to prevent.
  uint64_t matched = m.prev_seq;
  bool no_space = false;
  for (const LogRecord& rec : m.records) {
    if (const LogRecord* existing = log_.At(rec.seq)) {
      if (existing->epoch == rec.epoch) {  // duplicate delivery
        matched = rec.seq;
        continue;
      }
      // Conflicting suffix from a dead epoch: truncate, then append.
      (void)log_.TruncateFrom(rec.seq);
    }
    if (rec.seq != log_.last_seq() + 1) break;  // out-of-window record
    Status appended = log_.Append(rec);
    if (!appended.ok()) {
      // Out of disk: refuse the record instead of dying on the append.
      // Everything up to `matched` is still proven-shared.
      no_space = appended.IsStorageExhausted();
      break;
    }
    matched = rec.seq;
  }

  // Commit only up to what we verifiably share with the leader; a
  // divergent tail above `matched` must never be applied.
  const uint64_t new_commit = std::min(m.commit_seq, matched);
  if (new_commit > commit_seq_) {
    commit_seq_ = new_commit;
    ApplyUpTo(commit_seq_);
  }

  if (no_space) {
    // NACK with a reason code: `last_seq = matched` is still a proven
    // shared prefix, so the leader may advance its match index — it
    // just must not back up the ship cursor and re-send records this
    // follower cannot store yet.
    SAGA_COUNTER("replication.replica.nack_no_space").Add();
    ack.success = false;
    ack.nack_reason = NackReason::kNoSpace;
    ack.last_seq = matched;
  } else {
    ack.success = true;
    ack.last_seq = matched;
  }
  StampTrace(ack);
  transport_->Send(ack, now_ms);
}

void Replica::HandleAppendAck(const Message& m, double now_ms) {
  if (m.epoch > epoch_) {
    // Fenced: someone out there is living in a later epoch.
    BecomeFollower(-1, m.epoch, now_ms);
    return;
  }
  if (role_ != Role::kLeader || m.epoch < epoch_) return;  // stale ack
  auto det = peer_detectors_.find(m.from);
  if (det != peer_detectors_.end()) det->second.RecordContact(now_ms);
  if (m.success) {
    uint64_t& match = match_seq_[m.from];
    match = std::max(match, m.last_seq);
    next_seq_[m.from] = std::max(next_seq_[m.from], match + 1);
    AdvanceCommit();
    // Pipeline catch-up: a lagging follower drains at one
    // kMaxBatchRecords batch per round trip instead of one per
    // heartbeat interval.
    if (next_seq_[m.from] <= log_.last_seq()) ShipTo(m.from, now_ms);
  } else if (m.nack_reason == NackReason::kNoSpace) {
    // The follower's log is consistent — it is out of disk budget.
    // Its last_seq is a proven shared prefix, so adopt it as match and
    // hold the ship cursor where it is: backing up (or re-shipping
    // immediately) would hammer a full follower with records it still
    // cannot store. The regular heartbeat retries once it recovers.
    SAGA_COUNTER("replication.replica.peer_no_space").Add();
    uint64_t& match = match_seq_[m.from];
    match = std::max(match, m.last_seq);
    next_seq_[m.from] = std::max(next_seq_[m.from], match + 1);
    AdvanceCommit();
  } else {
    // Back up the ship cursor toward the follower's log end (never
    // below 1); the next heartbeat re-ships from there.
    uint64_t next = next_seq_[m.from];
    next = std::min(next > 1 ? next - 1 : 1, m.last_seq + 1);
    next_seq_[m.from] = std::max<uint64_t>(next, 1);
    ShipTo(m.from, now_ms);
  }
}

void Replica::HandleVoteRequest(const Message& m, double now_ms) {
  if (m.epoch > epoch_) {
    // Adopt the higher epoch WITHOUT resetting our election timer: a
    // refused vote request must not postpone our own candidacy, or a
    // lagging node that can never win could keep every electable node
    // deferring forever. Only a granted vote (below) or real leader
    // traffic earns the timer reset.
    epoch_ = m.epoch;
    if (role_ != Role::kFollower) {
      role_ = Role::kFollower;
      leader_id_ = -1;
      votes_.clear();
      next_seq_.clear();
      match_seq_.clear();
      peer_detectors_.clear();
    }
  }
  Message reply;
  reply.type = MessageType::kVoteReply;
  reply.from = options_.id;
  reply.to = m.from;
  reply.epoch = m.epoch;
  reply.last_seq = log_.last_seq();
  // Grant iff we have not voted in this epoch and the candidate's log
  // is at least as caught up as ours — the election restriction that
  // makes "promote the most-caught-up follower" a safety property,
  // not a heuristic.
  const bool candidate_caught_up =
      std::make_pair(m.last_epoch, m.last_seq) >=
      std::make_pair(log_.last_epoch(), log_.last_seq());
  reply.success =
      m.epoch == epoch_ && voted_epoch_ < m.epoch && candidate_caught_up;
  if (reply.success) {
    voted_epoch_ = m.epoch;
    leader_detector_.RecordContact(now_ms);  // grace for the new leader
  }
  StampTrace(reply);
  transport_->Send(reply, now_ms);
}

void Replica::HandleVoteReply(const Message& m, double now_ms) {
  if (m.epoch > epoch_) {
    BecomeFollower(-1, m.epoch, now_ms);
    return;
  }
  if (role_ != Role::kCandidate || m.epoch != epoch_ || !m.success) return;
  votes_.insert(m.from);
  if (static_cast<int>(votes_.size()) >= quorum()) {
    BecomeLeader(now_ms);
  }
}

void Replica::Crash() {
  alive_ = false;
  // Volatile state dies with the process; log_, epoch_ and
  // voted_epoch_ model persisted state and survive.
  role_ = Role::kFollower;
  leader_id_ = -1;
  commit_seq_ = 0;
  last_applied_ = 0;
  votes_.clear();
  next_seq_.clear();
  match_seq_.clear();
  peer_detectors_.clear();
}

Status Replica::Restart(double now_ms) {
  if (alive_) return Status::FailedPrecondition("replica is running");
  // A WAL-backed log recovers from disk: a real restart.
  SAGA_RETURN_IF_ERROR(log_.Open());
  alive_ = true;
  role_ = Role::kFollower;
  leader_id_ = -1;
  commit_seq_ = 0;
  last_applied_ = 0;
  leader_detector_.Reset(now_ms);
  return Status::OK();
}

bool Replica::PeerSuspected(int peer) const {
  auto it = peer_detectors_.find(peer);
  return it != peer_detectors_.end() && it->second.Suspected();
}

}  // namespace saga::replication
