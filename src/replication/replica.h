#ifndef SAGA_REPLICATION_REPLICA_H_
#define SAGA_REPLICATION_REPLICA_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "replication/failure_detector.h"
#include "replication/log.h"
#include "replication/message.h"
#include "replication/sim_transport.h"

namespace saga::replication {

enum class Role : int {
  kFollower = 0,
  kCandidate = 1,
  kLeader = 2,
};

/// One node of a replica group: a sequenced log plus the leader /
/// follower state machine that ships it.
///
/// Protocol (a deliberately small Raft-shaped core — leader election
/// with the catch-up restriction, epoch fencing, quorum commit with
/// the current-epoch rule, conflict-truncation on divergence):
///
///  - The leader assigns monotonic seqs, appends locally (durably when
///    WAL-backed), and ships records to every follower; a record is
///    committed — and only then acknowledged to the client — once a
///    quorum of logs holds it and its epoch is the leader's own.
///  - Followers fence on epoch: any append or vote from a lower epoch
///    is rejected (`replication.replica.fenced_appends` counts them), so a partitioned
///    ex-leader's late appends can never reach a log that has moved
///    on. Seeing a higher epoch always steps a node down.
///  - Failure detection is heartbeat-based (FailureDetector: timeout
///    windows + suspicion counts). A follower whose leader detector
///    fires starts an election for epoch + 1; peers grant a vote iff
///    they have not voted in that epoch and the candidate's
///    (last_epoch, last_seq) is at least their own — the most
///    caught-up follower wins, which together with quorum overlap
///    guarantees every elected leader already holds every committed
///    record.
///  - A fresh leader appends a no-op record so the current-epoch
///    commit rule can advance past inherited entries, then resumes
///    shipping from each follower's acked position (backing up its
///    ship cursor on rejection until logs meet).
///
/// Crash model: Crash() drops the node off the network and wipes
/// volatile state (role, commit index, apply cursor). The log and the
/// epoch/vote pair survive — they model the durable state every real
/// implementation persists (the log via an actual storage WAL when
/// `wal_path` is set; Restart() then re-opens and replays it from
/// disk). Restart() rejoins as a follower; the apply callback replays
/// from scratch as the new leader re-advances the commit index.
///
/// Single-threaded by design: all entry points are called from the
/// group's pump loop on the logical clock. Nothing here sleeps.
class Replica {
 public:
  struct Options {
    int id = 0;
    int group_size = 3;
    uint64_t seed = 0x5EED;
    /// Non-empty: the log is backed by a real storage WAL here; every
    /// append is fsynced before it is acked. A follower whose WAL
    /// append fails with ENOSPC NACKs with NackReason::kNoSpace,
    /// keeping its proven-shared last_seq so the leader does not back
    /// up its ship cursor, instead of dying.
    std::string wal_path;
  };

  /// Applies one committed record to the replica's state machine.
  /// Never called with a no-op. Must be deterministic.
  using ApplyFn = std::function<void(int replica_id, const LogRecord&)>;

  Replica(Options options, SimTransport* transport, ApplyFn apply);

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Opens (replaying when WAL-backed) the log. Must precede traffic.
  Status Open(double now_ms);

  /// Transport delivery entry point.
  void HandleMessage(const Message& m, double now_ms);

  /// Clock tick: leaders ship/heartbeat, followers run the leader
  /// detector and start elections when it fires.
  void Tick(double now_ms);

  /// Leader-only: assigns the next seq, appends locally, ships to all
  /// peers. Returns the assigned seq; FailedPrecondition when not the
  /// leader. Commitment (the client ack) is asynchronous — poll
  /// IsCommitted().
  Result<uint64_t> LeaderAppend(std::string payload, double now_ms);

  /// True when `seq` is committed *in this record's incarnation*: the
  /// entry at `seq` still carries `epoch` and the commit index covers
  /// it. A record lost to a leader change answers false forever.
  bool IsCommitted(uint64_t seq, uint64_t epoch) const;

  // --- crash / restart (chaos controls) ---
  void Crash();
  Status Restart(double now_ms);
  bool alive() const { return alive_; }

  // --- introspection ---
  Role role() const { return role_; }
  uint64_t epoch() const { return epoch_; }
  uint64_t commit_seq() const { return commit_seq_; }
  const ReplicatedLog& log() const { return log_; }
  int id() const { return options_.id; }
  /// Leader's per-peer failure detector verdict (false when not
  /// leader or peer unknown).
  bool PeerSuspected(int peer) const;

 private:
  int quorum() const { return options_.group_size / 2 + 1; }
  /// Re-arms the leader detector with a freshly drawn jittered
  /// timeout (the draw is per-arm, not per-replica — see replica.cc).
  void ArmElectionTimer(double now_ms);
  void BecomeFollower(int leader_id, uint64_t epoch, double now_ms);
  void BecomeLeader(double now_ms);
  void StartElection(double now_ms);
  /// Ships records (or an empty heartbeat) to one peer.
  void ShipTo(int peer, double now_ms);
  void ShipToAll(double now_ms);
  /// Recomputes the commit index from match positions (current-epoch
  /// rule) and applies newly committed records.
  void AdvanceCommit();
  void ApplyUpTo(uint64_t seq);
  /// Per-type dispatch, run inside the adopted trace segment when the
  /// message carries one (HandleMessage wraps this).
  void DispatchMessage(const Message& m, double now_ms);
  void HandleAppend(const Message& m, double now_ms);
  void HandleAppendAck(const Message& m, double now_ms);
  void HandleVoteRequest(const Message& m, double now_ms);
  void HandleVoteReply(const Message& m, double now_ms);

  Options options_;
  SimTransport* transport_;
  ApplyFn apply_;
  Rng rng_;

  // Durable-modeled state (survives Crash; on disk when WAL-backed).
  ReplicatedLog log_;
  uint64_t epoch_ = 0;
  uint64_t voted_epoch_ = 0;

  // Volatile state.
  bool alive_ = true;
  Role role_ = Role::kFollower;
  int leader_id_ = -1;
  uint64_t commit_seq_ = 0;
  uint64_t last_applied_ = 0;
  FailureDetector leader_detector_;
  double last_broadcast_ms_ = -1e18;
  std::set<int> votes_;
  std::map<int, uint64_t> next_seq_;
  std::map<int, uint64_t> match_seq_;
  std::map<int, FailureDetector> peer_detectors_;

};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_REPLICA_H_
