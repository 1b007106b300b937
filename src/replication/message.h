#ifndef SAGA_REPLICATION_MESSAGE_H_
#define SAGA_REPLICATION_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace saga::replication {

/// One entry of a replicated log. `seq` is the leader-assigned
/// monotonic sequence number, `epoch` the leadership epoch under which
/// the entry was first appended. An empty payload is a leadership
/// no-op (appended by a freshly elected leader so the current-epoch
/// commit rule can advance past inherited entries); appliers skip it.
struct LogRecord {
  uint64_t seq = 0;
  uint64_t epoch = 0;
  std::string payload;

  bool is_noop() const { return payload.empty(); }
};

/// Why a follower rejected an append (kAppendAck with success=false).
/// The leader's reaction differs by cause: a log mismatch means the
/// ship cursor must back up and re-ship earlier records, while a
/// follower out of disk budget has a perfectly consistent log — backing
/// up would re-send records it already has and still cannot store.
enum class NackReason : uint8_t {
  kNone = 0,
  /// (prev_seq, prev_epoch) did not match the follower's log, or the
  /// append failed structurally — back up and re-ship.
  kLogMismatch,
  /// The follower is disk-space degraded and refused to append. Its
  /// `last_seq` is still a proven shared prefix; the leader holds the
  /// cursor and retries on a later heartbeat instead of regressing.
  kNoSpace,
};

enum class MessageType : uint8_t {
  /// Leader -> follower: records from `prev_seq + 1`, or an empty
  /// heartbeat carrying only `commit_seq`. Every append doubles as a
  /// heartbeat for the follower's failure detector.
  kAppend,
  /// Follower -> leader: outcome of an append, with the follower's
  /// log end so the leader can advance or back up its ship cursor.
  kAppendAck,
  /// Candidate -> peers: request a vote for `epoch`; carries the
  /// candidate's log end for the catch-up restriction.
  kVoteRequest,
  /// Peer -> candidate: vote outcome for `epoch`.
  kVoteReply,
};

/// The one wire message of the replication protocol. A single struct
/// (rather than a variant hierarchy) keeps the simulated transport
/// trivially copyable for duplicate/reorder faults; unused fields stay
/// zero for a given `type`.
struct Message {
  MessageType type = MessageType::kAppend;
  int from = -1;
  int to = -1;
  /// Sender's epoch; every receiver first fences on this.
  uint64_t epoch = 0;

  // --- kAppend ---
  /// Log position immediately before `records[0]`; (prev_seq,
  /// prev_epoch) must match the follower's entry at prev_seq or the
  /// append is rejected (divergence / gap).
  uint64_t prev_seq = 0;
  uint64_t prev_epoch = 0;
  std::vector<LogRecord> records;
  /// Leader's commit index at send time.
  uint64_t commit_seq = 0;

  // --- kAppendAck / kVoteReply ---
  bool success = false;
  /// Acker's log end after processing (ship-cursor hint), or the
  /// voter's log end.
  uint64_t last_seq = 0;
  /// kAppendAck with success=false: why (see NackReason).
  NackReason nack_reason = NackReason::kNone;

  // --- kVoteRequest ---
  /// Candidate's log end, compared lexicographically as
  /// (last_epoch, last_seq) for the election restriction.
  uint64_t last_epoch = 0;

  // --- tracing (any type) ---
  /// Trace identity of the operation that produced this message (zero
  /// ids = untraced). The transport copies messages whole, so the
  /// context rides every drop/duplicate/reorder fault for free; the
  /// receiver adopts it and its handler spans parent under
  /// `parent_span_id`, stitching a quorum write into one trace.
  uint64_t trace_id_hi = 0;
  uint64_t trace_id_lo = 0;
  uint64_t parent_span_id = 0;
};

}  // namespace saga::replication

#endif  // SAGA_REPLICATION_MESSAGE_H_
