// Resource-exhaustion safety: the disk-space governor, ENOSPC-safe
// write paths, and read-only degraded serving.
//
// What the suite pins:
//  - governor accounting: reserve/commit/release against a simulated
//    budget, the emergency floor (kWrite blocked, kReclaim allowed),
//    and the degraded-mode hysteresis (writes stay denied until free
//    space clears floor * kExitHeadroomFactor, never on the deny
//    path itself);
//  - reclaim: tasks run in registration order and stop as soon as the
//    store recovers — the governor never deletes more than exit needs;
//  - retry classification: storage-origin kResourceExhausted and
//    fsync-gate IOErrors are never retried, even by a predicate that
//    claims everything is retryable (a full disk stays full; a
//    re-fsynced fd can lie about dropped pages);
//  - KvStore degraded mode: an injected ENOSPC (or organic budget
//    exhaustion) trips read-only degraded — writes fail fast with
//    kResourceExhausted, reads keep serving, and the store returns to
//    writable once reclaim (or a budget override) restores headroom;
//  - fsync-gate: a failed WAL fsync poisons the writer; the next write
//    rebuilds the log (flush + fresh fd) without losing acked records;
//  - replication: a follower whose WAL is out of space NACKs appends
//    with NackReason::kNoSpace (keeping its proven-shared position) and
//    catches up after recovery; a full leader cannot append.
//
// The chaos loop at the bottom runs 200 seeded ENOSPC rounds mixing
// tiny simulated budgets (organic fill) with injected kNoSpace faults
// at wal.append / sstable.flush / compaction.write. Any failure prints
// SAGA_CHAOS_SEED=<n> via SCOPED_TRACE; exporting that variable
// replays the exact run.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/status.h"
#include "counter_delta.h"
#include "replication/replica_group.h"
#include "resource/disk_space_governor.h"
#include "storage/kv_store.h"

namespace saga {
namespace {

using resource::DiskSpaceGovernor;
using ReservationClass = DiskSpaceGovernor::ReservationClass;

uint64_t ChaosBaseSeed(uint64_t default_seed) {
  const char* env = std::getenv("SAGA_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

int64_t CounterValue(const char* name) {
  return obs::Registry::Global().counter(name).Value();
}

DiskSpaceGovernor::Options SimulatedBudget(uint64_t budget, uint64_t floor) {
  DiskSpaceGovernor::Options o;
  o.budget_bytes = budget;
  o.emergency_floor_bytes = floor;
  return o;
}

class ResourceTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMinLogLevel(LogLevel::kError); }
  void TearDown() override {
    Faults().DisarmAll();
    SetMinLogLevel(LogLevel::kInfo);
  }
};

// ---------------------------------------------------------------------------
// Governor accounting
// ---------------------------------------------------------------------------

TEST_F(ResourceTest, ReserveCommitReleaseAccounting) {
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(1000, 100));
  EXPECT_EQ(gov.FreeBytes(), 1000u);

  auto r = gov.Reserve(300);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(gov.FreeBytes(), 700u);

  // Commit converts part of the hold into consumed budget and releases
  // the rest.
  r->Commit(200);
  EXPECT_EQ(gov.used_bytes(), 200u);
  EXPECT_EQ(gov.FreeBytes(), 800u);

  // A dropped (uncommitted) reservation returns everything.
  {
    auto scoped = gov.Reserve(300);
    ASSERT_TRUE(scoped.ok());
    EXPECT_EQ(gov.FreeBytes(), 500u);
  }
  EXPECT_EQ(gov.FreeBytes(), 800u);
  EXPECT_EQ(gov.used_bytes(), 200u);
  EXPECT_FALSE(gov.degraded());
}

TEST_F(ResourceTest, EmergencyFloorBlocksWriteButNotReclaim) {
  // kWrite must leave the floor intact; kReclaim may spend it, because
  // compaction output is how space gets reclaimed at all.
  const CounterDelta denials(SAGA_COUNTER("resource.governor.denials"));
  DiskSpaceGovernor write_gov("/nonexistent", SimulatedBudget(1000, 400));
  auto denied = write_gov.Reserve(700, ReservationClass::kWrite);
  EXPECT_FALSE(denied.ok());
  EXPECT_TRUE(denied.status().IsStorageExhausted());
  EXPECT_TRUE(write_gov.degraded());
  EXPECT_EQ(denials(), 1);

  DiskSpaceGovernor reclaim_gov("/nonexistent", SimulatedBudget(1000, 400));
  auto allowed = reclaim_gov.Reserve(700, ReservationClass::kReclaim);
  EXPECT_TRUE(allowed.ok()) << allowed.status();
  EXPECT_FALSE(reclaim_gov.degraded());
}

TEST_F(ResourceTest, DegradedHysteresisDeniesWritesUntilHeadroomRecovers) {
  // floor 200, exit factor 2 -> degraded exits at >= 400 free.
  obs::Counter& entries = SAGA_COUNTER("resource.governor.degraded_entries");
  const int64_t entries_before = entries.Value();
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(1000, 200));
  EXPECT_EQ(gov.ExitThresholdBytes(), 400u);
  {
    auto fill = gov.Reserve(700, ReservationClass::kReclaim);
    ASSERT_TRUE(fill.ok());
    fill->Commit(700);
  }
  // free = 300: a kWrite that would dip below the floor trips degraded.
  EXPECT_FALSE(gov.Reserve(200).ok());
  ASSERT_TRUE(gov.degraded());
  EXPECT_EQ(entries.Value() - entries_before, 1);

  // While degraded even a tiny kWrite is refused (no flapping through
  // the deny path); kReclaim still goes through.
  EXPECT_FALSE(gov.Reserve(10).ok());
  EXPECT_TRUE(gov.Reserve(10, ReservationClass::kReclaim).ok());

  // Freeing below the exit threshold keeps the store degraded...
  gov.OnBytesFreed(50);  // free = 350 < 400
  EXPECT_TRUE(gov.degraded());
  // ...clearing it exits, and writes flow again.
  gov.OnBytesFreed(300);  // free = 650 >= 400
  EXPECT_FALSE(gov.degraded());
  EXPECT_TRUE(gov.Reserve(50).ok());
}

TEST_F(ResourceTest, InjectedExhaustionRecoversWithoutDeletingAnything) {
  // NoteExhausted with plenty of headroom (the injected-fault /
  // transient-ENOSPC case): RunReclaim must notice free space is fine
  // and exit degraded *before* running any destructive task.
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(1 << 20, 4 << 10));
  bool task_ran = false;
  gov.RegisterReclaimTask("unit.noop", [&]() -> Result<uint64_t> {
    task_ran = true;
    return uint64_t{1 << 20};
  });
  gov.NoteExhausted("injected ENOSPC");
  ASSERT_TRUE(gov.degraded());
  EXPECT_EQ(gov.RunReclaim(), 0u);
  EXPECT_FALSE(gov.degraded());
  EXPECT_FALSE(task_ran);
}

TEST_F(ResourceTest, ReclaimRunsTasksInOrderAndStopsOnceRecovered) {
  // floor 100, exit at 200. Consume 950 of 1000, then reclaim: the
  // first task is dry, the second frees enough to recover, the third
  // (most destructive, registered last) must never run.
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(1000, 100));
  {
    auto fill = gov.Reserve(950, ReservationClass::kReclaim);
    ASSERT_TRUE(fill.ok());
    fill->Commit(950);
  }
  gov.NoteExhausted("organic fill");
  ASSERT_TRUE(gov.degraded());

  const CounterDelta freed(SAGA_COUNTER("resource.reclaim.bytes_freed"));
  std::vector<int> order;
  gov.RegisterReclaimTask("unit.dry", [&]() -> Result<uint64_t> {
    order.push_back(1);
    return uint64_t{0};
  });
  gov.RegisterReclaimTask("unit.frees", [&]() -> Result<uint64_t> {
    order.push_back(2);
    return uint64_t{500};
  });
  gov.RegisterReclaimTask("unit.destructive", [&]() -> Result<uint64_t> {
    order.push_back(3);
    return uint64_t{500};
  });

  EXPECT_EQ(gov.RunReclaim(), 500u);
  EXPECT_EQ(freed(), 500);
  EXPECT_FALSE(gov.degraded());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(gov.used_bytes(), 450u);
}

TEST_F(ResourceTest, BudgetOverrideExitsDegradedImmediately) {
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(100, 50));
  EXPECT_FALSE(gov.Reserve(90).ok());
  ASSERT_TRUE(gov.degraded());
  // The operator lever (`saga_cli resource --budget`): raising the
  // budget re-evaluates degraded mode without waiting for reclaim.
  gov.SetBudgetBytes(10'000);
  EXPECT_FALSE(gov.degraded());
  EXPECT_TRUE(gov.Reserve(90).ok());
}

TEST_F(ResourceTest, ReclaimRecoversDegradedStore) {
  DiskSpaceGovernor gov("/nonexistent", SimulatedBudget(1000, 100));
  {
    auto fill = gov.Reserve(950, ReservationClass::kReclaim);
    ASSERT_TRUE(fill.ok());
    fill->Commit(950);
  }
  gov.RegisterReclaimTask("unit.frees",
                          [&]() -> Result<uint64_t> { return uint64_t{800}; });
  gov.NoteExhausted("organic fill");
  ASSERT_TRUE(gov.degraded());
  EXPECT_EQ(gov.RunReclaim(), 800u);
  EXPECT_FALSE(gov.degraded());
}

// ---------------------------------------------------------------------------
// Retry classification: exhaustion and fsync-gate are origin-fatal
// ---------------------------------------------------------------------------

TEST_F(ResourceTest, StorageExhaustionIsNeverRetriedEvenWithCustomPredicate) {
  std::vector<double> slept;
  RetryPolicy policy([&](double ms) { slept.push_back(ms); });
  int calls = 0;
  // Plain kResourceExhausted (admission control, quota) is retryable;
  // the storage origin makes the same code permanent — a full disk
  // stays full until reclaim runs, and retries only delay it. Even a
  // predicate that claims everything is retryable must lose.
  const Status s = policy.Run(
      "unit.op",
      [&] {
        ++calls;
        return Status::StorageExhausted("disk full");
      },
      [](const Status&) { return true; });
  EXPECT_TRUE(s.IsStorageExhausted());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());

  // The code alone (no storage origin) still retries.
  calls = 0;
  const Status transient = policy.Run("unit.op", [&] {
    ++calls;
    return Status::ResourceExhausted("admission queue full");
  });
  EXPECT_TRUE(transient.IsResourceExhausted());
  EXPECT_EQ(calls, RetryPolicy::kMaxAttempts);
}

TEST_F(ResourceTest, FsyncGateIsNeverRetriedEvenWithCustomPredicate) {
  std::vector<double> slept;
  RetryPolicy policy([&](double ms) { slept.push_back(ms); });
  int calls = 0;
  // After a failed fsync the kernel may have dropped the dirty pages;
  // a retried fsync on the same fd can report success for bytes that
  // are gone. IOError-coded, but the origin is a hard gate.
  const Status s = policy.Run(
      "unit.op",
      [&] {
        ++calls;
        return Status::FsyncGate("fsync failed");
      },
      [](const Status&) { return true; });
  EXPECT_TRUE(s.IsFsyncGate());
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(slept.empty());
}

TEST_F(ResourceTest, InjectedFileFsyncFaultKeepsItsOrigin) {
  auto dir = MakeTempDir("saga_res_fsync");
  ASSERT_TRUE(dir.ok());
  const std::string path = JoinPath(*dir, "blob");

  FaultSpec fail;
  fail.kind = FaultKind::kFail;
  Faults().Arm("file.fsync", fail);
  Status s = WriteStringToFile(path, "payload", /*durable=*/true);
  EXPECT_TRUE(s.IsFsyncGate()) << s;
  EXPECT_TRUE(RetryPolicy::NeverRetryable(s));
  Faults().DisarmAll();

  FaultSpec enospc;
  enospc.kind = FaultKind::kNoSpace;
  Faults().Arm("file.fsync", enospc);
  s = WriteStringToFile(path, "payload", /*durable=*/true);
  EXPECT_TRUE(s.IsStorageExhausted()) << s;
  EXPECT_TRUE(RetryPolicy::NeverRetryable(s));
  Faults().DisarmAll();

  // Clean retry once the device recovers.
  EXPECT_TRUE(WriteStringToFile(path, "payload", /*durable=*/true).ok());
  (void)RemoveDirRecursively(*dir);
}

// ---------------------------------------------------------------------------
// KvStore: read-only degraded mode and fsync-gate WAL rebuild
// ---------------------------------------------------------------------------

TEST_F(ResourceTest, InjectedWalEnospcTripsReadOnlyDegradedThenRecovers) {
  auto dir = MakeTempDir("saga_res_kv");
  ASSERT_TRUE(dir.ok());
  // Real-statvfs governor: accounting has room, the device says no.
  DiskSpaceGovernor gov(*dir, DiskSpaceGovernor::Options());
  storage::KvStore::Options opts;
  opts.governor = &gov;
  auto store = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Put("k0", "v0").ok());

  const int64_t rejected_before = CounterValue("storage.kv.write_rejected");
  FaultSpec spec;
  spec.kind = FaultKind::kNoSpace;
  spec.repeat = true;
  Faults().Arm("wal.append", spec);

  const Status denied = (*store)->Put("k1", "v1");
  EXPECT_TRUE(denied.IsStorageExhausted()) << denied;
  EXPECT_TRUE(gov.degraded());

  // Writes now fail fast (before touching the WAL); reads keep serving.
  EXPECT_TRUE((*store)->Put("k2", "v2").IsStorageExhausted());
  EXPECT_TRUE((*store)->Put("k0", "v0b").IsStorageExhausted());
  auto got = (*store)->Get("k0");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "v0");
  EXPECT_GE(CounterValue("storage.kv.write_rejected") - rejected_before, 3);

  // Device recovers: reclaim notices headroom is fine and reopens the
  // write path without deleting anything.
  Faults().DisarmAll();
  gov.RunReclaim();
  EXPECT_FALSE(gov.degraded());
  EXPECT_TRUE((*store)->Put("k1", "v1").ok());
  (void)RemoveDirRecursively(*dir);
}

TEST_F(ResourceTest, SimulatedBudgetFillDegradesAndOverrideRecovers) {
  auto dir = MakeTempDir("saga_res_fill");
  ASSERT_TRUE(dir.ok());
  // The floor is sized to the workload, like the production defaults
  // (4 MiB floor vs 4 MiB memtable): degraded mode must not exit until
  // there is room for a whole flush, or the store would flap.
  DiskSpaceGovernor gov(*dir, SimulatedBudget(48 << 10, 16 << 10));
  storage::KvStore::Options opts;
  opts.memtable_max_bytes = 8 << 10;
  opts.governor = &gov;
  auto store = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  gov.RegisterReclaimTask("kv.drop_obsolete",
                          [&] { return (*store)->DropObsoleteFiles(); });

  const std::string value(256, 'v');
  int acked = 0;
  while (!gov.degraded() && acked < 10000) {
    if ((*store)->Put("k" + std::to_string(acked), value).ok()) ++acked;
  }
  ASSERT_TRUE(gov.degraded()) << "48 KiB budget never filled";
  EXPECT_GT(acked, 0);

  // Reads serve the whole acked history while degraded.
  auto got = (*store)->Get("k0");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, value);

  gov.RunReclaim();
  if (gov.degraded()) gov.SetBudgetBytes(1 << 20);
  EXPECT_FALSE(gov.degraded());
  const Status probe = (*store)->Put("post-recovery", value);
  EXPECT_TRUE(probe.ok()) << probe;
  (void)RemoveDirRecursively(*dir);
}

TEST_F(ResourceTest, FlushAndCompactionFaultPointsTripDegraded) {
  auto dir = MakeTempDir("saga_res_flush");
  ASSERT_TRUE(dir.ok());
  DiskSpaceGovernor gov(*dir, DiskSpaceGovernor::Options());
  storage::KvStore::Options opts;
  opts.governor = &gov;
  auto store = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(store.ok()) << store.status();
  ASSERT_TRUE((*store)->Put("a", "1").ok());

  FaultSpec spec;
  spec.kind = FaultKind::kNoSpace;
  Faults().Arm("sstable.flush", spec);
  EXPECT_TRUE((*store)->Flush().IsStorageExhausted());
  EXPECT_TRUE(gov.degraded());
  Faults().DisarmAll();
  gov.RunReclaim();
  ASSERT_FALSE(gov.degraded());

  // The memtable survived the failed flush: nothing was lost.
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->Put("b", "2").ok());
  ASSERT_TRUE((*store)->Flush().ok());

  Faults().Arm("compaction.write", spec);
  EXPECT_TRUE((*store)->CompactAll().IsStorageExhausted());
  EXPECT_TRUE(gov.degraded());
  Faults().DisarmAll();
  gov.RunReclaim();
  ASSERT_FALSE(gov.degraded());

  // Inputs intact after the failed compaction; retrying it works.
  ASSERT_TRUE((*store)->CompactAll().ok());
  auto got = (*store)->Get("a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
  (void)RemoveDirRecursively(*dir);
}

TEST_F(ResourceTest, FailedWalFsyncRebuildsLogWithoutLosingAckedWrites) {
  auto dir = MakeTempDir("saga_res_gate");
  ASSERT_TRUE(dir.ok());
  storage::KvStore::Options opts;
  opts.sync_every_write = true;
  const int64_t rebuilds_before = CounterValue("storage.kv.wal_rebuilds");
  {
    auto store = storage::KvStore::Open(*dir, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    ASSERT_TRUE((*store)->Put("k1", "v1").ok());

    FaultSpec spec;
    spec.kind = FaultKind::kFail;
    Faults().Arm("wal.sync", spec);
    const Status gated = (*store)->Put("k2", "v2");
    EXPECT_TRUE(gated.IsFsyncGate()) << gated;
    Faults().DisarmAll();

    // The next write heals the store: the poisoned writer is never
    // re-fsynced — the memtable (which holds every synced record) is
    // flushed and the WAL rebuilt on a fresh fd.
    ASSERT_TRUE((*store)->Put("k3", "v3").ok());
    EXPECT_EQ(CounterValue("storage.kv.wal_rebuilds") - rebuilds_before, 1);
    auto got = (*store)->Get("k1");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v1");
  }
  // Both acked writes survive a reopen; k2 was never acked, so either
  // outcome is legal for it.
  auto reopened = storage::KvStore::Open(*dir, opts);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  auto k1 = (*reopened)->Get("k1");
  ASSERT_TRUE(k1.ok()) << k1.status();
  EXPECT_EQ(*k1, "v1");
  auto k3 = (*reopened)->Get("k3");
  ASSERT_TRUE(k3.ok()) << k3.status();
  EXPECT_EQ(*k3, "v3");
  (void)RemoveDirRecursively(*dir);
}

TEST_F(ResourceTest, FullReplicasNackAndCatchUpAfterRecovery) {
  auto dir = MakeTempDir("saga_replica_enospc");
  ASSERT_TRUE(dir.ok());
  replication::ReplicaGroup::Options opts;
  opts.num_replicas = 3;
  opts.seed = 0xE05;
  opts.dir = *dir;
  auto group = replication::ReplicaGroup::Create(opts);
  ASSERT_TRUE(group.ok()) << group.status();
  ASSERT_TRUE((*group)->StepUntil([&] { return (*group)->LeaderId() >= 0; },
                                  3000));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*group)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }

  // Cut one follower off, commit more writes on the remaining quorum,
  // then heal with every disk full: catch-up appends to the lagged
  // follower must be NACKed with kNoSpace (not kill the replica, not
  // back up the leader's cursor past its proven-shared position).
  const int leader = (*group)->LeaderId();
  const int lagged = (leader + 1) % 3;
  (*group)->PartitionNode(lagged);
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(
        (*group)->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  const int64_t nacks_before =
      CounterValue("replication.replica.nack_no_space");
  const int64_t peer_before =
      CounterValue("replication.replica.peer_no_space");
  FaultSpec enospc;
  enospc.kind = FaultKind::kNoSpace;
  enospc.repeat = true;
  Faults().Arm("wal.append", enospc);
  (*group)->HealAll();
  (*group)->Step(300);

  EXPECT_GT(CounterValue("replication.replica.nack_no_space"), nacks_before);
  EXPECT_GT(CounterValue("replication.replica.peer_no_space"), peer_before);
  EXPECT_TRUE((*group)->replica(lagged).alive());
  EXPECT_GT((*group)->LagOf(lagged), 0u);

  // A full leader cannot append either: the write fails, unacked.
  const Status refused = (*group)->Put("k8", "v8");
  EXPECT_FALSE(refused.ok());

  // Recovery: space comes back, heartbeat shipping resumes, and the
  // lagged follower catches up.
  Faults().DisarmAll();
  ASSERT_TRUE(
      (*group)->StepUntil([&] { return (*group)->LagOf(lagged) == 0; }, 5000));
  for (int i = 0; i < 8; ++i) {
    auto v = (*group)->GetAt(lagged, "k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "k" << i << ": " << v.status();
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  EXPECT_TRUE((*group)->Put("k8", "v8").ok());
  group->reset();
  (void)RemoveDirRecursively(*dir);
}

// ---------------------------------------------------------------------------
// The 200-round ENOSPC chaos loop
// ---------------------------------------------------------------------------

struct EnospcFault {
  const char* point;
  bool repeat;
};

constexpr EnospcFault kEnospcMenu[] = {
    {"wal.append", false},       {"wal.append", true},
    {"sstable.flush", false},    {"sstable.flush", true},
    {"compaction.write", false}, {"compaction.write", true},
};

TEST_F(ResourceTest, EnospcChaosLoopLosesNoAckedWrite) {
  constexpr int kRounds = 200;
  constexpr int kKeySpace = 32;
  const uint64_t base_seed = ChaosBaseSeed(43);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  int degraded_rounds = 0;

  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Rng rng(10007 * static_cast<uint64_t>(round) + base_seed);
    Faults().Seed(rng.NextUint64());
    auto dir = MakeTempDir("saga_enospc");
    ASSERT_TRUE(dir.ok());

    // Half the rounds fill a tiny simulated budget organically; the
    // other half inject device-level ENOSPC with headroom to spare.
    const bool inject = rng.Bernoulli(0.5);
    const uint64_t budget =
        inject ? (1 << 20) : 16 * 1024 + rng.Uniform(40 * 1024);
    const int64_t entries_before =
        SAGA_COUNTER("resource.governor.degraded_entries").Value();
    DiskSpaceGovernor gov(*dir, SimulatedBudget(budget, 4 << 10));

    storage::KvStore::Options opts;
    opts.memtable_max_bytes = 4096 + rng.Uniform(8192);
    opts.sync_every_write = true;  // an OK op is a durable op
    opts.auto_compact_trigger = rng.Bernoulli(0.4) ? 3 : 0;
    opts.governor = &gov;
    auto store = storage::KvStore::Open(*dir, opts);
    ASSERT_TRUE(store.ok()) << store.status();
    gov.RegisterReclaimTask("kv.drop_obsolete",
                            [&] { return (*store)->DropObsoleteFiles(); });

    // Exact model of every acked op. Keys whose op failed are
    // indeterminate (a failed Put can still be durable when only its
    // auto-flush failed) until a later op on the key succeeds.
    std::map<std::string, std::string> model;
    std::set<std::string> indeterminate;

    const int n_ops = 80 + static_cast<int>(rng.Uniform(81));
    const int fault_at =
        inject ? static_cast<int>(rng.Uniform(n_ops)) : n_ops + 1;
    bool read_checked_degraded = false;
    for (int op = 0; op < n_ops; ++op) {
      if (op == fault_at) {
        const EnospcFault& choice =
            kEnospcMenu[rng.Uniform(std::size(kEnospcMenu))];
        FaultSpec spec;
        spec.kind = FaultKind::kNoSpace;
        spec.fail_nth = 1 + static_cast<int>(rng.Uniform(3));
        spec.repeat = choice.repeat;
        Faults().Arm(choice.point, spec);
      }
      const std::string key = "k" + std::to_string(rng.Uniform(kKeySpace));
      const std::string value = "v" + std::to_string(round) + "_" +
                                std::to_string(op) +
                                std::string(rng.Uniform(512), 'x');
      const Status s = (*store)->Put(key, value);
      if (s.ok()) {
        model[key] = value;
        indeterminate.erase(key);
      } else {
        indeterminate.insert(key);
      }
      // ENOSPC must always surface as a clean, origin-tagged
      // rejection — never corruption, never a crash.
      if (!s.ok()) {
        ASSERT_TRUE(s.IsStorageExhausted()) << s;
      }
      // While degraded, spot-check that reads keep serving.
      if (gov.degraded() && !read_checked_degraded && !model.empty()) {
        read_checked_degraded = true;
        const auto& [rkey, rvalue] = *model.begin();
        if (indeterminate.count(rkey) == 0) {
          auto got = (*store)->Get(rkey);
          ASSERT_TRUE(got.ok())
              << "degraded read failed for " << rkey << ": " << got.status();
          ASSERT_EQ(*got, rvalue);
        }
      }
    }

    // Recovery: clear the device fault, reclaim, and if the simulated
    // budget is genuinely full, apply the operator override. The store
    // must end the round writable.
    Faults().DisarmAll();
    if (gov.degraded()) {
      gov.RunReclaim();
      if (gov.degraded()) gov.SetBudgetBytes(budget * 8);
      ASSERT_FALSE(gov.degraded());
    }
    // The probe itself may trip a near-full (but not yet degraded)
    // budget — e.g. its auto-flush reservation. Every failure must be
    // an origin-tagged rejection, and the operator loop (reclaim, then
    // raise the budget on repeated denials) must end writable.
    Status probe = (*store)->Put("probe", "recovered");
    for (int attempt = 0; !probe.ok() && attempt < 3; ++attempt) {
      ASSERT_TRUE(probe.IsStorageExhausted()) << probe;
      gov.RunReclaim();
      gov.SetBudgetBytes(gov.budget_bytes() * 8);
      ASSERT_FALSE(gov.degraded());
      probe = (*store)->Put("probe", "recovered");
    }
    ASSERT_TRUE(probe.ok()) << probe;
    if (SAGA_COUNTER("resource.governor.degraded_entries").Value() >
        entries_before) {
      ++degraded_rounds;
    }
    model["probe"] = "recovered";
    indeterminate.erase("probe");

    // Every acked write is readable live...
    for (const auto& [key, value] : model) {
      if (indeterminate.count(key) != 0) continue;
      auto got = (*store)->Get(key);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status();
      ASSERT_EQ(*got, value) << "stale value for " << key;
    }

    // ...and durable across a reopen (sync_every_write: every ack hit
    // the disk before returning).
    store->reset();
    opts.governor = nullptr;
    auto reopened = storage::KvStore::Open(*dir, opts);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    for (const auto& [key, value] : model) {
      if (indeterminate.count(key) != 0) continue;
      auto got = (*reopened)->Get(key);
      ASSERT_TRUE(got.ok()) << "lost acked write " << key << ": "
                            << got.status();
      ASSERT_EQ(*got, value) << "stale value for " << key;
    }
    (void)RemoveDirRecursively(*dir);
  }

  // The loop must actually exercise degraded mode, not tiptoe around
  // it: with half the rounds injecting and the rest on 16-56 KiB
  // budgets, a healthy harness degrades in well over a quarter of the
  // rounds (some injections target a point the round never hits, e.g.
  // compaction.write with auto-compaction off).
  EXPECT_GT(degraded_rounds, kRounds / 4);
}

}  // namespace
}  // namespace saga
