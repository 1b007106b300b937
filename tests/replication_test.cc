// Chaos harness for saga::replication: a leader/follower replica group
// over the fault-injectable SimTransport, driven on a logical clock so
// every schedule replays from one seed.
//
// What the suite pins:
//  - exactly-one-leader-per-epoch elections with the catch-up
//    restriction (the most caught-up follower wins);
//  - acked-write durability: an OK from Put survives any schedule of
//    partitions, drops, duplicates, reorders, crashes, and forced
//    leader kills the chaos loop throws at the group;
//  - epoch fencing: a partitioned ex-leader's late appends are
//    rejected and its divergent tail never commits;
//  - bounded-staleness routing: reads never land on a follower lagging
//    past the staleness bound;
//  - WAL interplay: Reset-after-ship (log compaction rewrites the
//    on-disk WAL) never regresses follower catch-up, and a WAL-backed
//    replica restarts from disk with its window intact.
//
// Any failure prints SAGA_CHAOS_SEED=<n> via SCOPED_TRACE; exporting
// that variable replays the exact run. SAGA_CHAOS_ROUNDS scales the
// big loop for the nightly chaos job.

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "counter_delta.h"
#include "replication/log.h"
#include "replication/replica.h"
#include "replication/replica_group.h"
#include "replication/sim_transport.h"
#include "serving/replica_router.h"

namespace saga::replication {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return fallback;
}

uint64_t ChaosBaseSeed(uint64_t default_seed) {
  return EnvOr("SAGA_CHAOS_SEED", default_seed);
}

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMinLogLevel(LogLevel::kError); }
  void TearDown() override {
    Faults().DisarmAll();
    SetMinLogLevel(LogLevel::kInfo);
  }
};

ReplicaGroup::Options MemoryGroupOptions(uint64_t seed, int n = 3) {
  ReplicaGroup::Options o;
  o.num_replicas = n;
  o.seed = seed;
  return o;
}

std::unique_ptr<ReplicaGroup> MustCreate(ReplicaGroup::Options o) {
  auto group = ReplicaGroup::Create(std::move(o));
  EXPECT_TRUE(group.ok()) << group.status().ToString();
  return std::move(*group);
}

int CountLeaders(ReplicaGroup& g) {
  int leaders = 0;
  for (int i = 0; i < g.num_replicas(); ++i) {
    if (g.replica(i).alive() && g.replica(i).role() == Role::kLeader) {
      ++leaders;
    }
  }
  return leaders;
}

TEST_F(ReplicationTest, ElectsExactlyOneLeader) {
  const CounterDelta failovers(SAGA_COUNTER("replication.group.failovers"));
  auto group = MustCreate(MemoryGroupOptions(101));
  ASSERT_TRUE(group->StepUntil([&] { return group->LeaderId() >= 0; }, 2000));
  EXPECT_EQ(CountLeaders(*group), 1);
  EXPECT_GE(group->epoch(), 1u);
  // A settled group stays settled: no spurious elections under a
  // healthy network.
  const uint64_t epoch_before = group->epoch();
  group->Step(500);
  EXPECT_EQ(group->epoch(), epoch_before);
  EXPECT_EQ(failovers(), 0);
}

TEST_F(ReplicationTest, AckedPutIsReadableEverywhereOnceLagDrains) {
  auto group = MustCreate(MemoryGroupOptions(102));
  ASSERT_TRUE(group->Put("subject", "Saga").ok());
  ASSERT_TRUE(group->Put("pred", "authored").ok());
  ASSERT_TRUE(group->StepUntil(
      [&] {
        for (int i = 0; i < group->num_replicas(); ++i) {
          if (group->LagOf(i) != 0) return false;
        }
        return true;
      },
      2000));
  for (int i = 0; i < group->num_replicas(); ++i) {
    auto v = group->GetAt(i, "subject");
    ASSERT_TRUE(v.ok()) << "replica " << i;
    EXPECT_EQ(*v, "Saga");
  }
  auto routed = group->Get("pred");
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(*routed, "authored");
}

TEST_F(ReplicationTest, FailoverPromotesCaughtUpFollowerAndKeepsWrites) {
  const CounterDelta failovers(SAGA_COUNTER("replication.group.failovers"));
  auto group = MustCreate(MemoryGroupOptions(103));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        group->Put("k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  const int old_leader = group->LeaderId();
  ASSERT_GE(old_leader, 0);
  const uint64_t old_epoch = group->epoch();
  group->Crash(old_leader);
  ASSERT_TRUE(group->StepUntil(
      [&] {
        const int lid = group->LeaderId();
        return lid >= 0 && lid != old_leader;
      },
      5000));
  EXPECT_GT(group->epoch(), old_epoch);
  EXPECT_GE(failovers(), 1);
  // Let the new leader commit its no-op: the commit index regresses
  // transiently across a leader death (only the dead leader knew the
  // final index) and re-covers the log once the no-op commits.
  ASSERT_TRUE(group->StepUntil(
      [&] {
        const int lid = group->LeaderId();
        if (lid < 0) return false;
        const Replica& leader = group->replica(lid);
        if (leader.commit_seq() != leader.log().last_seq()) return false;
        for (int i = 0; i < group->num_replicas(); ++i) {
          if (group->replica(i).alive() && group->LagOf(i) != 0) return false;
        }
        return true;
      },
      5000));
  // Every acked write survived the failover.
  for (int i = 0; i < 8; ++i) {
    auto v = group->Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "k" << i << " lost across failover";
    EXPECT_EQ(*v, "v" + std::to_string(i));
  }
  // And the group still accepts writes with one node down.
  EXPECT_TRUE(group->Put("post", "failover").ok());
}

TEST_F(ReplicationTest, FencedExLeaderAppendsAreRejected) {
  auto group = MustCreate(MemoryGroupOptions(104));
  ASSERT_TRUE(group->Put("stable", "committed").ok());
  const int old_leader = group->LeaderId();
  ASSERT_GE(old_leader, 0);
  const uint64_t old_epoch = group->replica(old_leader).epoch();

  // Cut the leader off. It keeps believing it leads (no one fences it
  // yet) while the majority side elects a successor.
  group->PartitionNode(old_leader);
  ASSERT_TRUE(group->StepUntil(
      [&] {
        const int lid = group->LeaderId();
        return lid >= 0 && lid != old_leader;
      },
      5000));
  ASSERT_EQ(group->replica(old_leader).role(), Role::kLeader);

  // The doomed ex-leader accepts a local append it can never commit.
  auto seq = group->replica(old_leader).LeaderAppend(
      ReplicaGroup::EncodePut("doomed", "never-acked"), group->now_ms());
  ASSERT_TRUE(seq.ok());

  // Majority side commits a write of its own under the new epoch.
  ASSERT_TRUE(group->Put("winner", "new-epoch").ok());

  const obs::Counter& fenced =
      obs::Registry::Global().counter("replication.replica.fenced_appends");
  const int64_t fenced_before = fenced.Value();

  group->HealAll();
  // The healed ex-leader must be fenced by epoch: stepped down, its
  // divergent record rejected and truncated, the new-epoch history
  // adopted.
  ASSERT_TRUE(group->StepUntil(
      [&] {
        return group->replica(old_leader).role() == Role::kFollower &&
               group->LagOf(old_leader) == 0;
      },
      5000));
  EXPECT_GT(group->replica(old_leader).epoch(), old_epoch);
  EXPECT_FALSE(group->replica(old_leader).IsCommitted(*seq, old_epoch));
  EXPECT_GT(fenced.Value(), fenced_before)
      << "ex-leader's stale-epoch ships were never fenced";
  // The doomed write is gone; the committed history is intact.
  EXPECT_FALSE(group->GetAt(old_leader, "doomed").ok());
  auto stable = group->GetAt(old_leader, "stable");
  ASSERT_TRUE(stable.ok());
  EXPECT_EQ(*stable, "committed");
  auto winner = group->GetAt(old_leader, "winner");
  ASSERT_TRUE(winner.ok());
  EXPECT_EQ(*winner, "new-epoch");
}

TEST_F(ReplicationTest, PartitionedFollowerCatchesUpAfterHeal) {
  auto group = MustCreate(MemoryGroupOptions(105));
  ASSERT_TRUE(group->Put("warm", "up").ok());
  const int lid = group->LeaderId();
  ASSERT_GE(lid, 0);
  int follower = -1;
  for (int i = 0; i < group->num_replicas(); ++i) {
    if (i != lid) {
      follower = i;
      break;
    }
  }
  const CounterDelta partitioned(
      SAGA_COUNTER("replication.transport.partitioned"));
  group->PartitionNode(follower);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(group->Put("p" + std::to_string(i), "x").ok());
  }
  EXPECT_GT(group->LagOf(follower), 0u);
  EXPECT_GT(partitioned(), 0) << "no message hit the cut";
  group->HealAll();
  ASSERT_TRUE(
      group->StepUntil([&] { return group->LagOf(follower) == 0; }, 5000));
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(group->GetAt(follower, "p" + std::to_string(i)).ok());
  }
}

// --- bounded-staleness routing -------------------------------------

TEST_F(ReplicationTest, RouterSkipsLaggingAndUnhealthyFollowers) {
  constexpr uint64_t kBound = serving::ReplicaRouter::kMaxStalenessRecords;
  const CounterDelta follower_reads(
      SAGA_COUNTER("serving.replica_router.follower_reads"));
  const CounterDelta leader_reads(
      SAGA_COUNTER("serving.replica_router.leader_reads"));
  const CounterDelta stale_skips(
      SAGA_COUNTER("serving.replica_router.stale_skips"));
  const CounterDelta stale_fallbacks(
      SAGA_COUNTER("serving.replica_router.stale_fallbacks"));
  serving::ReplicaRouter router;
  std::vector<serving::ReplicaRouter::ReplicaView> views = {
      {/*id=*/0, /*is_leader=*/true, /*healthy=*/true, /*lag=*/0},
      {/*id=*/1, /*is_leader=*/false, /*healthy=*/true, /*lag=*/kBound + 6},
      {/*id=*/2, /*is_leader=*/false, /*healthy=*/false, /*lag=*/0},
  };
  // Only the leader is eligible: follower 1 is past the staleness
  // bound (a stale skip), follower 2 is suspected (not a candidate at
  // all, so not counted as stale).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(router.PickRead(views), 0);
  EXPECT_EQ(leader_reads(), 8);
  EXPECT_EQ(stale_skips(), 8);

  views[1].lag_records = kBound;  // exactly at the bound: eligible
  EXPECT_EQ(router.PickRead(views), 1);
  EXPECT_EQ(follower_reads(), 1);

  // Leader down, follower 1 beyond the bound but healthy: availability
  // wins — the least-stale healthy follower serves, counted as a
  // stale fallback.
  views[0].healthy = false;
  views[0].is_leader = false;
  views[1].lag_records = kBound + 1;
  EXPECT_EQ(router.PickRead(views), 1);
  EXPECT_EQ(stale_fallbacks(), 1);

  // Nobody healthy at all: now the router refuses to serve.
  views[1].healthy = false;
  EXPECT_EQ(router.PickRead(views), -1);
}

TEST_F(ReplicationTest, RouterSpreadsReadsOverHealthyFollowers) {
  serving::ReplicaRouter router;
  std::vector<serving::ReplicaRouter::ReplicaView> views = {
      {0, true, true, 0},
      {1, false, true, 0},
      {2, false, true, 0},
  };
  std::map<int, int> hits;
  for (int i = 0; i < 10; ++i) ++hits[router.PickRead(views)];
  EXPECT_EQ(hits.count(0), 0u) << "leader served despite healthy followers";
  EXPECT_EQ(hits[1], 5);
  EXPECT_EQ(hits[2], 5);
}

// --- WAL interplay (satellite: Reset()/replay under shipping) -------

TEST_F(ReplicationTest, WalBackedReplicaRestartsFromDisk) {
  auto dir = MakeTempDir("saga_repl_wal");
  ASSERT_TRUE(dir.ok());
  ReplicaGroup::Options o = MemoryGroupOptions(107);
  o.dir = *dir;
  auto group = MustCreate(std::move(o));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(group->Put("w" + std::to_string(i), "d").ok());
  }
  const int lid = group->LeaderId();
  const int victim = (lid + 1) % group->num_replicas();
  ASSERT_TRUE(group->StepUntil([&] { return group->LagOf(victim) == 0; },
                               2000));
  const uint64_t log_end = group->replica(victim).log().last_seq();
  group->Crash(victim);
  group->Step(100);
  ASSERT_TRUE(group->Restart(victim).ok());
  // The log came back from disk, not from memory.
  EXPECT_EQ(group->replica(victim).log().last_seq(), log_end);
  ASSERT_TRUE(
      group->StepUntil([&] { return group->LagOf(victim) == 0; }, 5000));
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(group->GetAt(victim, "w" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(RemoveDirRecursively(*dir).ok());
}

// --- transport fault injection (the new FaultKinds) -----------------

TEST_F(ReplicationTest, InjectedTransportDropsDelayAndDuplicate) {
  // The group must make progress with every network-shaped FaultKind
  // armed through the process-wide injector at transport.send.
  const FaultKind kinds[] = {FaultKind::kDrop, FaultKind::kDelay,
                             FaultKind::kDuplicate, FaultKind::kReorder};
  uint64_t salt = 0;
  for (FaultKind kind : kinds) {
    Faults().Seed(0xF417 + salt++);
    FaultSpec spec;
    spec.kind = kind;
    spec.probability = 0.3;
    spec.delay_ms = 25;
    spec.fail_nth = 0;
    spec.repeat = true;
    ScopedFault fault("transport.send", spec);
    const CounterDelta sent(SAGA_COUNTER("replication.transport.sent"));
    const CounterDelta delivered(
        SAGA_COUNTER("replication.transport.delivered"));
    const CounterDelta dropped(SAGA_COUNTER("replication.transport.dropped"));
    const CounterDelta duplicated(
        SAGA_COUNTER("replication.transport.duplicated"));
    const CounterDelta reordered(
        SAGA_COUNTER("replication.transport.reordered"));
    auto group = MustCreate(MemoryGroupOptions(108 + salt));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(group->Put("f" + std::to_string(i), "v").ok())
          << "no progress with injected fault kind "
          << static_cast<int>(kind);
    }
    EXPECT_GT(sent(), 0);
    EXPECT_GT(delivered(), 0);
    // Each armed kind shows in its own counter, and only there.
    EXPECT_EQ(dropped() > 0, kind == FaultKind::kDrop);
    EXPECT_EQ(duplicated() > 0, kind == FaultKind::kDuplicate);
    EXPECT_EQ(reordered() > 0, kind == FaultKind::kReorder);
  }
}

// --- the seeded chaos loop ------------------------------------------

/// One chaos round: a fresh group under a random fault profile takes a
/// random schedule of puts, partitions, heals, crashes (leader kills
/// included), and restarts. Writes are tracked in an oracle that only
/// trusts acked results: a key whose latest put timed out is "unknown"
/// (the write may or may not have committed — both are legal) and is
/// dropped from the final audit.
void RunChaosRound(uint64_t seed, bool wal_backed, const std::string& dir) {
  Rng rng(seed);
  ReplicaGroup::Options o = MemoryGroupOptions(seed);
  o.num_replicas = 3 + static_cast<int>(rng.Uniform(2)) * 2;  // 3 or 5
  if (wal_backed) o.dir = dir;
  auto group = MustCreate(std::move(o));
  group->SetFaultProfile(
      /*drop_p=*/rng.UniformDouble(0, 0.10),
      /*duplicate_p=*/rng.UniformDouble(0, 0.10),
      /*reorder_p=*/rng.UniformDouble(0, 0.15),
      /*jitter_ms=*/rng.UniformDouble(0, 4.0));

  std::map<std::string, std::optional<std::string>> oracle;
  std::vector<bool> crashed(static_cast<size_t>(group->num_replicas()), false);
  auto restart_all = [&] {
    for (int i = 0; i < group->num_replicas(); ++i) {
      if (crashed[static_cast<size_t>(i)]) {
        ASSERT_TRUE(group->Restart(i).ok());
        crashed[static_cast<size_t>(i)] = false;
      }
    }
  };

  const int ops = 24 + static_cast<int>(rng.Uniform(16));
  for (int op = 0; op < ops; ++op) {
    const uint64_t dice = rng.Uniform(100);
    if (dice < 55) {
      // A write; acked -> oracle, timed out -> unknown.
      const std::string key = "k" + std::to_string(rng.Uniform(12));
      const std::string value =
          "v" + std::to_string(op) + "_" + std::to_string(seed & 0xFFFF);
      if (group->Put(key, value).ok()) {
        oracle[key] = value;
      } else {
        oracle[key] = std::nullopt;
      }
    } else if (dice < 70) {
      // Forced leader kill (or a random victim when leaderless) —
      // never below quorum.
      int up = 0;
      for (bool c : crashed) up += c ? 0 : 1;
      if (up > group->num_replicas() / 2 + 1) {
        int victim = group->LeaderId();
        if (victim < 0 || crashed[static_cast<size_t>(victim)]) {
          victim = static_cast<int>(rng.Uniform(
              static_cast<uint64_t>(group->num_replicas())));
        }
        if (!crashed[static_cast<size_t>(victim)]) {
          group->Crash(victim);
          crashed[static_cast<size_t>(victim)] = true;
        }
      } else {
        restart_all();
      }
    } else if (dice < 80) {
      restart_all();
      group->Step(20);
    } else if (dice < 92) {
      // A partition: isolate one node, or split the group in two.
      if (rng.Bernoulli(0.5)) {
        group->PartitionNode(static_cast<int>(
            rng.Uniform(static_cast<uint64_t>(group->num_replicas()))));
      } else {
        std::vector<int> a, b;
        for (int i = 0; i < group->num_replicas(); ++i) {
          (rng.Bernoulli(0.5) ? a : b).push_back(i);
        }
        group->PartitionSides(a, b);
      }
      group->Step(rng.UniformDouble(10, 120));
    } else {
      group->HealAll();
      group->Step(rng.UniformDouble(5, 60));
    }

    // Staleness audit: the router must never pick an unhealthy
    // replica, and never a follower past the bound unless it degraded
    // to the last-resort stale fallback (leader down and nobody inside
    // the bound).
    serving::ReplicaRouter probe;
    const auto views = group->Views();
    const CounterDelta fallbacks(
        SAGA_COUNTER("serving.replica_router.stale_fallbacks"));
    const int picked = probe.PickRead(views);
    if (picked >= 0) {
      const auto& v = views[static_cast<size_t>(picked)];
      EXPECT_TRUE(v.healthy);
      if (!v.is_leader && fallbacks() == 0) {
        EXPECT_LE(v.lag_records,
                  serving::ReplicaRouter::kMaxStalenessRecords)
            << "router served a follower past the staleness bound";
      }
    }
  }

  // End of round: heal everything and audit the acked writes.
  group->HealAll();
  restart_all();
  ASSERT_TRUE(group->StepUntil(
      [&] {
        const int lid = group->LeaderId();
        if (lid < 0) return false;
        // Settled = the leader's commit covers its whole log (its
        // leadership no-op included) and every replica has drained its
        // lag; only then is the applied state comparable.
        const Replica& leader = group->replica(lid);
        if (leader.commit_seq() != leader.log().last_seq()) return false;
        for (int i = 0; i < group->num_replicas(); ++i) {
          if (group->LagOf(i) != 0) return false;
        }
        return true;
      },
      20000))
      << "group failed to reconverge after heal" << [&] {
           std::string s;
           for (int i = 0; i < group->num_replicas(); ++i) {
             const Replica& r = group->replica(i);
             s += "\n  replica " + std::to_string(i) +
                  " alive=" + std::to_string(r.alive()) +
                  " role=" + std::to_string(static_cast<int>(r.role())) +
                  " epoch=" + std::to_string(r.epoch()) +
                  " commit=" + std::to_string(r.commit_seq()) +
                  " last_seq=" + std::to_string(r.log().last_seq()) +
                  " last_epoch=" + std::to_string(r.log().last_epoch());
           }
           return s;
         }();
  EXPECT_EQ(CountLeaders(*group), 1);
  for (const auto& [key, expect] : oracle) {
    if (!expect.has_value()) continue;  // unknown outcome: both legal
    for (int i = 0; i < group->num_replicas(); ++i) {
      auto v = group->GetAt(i, key);
      ASSERT_TRUE(v.ok()) << "acked write " << key << " lost on replica "
                          << i;
      EXPECT_EQ(*v, *expect) << "acked write " << key
                             << " regressed on replica " << i;
    }
  }
}

TEST_F(ReplicationTest, SeededChaosNeverLosesAckedWrites) {
  const uint64_t base_seed = ChaosBaseSeed(29);
  const uint64_t rounds = EnvOr("SAGA_CHAOS_ROUNDS", 200);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  for (uint64_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    RunChaosRound(base_seed + 7919 * round, /*wal_backed=*/false, "");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(ReplicationTest, SeededChaosWalBackedRounds) {
  const uint64_t base_seed = ChaosBaseSeed(31);
  const uint64_t rounds = EnvOr("SAGA_CHAOS_WAL_ROUNDS", 12);
  SCOPED_TRACE("replay with SAGA_CHAOS_SEED=" + std::to_string(base_seed));
  for (uint64_t round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    auto dir = MakeTempDir("saga_repl_chaos");
    ASSERT_TRUE(dir.ok());
    RunChaosRound(base_seed + 104729 * round, /*wal_backed=*/true, *dir);
    ASSERT_TRUE(RemoveDirRecursively(*dir).ok());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace saga::replication
