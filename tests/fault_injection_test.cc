#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/retry.h"

namespace saga {
namespace {

class FaultInjectorTest : public ::testing::Test {
 protected:
  void TearDown() override { Faults().DisarmAll(); }
};

TEST_F(FaultInjectorTest, UnarmedIsFree) {
  EXPECT_FALSE(Faults().armed());
  EXPECT_TRUE(Faults().InjectOp("some.point").ok());
}

TEST_F(FaultInjectorTest, FailNthFiresExactlyOnce) {
  FaultSpec spec;
  spec.fail_nth = 3;
  Faults().Arm("p", spec);
  EXPECT_TRUE(Faults().armed());
  EXPECT_TRUE(Faults().InjectOp("p").ok());
  EXPECT_TRUE(Faults().InjectOp("p").ok());
  EXPECT_TRUE(Faults().InjectOp("p").IsIOError());
  // One-shot: disarmed after firing.
  EXPECT_TRUE(Faults().InjectOp("p").ok());
  EXPECT_FALSE(Faults().armed());
  EXPECT_EQ(Faults().fires("p"), 1u);
}

TEST_F(FaultInjectorTest, RepeatKeepsFiring) {
  FaultSpec spec;
  spec.fail_nth = 2;
  spec.repeat = true;
  Faults().Arm("p", spec);
  EXPECT_TRUE(Faults().InjectOp("p").ok());
  EXPECT_TRUE(Faults().InjectOp("p").IsIOError());
  EXPECT_TRUE(Faults().InjectOp("p").IsIOError());
  EXPECT_TRUE(Faults().armed());
}

TEST_F(FaultInjectorTest, ProbabilityIsSeededAndReproducible) {
  auto run = [](uint64_t seed) {
    Faults().DisarmAll();
    Faults().Seed(seed);
    FaultSpec spec;
    spec.fail_nth = 0;
    spec.probability = 0.5;
    spec.repeat = true;
    Faults().Arm("p", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!Faults().InjectOp("p").ok());
    Faults().DisarmAll();
    return fired;
  };
  const auto a = run(7);
  const auto b = run(7);
  const auto c = run(8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // ~50% of 64 hits should fire; allow a wide band.
  const int fires = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 10);
  EXPECT_LT(fires, 54);
}

TEST_F(FaultInjectorTest, TornWriteTruncatesPayload) {
  FaultSpec spec;
  spec.kind = FaultKind::kTornWrite;
  spec.keep_fraction = 0.25;
  Faults().Arm("w", spec);
  std::string payload(100, 'x');
  const WriteFault f = Faults().InjectWrite("w", &payload);
  EXPECT_TRUE(f.fail);
  EXPECT_TRUE(f.write_payload);
  EXPECT_EQ(payload.size(), 25u);
}

TEST_F(FaultInjectorTest, BitFlipMutatesWithoutFailing) {
  FaultSpec spec;
  spec.kind = FaultKind::kBitFlip;
  Faults().Arm("w", spec);
  std::string payload(100, 'x');
  const WriteFault f = Faults().InjectWrite("w", &payload);
  EXPECT_FALSE(f.fail);
  EXPECT_TRUE(f.write_payload);
  EXPECT_EQ(payload.size(), 100u);
  EXPECT_NE(payload, std::string(100, 'x'));
}

TEST_F(FaultInjectorTest, ScopedFaultDisarmsOnExit) {
  {
    ScopedFault fault("scoped", FaultSpec{});
    EXPECT_TRUE(Faults().armed());
  }
  EXPECT_FALSE(Faults().armed());
  EXPECT_TRUE(Faults().InjectOp("scoped").ok());
}

// ---------- RetryPolicy ----------

TEST_F(FaultInjectorTest, InjectTransportMapsKindsToActions) {
  // The network-shaped kinds map to their own actions; delay carries
  // the configured stall for the caller's logical clock (the injector
  // itself never sleeps on the transport path).
  struct Case {
    FaultKind kind;
    TransportFaultAction action;
  };
  const Case cases[] = {
      {FaultKind::kDelay, TransportFaultAction::kDelay},
      {FaultKind::kDuplicate, TransportFaultAction::kDuplicate},
      {FaultKind::kReorder, TransportFaultAction::kReorder},
      {FaultKind::kDrop, TransportFaultAction::kDrop},
      {FaultKind::kPartition, TransportFaultAction::kDrop},
      // Non-network kinds degrade to the closest network effect: a
      // lost message.
      {FaultKind::kFail, TransportFaultAction::kDrop},
      {FaultKind::kTornWrite, TransportFaultAction::kDrop},
  };
  for (const Case& c : cases) {
    Faults().DisarmAll();
    FaultSpec spec;
    spec.kind = c.kind;
    spec.delay_ms = 17.5;
    Faults().Arm("transport.send", spec);
    const TransportFault f = Faults().InjectTransport("transport.send");
    EXPECT_EQ(static_cast<int>(f.action), static_cast<int>(c.action))
        << "kind " << static_cast<int>(c.kind);
    if (c.action == TransportFaultAction::kDelay) {
      EXPECT_DOUBLE_EQ(f.delay_ms, 17.5);
    }
  }
  // Unarmed points deliver normally.
  Faults().DisarmAll();
  EXPECT_EQ(static_cast<int>(Faults().InjectTransport("transport.send").action),
            static_cast<int>(TransportFaultAction::kNone));
}

TEST_F(FaultInjectorTest, NetworkKindsDegradeToFailureOnDiskPaths) {
  // Arming a network kind on a read/write point must fail the guarded
  // operation (never pass silently) — a misconfigured chaos schedule
  // should be loud, not a no-op.
  FaultSpec spec;
  spec.kind = FaultKind::kDrop;
  Faults().Arm("file.write", spec);
  std::string payload = "abc";
  const WriteFault wf = Faults().InjectWrite("file.write", &payload);
  EXPECT_TRUE(wf.fail);
  EXPECT_FALSE(wf.write_payload);
  Faults().DisarmAll();
  spec.kind = FaultKind::kReorder;
  Faults().Arm("file.read", spec);
  std::string buf = "abc";
  EXPECT_TRUE(
      Faults().InjectRead("file.read", buf.data(), buf.size()).IsIOError());
}

TEST_F(FaultInjectorTest, ArmedPointsListsActiveFaults) {
  EXPECT_TRUE(Faults().ArmedPoints().empty());
  Faults().Arm("wal.append", FaultSpec{});
  Faults().Arm("transport.send", FaultSpec{});
  const std::vector<std::string> armed = Faults().ArmedPoints();
  ASSERT_EQ(armed.size(), 2u);
  // Sorted for stable CLI output.
  EXPECT_EQ(armed[0], "transport.send");
  EXPECT_EQ(armed[1], "wal.append");
}

TEST_F(FaultInjectorTest, KnownFaultPointCatalogCoversTransport) {
  const auto& points = KnownFaultPoints();
  EXPECT_GE(points.size(), 10u);
  bool has_transport = false;
  for (const FaultPointInfo& p : points) {
    EXPECT_FALSE(std::string_view(p.name).empty());
    EXPECT_FALSE(std::string_view(p.shape).empty());
    EXPECT_FALSE(std::string_view(p.description).empty());
    if (std::string_view(p.name) == "transport.send") has_transport = true;
  }
  EXPECT_TRUE(has_transport)
      << "the fault-point catalog is missing the replication transport";
}

TEST(RetryPolicyTest, SucceedsAfterTransientFailures) {
  RetryPolicy::Options opts;
  opts.max_attempts = 4;
  std::vector<double> sleeps;
  RetryPolicy policy(opts, [&](double ms) { sleeps.push_back(ms); });
  obs::Counter& attempts = SAGA_COUNTER("resource.retry.attempts");
  const int64_t attempts_before = attempts.Value();
  int calls = 0;
  Status s = policy.Run("op", [&] {
    ++calls;
    return calls < 3 ? Status::IOError("transient") : Status::OK();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(attempts.Value() - attempts_before, 2);
  EXPECT_EQ(policy.total_retries(), 2u);
}

TEST(RetryPolicyTest, DoesNotRetryNonRetryable) {
  RetryPolicy policy(RetryPolicy::Options{}, [](double) {});
  int calls = 0;
  Status s = policy.Run("op", [&] {
    ++calls;
    return Status::Corruption("bad bytes");
  });
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(calls, 1);
}

TEST(RetryPolicyTest, GivesUpAfterMaxAttempts) {
  RetryPolicy::Options opts;
  opts.max_attempts = 3;
  RetryPolicy policy(opts, [](double) {});
  int calls = 0;
  Status s = policy.Run("op", [&] {
    ++calls;
    return Status::IOError("always");
  });
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(calls, 3);
}

TEST(RetryPolicyTest, CustomPredicateWidensRetries) {
  RetryPolicy::Options opts;
  opts.max_attempts = 2;
  RetryPolicy policy(opts, [](double) {});
  int calls = 0;
  Status s = policy.Run(
      "op",
      [&] {
        ++calls;
        return calls < 2 ? Status::Corruption("rebuildable") : Status::OK();
      },
      [](const Status& st) { return st.IsCorruption(); });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(calls, 2);
}

TEST(RetryPolicyTest, BackoffGrowsAndIsCapped) {
  RetryPolicy::Options opts;
  opts.initial_backoff_ms = 10.0;
  opts.backoff_multiplier = 2.0;
  opts.max_backoff_ms = 35.0;
  opts.jitter_fraction = 0.0;
  RetryPolicy policy(opts, [](double) {});
  EXPECT_DOUBLE_EQ(policy.BackoffMs(1), 10.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(2), 20.0);
  EXPECT_DOUBLE_EQ(policy.BackoffMs(3), 35.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffMs(4), 35.0);
}

TEST(RetryPolicyTest, JitterStaysWithinBounds) {
  RetryPolicy::Options opts;
  opts.initial_backoff_ms = 100.0;
  opts.max_backoff_ms = 1000.0;
  opts.jitter_fraction = 0.2;
  RetryPolicy policy(opts, [](double) {});
  for (int i = 0; i < 32; ++i) {
    const double b = policy.BackoffMs(1);
    EXPECT_GE(b, 80.0);
    EXPECT_LE(b, 120.0);
  }
}

}  // namespace
}  // namespace saga
