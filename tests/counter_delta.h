#ifndef SAGA_TESTS_COUNTER_DELTA_H_
#define SAGA_TESTS_COUNTER_DELTA_H_

#include <cstdint>

#include "common/metrics.h"

namespace saga {

/// How far a registry counter moved since construction. Counters are
/// process-wide, so a test asserts the delta over the code it runs:
///
///   const CounterDelta skips(
///       SAGA_COUNTER("serving.replica_router.stale_skips"));
///   ...
///   EXPECT_EQ(skips(), 8);
class CounterDelta {
 public:
  explicit CounterDelta(const obs::Counter& counter)
      : counter_(counter), before_(counter.Value()) {}

  int64_t operator()() const { return counter_.Value() - before_; }

 private:
  const obs::Counter& counter_;
  int64_t before_;
};

}  // namespace saga

#endif  // SAGA_TESTS_COUNTER_DELTA_H_
