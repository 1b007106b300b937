#ifndef SAGA_COMMON_THREADPOOL_H_
#define SAGA_COMMON_THREADPOOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace saga {

/// Fixed-size worker pool executing void() tasks FIFO. Used by the
/// embedding trainer and annotation pipeline for data parallelism;
/// degrades gracefully to inline execution with zero threads.
///
/// Bounded-queue mode: constructed with `max_queue > 0`, TrySubmit
/// refuses work with Status::ResourceExhausted once that many tasks are
/// waiting, so a saturated service sheds load instead of queueing
/// unboundedly (queued work would only time out after its deadline
/// anyway). Submit() stays unbounded for legacy batch callers.
class ThreadPool {
 public:
  /// `num_threads == 0` runs every submitted task inline in Submit().
  explicit ThreadPool(int num_threads);
  /// Bounded-queue pool: `max_queue == 0` means unbounded.
  ThreadPool(int num_threads, size_t max_queue);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  /// Like Submit, but sheds with ResourceExhausted instead of enqueueing
  /// when the pending queue is at `max_queue`. With zero workers the
  /// task runs inline (there is no queue to bound).
  Status TrySubmit(std::function<void()> task);

  /// Blocks until all submitted tasks have finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }
  /// Tasks waiting for a worker right now (excludes running tasks).
  size_t queue_depth() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t max_queue_ = 0;
  int in_flight_ = 0;
  bool shutting_down_ = false;
};

/// Runs fn(i) for i in [0, n), distributing across the pool; blocks until
/// complete. With a zero-thread pool this is a plain loop.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace saga

#endif  // SAGA_COMMON_THREADPOOL_H_
