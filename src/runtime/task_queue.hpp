// FIFO task queue over dedicated worker threads: the library's one
// parallel path. A single coding call runs on one thread; this queue
// parallelizes *across* calls, one whole stripe per task.
//
// api/batch.hpp's BatchCoder sessions submit whole encode/reconstruct jobs
// here and hand futures back to the caller; wait_idle() is the flush
// barrier. Tasks run in submission order (FIFO pop) but complete in any
// order across workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace xorec::runtime {

class TaskQueue {
 public:
  /// `threads` dedicated workers (clamped to >= 1).
  explicit TaskQueue(size_t threads);
  /// Drains the queue (every submitted task still runs), then joins.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  size_t threads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished (queued + executing) — the queue
  /// depth a service scheduler balances shards by. Exact at the instant of
  /// the lock; naturally stale the moment it returns.
  size_t depth() const;

  /// Enqueue fn; the future completes when it has run. An exception thrown
  /// by fn is captured in the future (wait_idle does not rethrow it).
  std::future<void> submit(std::function<void()> fn);

  /// Block until the queue is empty and no task is executing.
  void wait_idle();

 private:
  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_, cv_idle_;
  std::deque<std::packaged_task<void()>> queue_;
  size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace xorec::runtime
