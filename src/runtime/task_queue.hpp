// FIFO task queue over dedicated worker threads: the library's one
// parallel path. A single coding call runs on one thread; this queue
// parallelizes *across* calls, one whole stripe per task.
//
// api/batch.hpp's BatchCoder sessions submit whole encode/reconstruct jobs
// here and hand TaskFutures back to the caller; wait_idle() is the flush
// barrier. Workers start tasks in submission order (FIFO pop); tasks
// complete in any order.
//
// Waiter runs: a thread that wait()s or get()s a task no worker has started
// yet claims it and runs it itself, instead of queueing behind the workers
// and paying two thread hand-offs. Whoever moves a task from queued to
// running runs it; a worker that pops a task a waiter already claimed skips
// it. So a waiter may start its own task ahead of the FIFO order, and
// parallelism is only ever added: workers never wait on callers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xorec::runtime {

class TaskQueue;

namespace detail {
struct TaskState;
}

/// The handle submit() returns: move-only, with std::future<void>'s surface.
/// wait() and get() run the task on the calling thread when no worker has
/// started it yet, and otherwise block until it finishes. wait_for never
/// runs the task, so wait_for(0) stays a poll.
class TaskFuture {
 public:
  TaskFuture() = default;
  TaskFuture(TaskFuture&&) noexcept = default;
  TaskFuture& operator=(TaskFuture&&) noexcept = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// Returns when the task has run (maybe here). Throws std::future_error
  /// (no_state) when !valid().
  void wait() const;
  std::future_status wait_for(std::chrono::nanoseconds timeout) const;
  /// wait(), then release the task and rethrow its exception, if any.
  void get();

 private:
  friend class TaskQueue;
  explicit TaskFuture(std::shared_ptr<detail::TaskState> s) : state_(std::move(s)) {}
  std::shared_ptr<detail::TaskState> state_;
};

class TaskQueue {
 public:
  /// `threads` dedicated workers (clamped to >= 1).
  explicit TaskQueue(size_t threads);
  /// Waits until every submitted task has run (on a worker or a waiter),
  /// then joins the workers.
  ~TaskQueue();

  TaskQueue(const TaskQueue&) = delete;
  TaskQueue& operator=(const TaskQueue&) = delete;

  size_t threads() const { return workers_.size(); }

  /// Tasks submitted but not yet finished, whoever runs them — the queue
  /// depth a service scheduler balances shards by. A task a waiter is
  /// running counts. Exact at the instant of the lock; naturally stale the
  /// moment it returns.
  size_t depth() const;

  /// Enqueue fn; the future completes when it has run. An exception thrown
  /// by fn is captured in the future (wait_idle does not rethrow it).
  TaskFuture submit(std::function<void()> fn);

  /// Block until every submitted task has finished, whoever runs it.
  void wait_idle();

 private:
  friend class TaskFuture;
  /// Run a task this thread claimed, publish its result, then count it
  /// finished.
  void run(detail::TaskState& t);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_, cv_idle_;
  std::deque<std::shared_ptr<detail::TaskState>> queue_;
  size_t pending_ = 0;  // submitted, not finished
  bool stop_ = false;
};

}  // namespace xorec::runtime
