// FIFO task queue over dedicated worker threads: the library's one
// parallel path. Each task is one whole coding call (a stripe); a large
// call may also fan its block rows out across the queue's idle workers
// through run_parts().
//
// Each CodecService shard (api/service.hpp) is one queue: its ServiceHandle
// calls submit whole encode/reconstruct jobs here and hand TaskFutures back
// to the caller; wait_idle() is the flush barrier. Workers start tasks in
// submission order (FIFO pop); tasks complete in any order.
//
// Waiter runs: a thread that wait()s or get()s a task no worker has started
// yet claims it and runs it itself, instead of queueing behind the workers
// and paying two thread hand-offs. Whoever moves a task from queued to
// running runs it; a worker that pops a task a waiter already claimed skips
// it. So a waiter may start its own task ahead of the FIFO order, and
// parallelism is only ever added: workers never wait on callers.
//
// Parts: a task that calls run_parts() (runtime/executor.cpp does, for a
// stripe of at least 2 × kMinSplitRows block rows) runs the parts itself,
// claiming them one at a time from a shared cursor, and submits up to
// min(threads(), parts − 1) helper tasks that claim from the same cursor.
// A helper a worker picks up runs parts in parallel; once the cursor is
// spent, the task get()s each helper. By the waiter-runs rule a helper no
// worker started is claimed there and finds nothing left to do, so the task
// only ever waits for parts already in flight, never for a worker to free
// up: on a busy queue a split costs one no-op task per helper. Helpers are
// not jobs: depth() and wait_idle() do not count them, and each one has
// finished before the task that submitted it does.
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
  /// running counts; run_parts() helpers do not. Exact at the instant of
  /// the lock; naturally stale the moment it returns.
  size_t depth() const;

  /// Enqueue fn; the future completes when it has run. An exception thrown
  /// by fn is captured in the future (wait_idle does not rethrow it).
  TaskFuture submit(std::function<void()> fn);

  /// Block until every submitted task has finished, whoever runs it.
  void wait_idle();

  /// The queue whose task this thread is running (on a worker, or as a
  /// waiter that claimed it), or nullptr outside any task.
  static TaskQueue* current();

  /// Run body(0) … body(parts − 1), each once, and return when all have
  /// finished: this thread and up to min(threads(), parts − 1) helper tasks
  /// claim parts from a shared cursor (see the note at the top of this
  /// file). The first exception a part throws is rethrown here after every
  /// started part has finished; parts not yet claimed then never run.
  void run_parts(size_t parts, const std::function<void(size_t)>& body);

 private:
  friend class TaskFuture;
  /// Queue fn; `job` tasks count in depth() and wait_idle(), helpers not.
  TaskFuture enqueue(std::function<void()> fn, bool job);
  /// Run a task this thread claimed with current() set to this queue,
  /// then publish its result and, for a job, count it finished in the same
  /// step under mu_.
  void run(detail::TaskState& t);

  std::vector<std::thread> workers_;
  mutable std::mutex mu_;
  std::condition_variable cv_work_, cv_idle_;
  std::deque<std::shared_ptr<detail::TaskState>> queue_;
  size_t pending_ = 0;  // jobs submitted, not finished
  bool stop_ = false;
};

}  // namespace xorec::runtime
