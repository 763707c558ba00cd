#include "runtime/task_queue.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <new>
#include <utility>

namespace xorec::runtime {

namespace detail {

/// One submitted task, shared by the queue entry and the caller's future.
/// The phase moves queued -> running -> done; the thread that wins the
/// queued -> running step runs the task.
struct TaskState {
  enum Phase : int { kQueued, kRunning, kDone };

  TaskState(std::function<void()> f, TaskQueue* q, bool j)
      : fn(std::move(f)), queue(q), job(j) {}

  bool claim() {
    int expected = kQueued;
    return phase.compare_exchange_strong(expected, kRunning, std::memory_order_acq_rel);
  }
  bool done() const { return phase.load(std::memory_order_acquire) == kDone; }

  std::function<void()> fn;
  TaskQueue* queue;  // live until the task has run: ~TaskQueue waits for that
  bool job;          // counts in pending_ (a run_parts helper does not)
  std::atomic<int> phase{kQueued};
  std::exception_ptr error;  // written by the runner before phase = kDone
  std::mutex mu;             // pairs with cv for waiters on a running task
  std::condition_variable cv;
};

}  // namespace detail

using detail::TaskState;

namespace {
thread_local TaskQueue* t_current = nullptr;
}

// ---- TaskFuture -------------------------------------------------------------

void TaskFuture::wait() const {
  if (!state_) throw std::future_error(std::future_errc::no_state);
  TaskState& t = *state_;
  if (t.claim()) {
    t.queue->run(t);
    return;
  }
  std::unique_lock lk(t.mu);
  t.cv.wait(lk, [&] { return t.done(); });
}

std::future_status TaskFuture::wait_for(std::chrono::nanoseconds timeout) const {
  if (!state_) throw std::future_error(std::future_errc::no_state);
  TaskState& t = *state_;
  if (t.done()) return std::future_status::ready;
  std::unique_lock lk(t.mu);
  return t.cv.wait_for(lk, timeout, [&] { return t.done(); }) ? std::future_status::ready
                                                               : std::future_status::timeout;
}

void TaskFuture::get() {
  wait();
  const std::shared_ptr<TaskState> t = std::move(state_);
  if (t->error) std::rethrow_exception(t->error);
}

// ---- TaskQueue --------------------------------------------------------------

TaskQueue::TaskQueue(size_t threads) {
  const size_t n = std::max<size_t>(threads, 1);
  workers_.reserve(n);
  for (size_t w = 0; w < n; ++w) {
    workers_.emplace_back([this] {
      for (;;) {
        std::shared_ptr<TaskState> t;
        {
          std::unique_lock lk(mu_);
          cv_work_.wait(lk, [&] { return stop_ || !queue_.empty(); });
          if (queue_.empty()) return;  // stop_ && drained
          t = std::move(queue_.front());
          queue_.pop_front();
        }
        if (t->claim()) run(*t);  // else a waiter already runs it
      }
    });
  }
}

TaskQueue::~TaskQueue() {
  {
    std::unique_lock lk(mu_);
    cv_idle_.wait(lk, [&] { return pending_ == 0; });
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : workers_) t.join();
}

void TaskQueue::run(TaskState& t) {
  TaskQueue* const outer = std::exchange(t_current, this);
  try {
    t.fn();
  } catch (...) {
    t.error = std::current_exception();
  }
  t_current = outer;
  t.fn = nullptr;  // release the task's captures before anyone sees it done
  const auto publish = [&t] {
    std::lock_guard lk(t.mu);
    t.phase.store(TaskState::kDone, std::memory_order_release);
  };
  if (t.job) {
    // A job reads done and leaves pending_ in one step under mu_: a future
    // that reads ready is not counted in depth(), and depth() == 0 or
    // wait_idle() means every job's future reads ready.
    std::lock_guard lk(mu_);  // notify under the lock: ~TaskQueue may be waiting
    publish();
    if (--pending_ == 0) cv_idle_.notify_all();
  } else {
    publish();
  }
  // From here ~TaskQueue may be running: touch only the task, never the queue.
  t.cv.notify_all();
}

TaskFuture TaskQueue::enqueue(std::function<void()> fn, bool job) {
  auto t = std::make_shared<TaskState>(std::move(fn), this, job);
  {
    std::lock_guard lk(mu_);
    queue_.push_back(t);
    if (job) ++pending_;
  }
  cv_work_.notify_one();
  return TaskFuture(std::move(t));
}

TaskFuture TaskQueue::submit(std::function<void()> fn) { return enqueue(std::move(fn), true); }

TaskQueue* TaskQueue::current() { return t_current; }

void TaskQueue::run_parts(size_t parts, const std::function<void(size_t)>& body) {
  std::atomic<size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto drain = [&] {
    for (size_t p; (p = next++) < parts;) {
      try {
        body(p);
      } catch (...) {
        std::lock_guard lk(error_mu);
        if (!error) error = std::current_exception();
        next = parts;  // claim no further parts
      }
    }
  };

  const size_t want = parts > 1 ? std::min(threads(), parts - 1) : 0;
  std::vector<TaskFuture> helpers;
  helpers.reserve(want);
  try {
    while (helpers.size() < want) helpers.push_back(enqueue([&drain] { drain(); }, false));
  } catch (const std::bad_alloc&) {
    // Run with the helpers already queued; this thread drains every part anyway.
  }
  drain();
  // Each helper is unstarted (claimed here: it finds the cursor spent) or
  // draining on a worker; either way it is done before this frame unwinds.
  for (TaskFuture& h : helpers) h.wait();
  if (error) std::rethrow_exception(error);
}

size_t TaskQueue::depth() const {
  std::lock_guard lk(mu_);
  return pending_;
}

void TaskQueue::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [&] { return pending_ == 0; });
}

}  // namespace xorec::runtime
