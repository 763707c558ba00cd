// runtime::TaskQueue, the worker queue under every CodecService shard:
// FIFO starts, waiter-run claims, depth()/wait_idle() accounting and
// run_parts() helpers. The byte-checking service-level tests live in
// test_service.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/task_queue.hpp"

using namespace xorec;

// ---- TaskQueue -------------------------------------------------------------

TEST(TaskQueue, RunsEverySubmittedTask) {
  runtime::TaskQueue q(4);
  std::atomic<int> count{0};
  std::vector<runtime::TaskFuture> futs;
  for (int i = 0; i < 100; ++i) futs.push_back(q.submit([&] { ++count; }));
  q.wait_idle();
  EXPECT_EQ(count.load(), 100);
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
}

TEST(TaskQueue, FutureCarriesTheException) {
  runtime::TaskQueue q(2);
  auto ok = q.submit([] {});
  auto bad = q.submit([] { throw std::runtime_error("job failed"); });
  EXPECT_NO_THROW(ok.get());
  EXPECT_THROW(bad.get(), std::runtime_error);
  q.wait_idle();  // the failure must not wedge the queue
  auto after = q.submit([] {});
  EXPECT_NO_THROW(after.get());
}

TEST(TaskQueue, DestructorDrainsTheQueue) {
  std::atomic<int> count{0};
  {
    runtime::TaskQueue q(2);
    for (int i = 0; i < 50; ++i) q.submit([&] { ++count; });
  }  // destructor: drain, then join
  EXPECT_EQ(count.load(), 50);
}

TEST(TaskQueue, ZeroThreadsClampsToOne) {
  runtime::TaskQueue q(0);
  EXPECT_EQ(q.threads(), 1u);
  auto f = q.submit([] {});
  EXPECT_NO_THROW(f.get());
}

namespace {

/// A latch that queued tasks block on. release() opens it; a fallback timer
/// opens it after 2 s anyway, so a queue whose waiters cannot run their own
/// task fails these tests instead of hanging them. Declare it before the
/// TaskQueue so it outlives every task that waits on it.
class Gate {
 public:
  Gate()
      : timer_([this] {
          std::unique_lock lk(mu_);
          cv_.wait_for(lk, std::chrono::seconds(2), [&] { return open_; });
          open_ = true;
          cv_.notify_all();
        }) {}
  ~Gate() {
    release();
    timer_.join();
  }
  void release() {
    {
      std::lock_guard lk(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return open_; });
  }
  bool is_open() const {
    std::lock_guard lk(mu_);
    return open_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::thread timer_;  // last: starts after the state it waits on
};

/// Spin until `flag` is set or 2 s pass; returns the flag.
bool eventually(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  return flag.load();
}

}  // namespace

TEST(TaskQueue, WaiterRunsItsOwnUnstartedTask) {
  Gate gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false};
  auto hold = q.submit([&] {
    holding = true;
    gate.wait();  // the only worker is busy until the gate opens
  });
  ASSERT_TRUE(eventually(holding));

  std::thread::id ran_on;
  bool gate_was_open = true;
  auto own = q.submit([&] {
    ran_on = std::this_thread::get_id();
    gate_was_open = gate.is_open();
  });
  own.get();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(gate_was_open) << "the task waited for the busy worker";
  gate.release();
  hold.get();
}

TEST(TaskQueue, ClaimedTaskCountsInDepthAndFlush) {
  Gate worker_gate, waiter_gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false}, claimed{false}, flushed{false};
  auto hold = q.submit([&] {
    holding = true;
    worker_gate.wait();
  });
  ASSERT_TRUE(eventually(holding));

  auto job = q.submit([&] {
    claimed = true;
    waiter_gate.wait();
  });
  std::thread waiter([&] { job.get(); });
  EXPECT_TRUE(eventually(claimed)) << "the waiter did not start its task";
  worker_gate.release();
  hold.wait();  // the worker is idle again; only the waiter's task is left

  EXPECT_EQ(q.depth(), 1u);
  std::thread flusher([&] {
    q.wait_idle();
    flushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(flushed.load()) << "wait_idle returned while a waiter ran a task";
  EXPECT_EQ(q.depth(), 1u);

  waiter_gate.release();
  waiter.join();
  flusher.join();
  EXPECT_TRUE(flushed.load());
  EXPECT_EQ(q.depth(), 0u);
}

TEST(TaskQueue, WaitForZeroNeverRunsTheTask) {
  Gate gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false}, ran{false};
  auto hold = q.submit([&] {
    holding = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually(holding));

  std::thread::id ran_on;
  auto job = q.submit([&] {
    ran_on = std::this_thread::get_id();
    ran = true;
  });
  EXPECT_EQ(job.wait_for(std::chrono::seconds(0)), std::future_status::timeout);
  EXPECT_EQ(job.wait_for(std::chrono::milliseconds(20)), std::future_status::timeout);
  EXPECT_FALSE(ran.load());
  // wait_for left the task unstarted, so get() still runs it right here.
  job.get();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(gate.is_open());
  gate.release();
  hold.get();
}

TEST(TaskQueue, WaiterRunTaskRethrowsAndTheQueueStaysUsable) {
  Gate gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false};
  auto hold = q.submit([&] {
    holding = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually(holding));

  std::thread::id ran_on;
  auto bad = q.submit([&] {
    ran_on = std::this_thread::get_id();
    throw std::runtime_error("job failed");
  });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_FALSE(bad.valid());
  gate.release();
  hold.get();

  q.wait_idle();  // the failure must not wedge the queue or its count
  EXPECT_EQ(q.depth(), 0u);
  std::atomic<int> count{0};
  std::vector<runtime::TaskFuture> futs;
  for (int i = 0; i < 20; ++i) futs.push_back(q.submit([&] { ++count; }));
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(TaskQueue, WaiterRunExceptionIsFreedByTheThreadThatCaughtIt) {
  // A waiter runs the failing job; the worker pops the claimed entry only
  // after the waiter's handler is done, and drops the task state there. The
  // exception must not live on in that state: freed on the worker, it is
  // ordered after the handler's reads only through libstdc++'s refcount,
  // which ThreadSanitizer cannot see (a report under NetServer's loop).
  struct Tracked : std::runtime_error {
    explicit Tracked(std::atomic<std::thread::id>* freed_on)
        : std::runtime_error("job failed"), freed_on(freed_on) {}
    ~Tracked() override { freed_on->store(std::this_thread::get_id()); }
    std::atomic<std::thread::id>* freed_on;
  };
  std::atomic<std::thread::id> freed_on{};
  Gate gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false};
  auto hold = q.submit([&] {
    holding = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually(holding));

  auto bad = q.submit([&] { throw Tracked(&freed_on); });
  try {
    bad.get();
    ADD_FAILURE() << "the job's exception was lost";
  } catch (const Tracked& e) {
    EXPECT_STREQ(e.what(), "job failed");
  }
  EXPECT_EQ(freed_on.load(), std::this_thread::get_id());

  // The worker pops the claimed entry before it runs this one.
  std::atomic<bool> after{false};
  auto next = q.submit([&] { after = true; });
  gate.release();
  ASSERT_TRUE(eventually(after));
  hold.get();
  next.get();
  EXPECT_EQ(freed_on.load(), std::this_thread::get_id());
}

TEST(TaskQueue, DestructorWaitsForAWaiterRunTask) {
  Gate worker_gate, waiter_gate;
  std::atomic<bool> holding{false}, claimed{false}, finished{false};
  std::thread waiter, opener;
  {
    runtime::TaskQueue q(1);
    auto hold = q.submit([&] {
      holding = true;
      worker_gate.wait();
    });
    ASSERT_TRUE(eventually(holding));
    auto job = q.submit([&] {
      claimed = true;
      waiter_gate.wait();
      finished = true;
    });
    waiter = std::thread([job = std::move(job)]() mutable { job.get(); });
    EXPECT_TRUE(eventually(claimed));
    worker_gate.release();
    opener = std::thread([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      waiter_gate.release();
    });
  }  // ~TaskQueue: must not return before the waiter's task finished
  EXPECT_TRUE(finished.load());
  waiter.join();
  opener.join();
}

TEST(TaskQueue, WorkerRunJobLeavesDepthBeforeItsFutureReadsReady) {
  // wait_for never runs a task, so every job here runs on the worker; the
  // moment its future reads ready, depth() must no longer count it. A
  // second reader contends for the queue lock, which widens the window in
  // which a worker that published done first still counts the job.
  runtime::TaskQueue q(1);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop) (void)q.depth();
  });
  size_t counted_after_ready = 0;
  for (int i = 0; i < 10000; ++i) {
    auto job = q.submit([] {});
    while (job.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    }
    if (q.depth() != 0) ++counted_after_ready;
    job.get();
  }
  stop = true;
  reader.join();
  EXPECT_EQ(counted_after_ready, 0u);
}

TEST(TaskQueue, IdleQueueMeansEveryFutureReadsReady) {
  // The converse direction: once depth() reads 0 or wait_idle() returns,
  // every job's future reads ready. Spinning on depth() takes the queue
  // lock the moment the worker drops it, which exposes a worker that
  // leaves pending_ before it publishes done.
  runtime::TaskQueue q(1);
  size_t not_ready_when_idle = 0;
  for (int i = 0; i < 10000; ++i) {
    auto job = q.submit([] {});
    if (i % 2 == 0) {
      while (q.depth() != 0) {
      }
    } else {
      q.wait_idle();
    }
    if (job.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
      ++not_ready_when_idle;
    job.get();
  }
  EXPECT_EQ(not_ready_when_idle, 0u);
}

TEST(TaskQueue, CurrentNamesTheQueueOfTheRunningTask) {
  EXPECT_EQ(runtime::TaskQueue::current(), nullptr);
  runtime::TaskQueue a(1), b(1);
  runtime::TaskQueue* seen_a = nullptr;
  runtime::TaskQueue* seen_inner = nullptr;
  runtime::TaskQueue* seen_after = nullptr;
  a.submit([&] {
     seen_a = runtime::TaskQueue::current();
     b.submit([&] { seen_inner = runtime::TaskQueue::current(); }).get();
     seen_after = runtime::TaskQueue::current();
   }).get();
  EXPECT_EQ(seen_a, &a);
  EXPECT_EQ(seen_inner, &b);
  EXPECT_EQ(seen_after, &a) << "a nested task must restore the outer queue";
  EXPECT_EQ(runtime::TaskQueue::current(), nullptr);
}

TEST(TaskQueue, RunPartsRunsEveryPartOnce) {
  runtime::TaskQueue q(3);
  for (size_t parts : {0, 1, 2, 7, 64}) {
    SCOPED_TRACE(parts);
    std::vector<std::atomic<int>> hits(parts);
    q.submit([&] { q.run_parts(parts, [&](size_t p) { ++hits[p]; }); }).get();
    for (size_t p = 0; p < parts; ++p) EXPECT_EQ(hits[p].load(), 1) << "part " << p;
  }
  q.wait_idle();
  EXPECT_EQ(q.depth(), 0u);
}

TEST(TaskQueue, RunPartsExceptionReachesTheJobFuture) {
  runtime::TaskQueue q(2);
  std::atomic<int> ran{0};
  auto job = q.submit([&] {
    q.run_parts(16, [&](size_t p) {
      if (p == 3) throw std::runtime_error("part failed");
      ++ran;
    });
  });
  EXPECT_THROW(job.get(), std::runtime_error);
  EXPECT_LE(ran.load(), 15);

  q.wait_idle();  // the failure must not wedge the queue or its count
  EXPECT_EQ(q.depth(), 0u);
  std::atomic<int> count{0};
  std::vector<runtime::TaskFuture> futs;
  for (int i = 0; i < 20; ++i)
    futs.push_back(q.submit([&] { q.run_parts(4, [&](size_t) { ++count; }); }));
  for (auto& f : futs) EXPECT_NO_THROW(f.get());
  EXPECT_EQ(count.load(), 80);
  q.wait_idle();  // a worker's job counts until it ends, just after get() returns
  EXPECT_EQ(q.depth(), 0u);
}

TEST(TaskQueue, RunPartsHelpersAreNotCountedAsJobs) {
  Gate gate;
  runtime::TaskQueue q(1);
  std::atomic<bool> holding{false};
  auto hold = q.submit([&] {
    holding = true;
    gate.wait();
  });
  ASSERT_TRUE(eventually(holding));
  // The worker is held, so this thread runs the job and its helper stays
  // queued for the whole run: depth() must still count two jobs.
  std::vector<size_t> depths;
  q.submit([&] { q.run_parts(4, [&](size_t) { depths.push_back(q.depth()); }); }).get();
  EXPECT_EQ(depths, std::vector<size_t>(4, 2u));
  gate.release();
  hold.get();
  q.wait_idle();
  EXPECT_EQ(q.depth(), 0u);
}
