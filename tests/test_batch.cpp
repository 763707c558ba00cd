// BatchCoder sessions and the runtime::TaskQueue underneath them. The
// headline test round-trips 64+ mixed encode/reconstruct jobs concurrently
// (the batch acceptance bar) and byte-verifies every stripe.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

#include "api/xorec.hpp"
#include "ec/object_codec.hpp"
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

// ---- BatchCoder ------------------------------------------------------------

namespace {

struct Stripe {
  std::vector<std::vector<uint8_t>> frags;  // n + p, encoded ground truth
  std::vector<const uint8_t*> data_ptrs;
  std::vector<uint8_t*> parity_ptrs;
};

Stripe make_stripe(const Codec& codec, size_t frag_len, uint32_t seed) {
  std::mt19937 rng(seed);
  Stripe s;
  s.frags.assign(codec.total_fragments(), std::vector<uint8_t>(frag_len));
  for (size_t i = 0; i < codec.data_fragments(); ++i)
    for (auto& b : s.frags[i]) b = static_cast<uint8_t>(rng());
  for (size_t i = 0; i < codec.data_fragments(); ++i)
    s.data_ptrs.push_back(s.frags[i].data());
  for (size_t i = 0; i < codec.parity_fragments(); ++i)
    s.parity_ptrs.push_back(s.frags[codec.data_fragments() + i].data());
  codec.encode(s.data_ptrs.data(), s.parity_ptrs.data(), frag_len);
  return s;
}

}  // namespace

TEST(BatchCoder, RoundTrips64MixedJobsConcurrently) {
  auto codec = std::shared_ptr<const Codec>(make_codec("rs(6,3)@block=512"));
  const size_t n = codec->data_fragments(), frag_len = codec->fragment_multiple() * 64;
  BatchCoder batch(codec, 4);
  EXPECT_EQ(batch.threads(), 4u);

  constexpr size_t kEncodes = 32, kRepairs = 32;
  // Encode jobs: ground truth computed inline first, parity zeroed, the
  // session must rebuild it bit-for-bit.
  std::vector<Stripe> enc(kEncodes);
  std::vector<std::vector<std::vector<uint8_t>>> truth(kEncodes);
  // Repair jobs: one data + one parity erasure, half through a shared plan,
  // half through the plan-less path.
  const std::vector<uint32_t> erased{0, static_cast<uint32_t>(n)};
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec->total_fragments(); ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end())
      available.push_back(id);
  const auto plan = codec->plan_reconstruct(available, erased);
  std::vector<Stripe> rep(kRepairs);
  std::vector<std::vector<const uint8_t*>> rep_avail(kRepairs);
  std::vector<std::vector<std::vector<uint8_t>>> rep_out(kRepairs);
  std::vector<std::vector<uint8_t*>> rep_out_ptrs(kRepairs);

  std::vector<runtime::TaskFuture> futs;
  for (size_t j = 0; j < kEncodes; ++j) {  // interleave the two job kinds
    {
      enc[j] = make_stripe(*codec, frag_len, static_cast<uint32_t>(j));
      for (size_t i = 0; i < codec->parity_fragments(); ++i) {
        truth[j].push_back(enc[j].frags[n + i]);
        std::fill(enc[j].frags[n + i].begin(), enc[j].frags[n + i].end(), 0);
      }
      futs.push_back(
          batch.submit_encode(enc[j].data_ptrs.data(), enc[j].parity_ptrs.data(), frag_len));
    }
    {
      rep[j] = make_stripe(*codec, frag_len, static_cast<uint32_t>(1000 + j));
      for (uint32_t id : available) rep_avail[j].push_back(rep[j].frags[id].data());
      rep_out[j].assign(erased.size(), std::vector<uint8_t>(frag_len));
      for (auto& o : rep_out[j]) rep_out_ptrs[j].push_back(o.data());
      if (j % 2 == 0)
        futs.push_back(batch.submit_reconstruct(plan, rep_avail[j].data(),
                                                rep_out_ptrs[j].data(), frag_len));
      else
        futs.push_back(batch.submit_reconstruct(available, rep_avail[j].data(), erased,
                                                rep_out_ptrs[j].data(), frag_len));
    }
  }
  EXPECT_EQ(batch.submitted(), kEncodes + kRepairs);
  batch.flush();
  for (auto& f : futs) ASSERT_NO_THROW(f.get());

  for (size_t j = 0; j < kEncodes; ++j)
    for (size_t i = 0; i < codec->parity_fragments(); ++i)
      ASSERT_EQ(enc[j].frags[n + i], truth[j][i]) << "encode stripe " << j;
  for (size_t j = 0; j < kRepairs; ++j)
    for (size_t i = 0; i < erased.size(); ++i)
      ASSERT_EQ(rep_out[j][i], rep[j].frags[erased[i]]) << "repair stripe " << j;
}

TEST(BatchCoder, SpecStringConstruction) {
  BatchCoder two("rs(5,2)@batch=2");
  EXPECT_EQ(two.threads(), 2u);
  EXPECT_EQ(two.codec().name(), "rs(5,2)");

  BatchCoder aut("rs(5,2)@block=512,batch=auto");
  EXPECT_GE(aut.threads(), 1u);

  // Codec options still apply alongside batch=.
  BatchCoder tuned("cauchy(5,2)@block=512,batch=3");
  EXPECT_EQ(tuned.threads(), 3u);
  EXPECT_EQ(tuned.codec().name(), "cauchy(5,2)");

  // batch= is a session key: plain make_codec must reject, not ignore it.
  EXPECT_THROW(make_codec("rs(5,2)@batch=2"), std::invalid_argument);
  EXPECT_THROW(BatchCoder("rs(5,2)@batch=0"), std::invalid_argument);
  EXPECT_THROW(BatchCoder("rs(5,2)@batch=many"), std::invalid_argument);
  EXPECT_THROW(BatchCoder(std::shared_ptr<const Codec>(), 2), std::invalid_argument);
}

TEST(BatchCoder, JobFailureArrivesThroughTheFuture) {
  auto codec = std::shared_ptr<const Codec>(make_codec("rs(4,2)"));
  BatchCoder batch(codec, 2);
  const size_t frag_len = codec->fragment_multiple() * 8;
  auto s = make_stripe(*codec, frag_len, 9);
  // Too few survivors: the plan-less job throws inside the worker.
  std::vector<const uint8_t*> avail{s.frags[0].data(), s.frags[1].data(),
                                    s.frags[2].data()};
  std::vector<uint8_t> out(frag_len);
  uint8_t* outp = out.data();
  auto fut = batch.submit_reconstruct({0, 1, 2}, avail.data(), {3}, &outp, frag_len);
  EXPECT_THROW(fut.get(), std::invalid_argument);
  batch.flush();  // session stays usable
  EXPECT_THROW(batch.submit_reconstruct(nullptr, avail.data(), &outp, frag_len),
               std::invalid_argument);
}

TEST(BatchCoder, ObjectCodecRoutesThroughTheSession) {
  auto codec = std::shared_ptr<const Codec>(make_codec("evenodd(4,2)"));
  ec::ObjectCodec blobs(codec);
  BatchCoder session(codec, 3);

  std::vector<uint8_t> blob(10000);
  std::mt19937 rng(17);
  for (auto& b : blob) b = static_cast<uint8_t>(rng());

  auto enc = blobs.encode(blob.data(), blob.size(), &session);
  auto plain = blobs.encode(blob.data(), blob.size());
  EXPECT_EQ(enc.fragments, plain.fragments);

  // Drop one data + one parity fragment; decode through the session.
  std::vector<std::vector<uint8_t>> survivors;
  for (size_t id = 0; id < enc.fragments.size(); ++id)
    if (id != 1 && id != 5) survivors.push_back(enc.fragments[id]);
  const auto dec = blobs.decode(survivors, &session);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, blob);

  const auto rebuilt = blobs.rebuild_all(survivors, &session);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->fragments, enc.fragments);

  // A session over a different codec instance is refused.
  auto other = std::shared_ptr<const Codec>(make_codec("evenodd(4,2)"));
  BatchCoder wrong(other, 1);
  EXPECT_THROW(blobs.decode(survivors, &wrong), std::invalid_argument);
}

TEST(BatchCoder, ManyStripesOverOnePlanByteIdentical) {
  // The acceptance shape end to end: one plan, >= 100 stripes, byte parity
  // with one-shot reconstruct, all through a concurrent session.
  auto codec = std::shared_ptr<const Codec>(make_codec("star(5)"));
  const size_t frag_len = codec->fragment_multiple() * 8;
  const std::vector<uint32_t> erased{0, 1};
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec->total_fragments(); ++id)
    if (id != 0 && id != 1) available.push_back(id);
  const auto plan = codec->plan_reconstruct(available, erased);

  BatchCoder batch(codec, 4);
  constexpr size_t kStripes = 120;
  std::vector<Stripe> stripes(kStripes);
  std::vector<std::vector<const uint8_t*>> avail(kStripes);
  std::vector<std::vector<std::vector<uint8_t>>> outs(kStripes);
  std::vector<std::vector<uint8_t*>> out_ptrs(kStripes);
  for (size_t s = 0; s < kStripes; ++s) {
    stripes[s] = make_stripe(*codec, frag_len, static_cast<uint32_t>(7000 + s));
    for (uint32_t id : available) avail[s].push_back(stripes[s].frags[id].data());
    outs[s].assign(erased.size(), std::vector<uint8_t>(frag_len));
    for (auto& o : outs[s]) out_ptrs[s].push_back(o.data());
    batch.submit_reconstruct(plan, avail[s].data(), out_ptrs[s].data(), frag_len);
  }
  batch.flush();
  for (size_t s = 0; s < kStripes; ++s)
    for (size_t i = 0; i < erased.size(); ++i)
      ASSERT_EQ(outs[s][i], stripes[s].frags[erased[i]]) << "stripe " << s;
}

TEST(BatchCoder, AutoWorkerCountIsMeasuredOnceAndMemoized) {
  // batch=auto runs a one-shot calibration sweep; the result is a sane
  // worker count, memoized for the process (two auto sessions agree).
  const size_t measured = auto_batch_workers();
  EXPECT_GE(measured, 1u);
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_LE(measured, hw);
  EXPECT_EQ(auto_batch_workers(), measured);  // memoized, not re-measured

  BatchCoder a("rs(4,2)@batch=auto");
  BatchCoder b(std::shared_ptr<const Codec>(make_codec("rs(4,2)")), 0);
  EXPECT_EQ(a.threads(), measured);
  EXPECT_EQ(b.threads(), measured);
}
