// CodecService concurrency stress: N threads hammer encode/reconstruct
// through mixed equivalent and distinct specs (the two new families
// included), then ServiceStats invariants are asserted — ops conservation
// across shards and pools, queue depths back to 0 after flush, equivalent
// spellings pooled, every future completing cleanly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "conformance/codec_conformance.hpp"
#include "ec/plan_cache.hpp"

using namespace xorec;
using namespace xorec::conformance;

namespace {

constexpr size_t kThreads = 8;
constexpr size_t kOpsPerThread = 24;

// Mixed traffic: distinct pools plus equivalent spellings of the same pool
// (whitespace / key order / trailing-default-arg variants must collapse).
const std::vector<std::string>& stress_specs() {
  static const std::vector<std::string> specs{
      "rs(6,3)",
      "rs(6, 3)",  // same pool as rs(6,3)
      "piggyback(6,3,2)",
      "piggyback(6,3)",  // same pool: sub defaults to 2
      "sparse(6,3,90,1)",
      "sparse(6,3,90,1)@block=2048",  // same pool: default block dropped
      "cauchy(5,2)",
      "lrc(6,2,2)",
  };
  return specs;
}

size_t distinct_canonical_count() {
  std::vector<std::string> keys;
  for (const std::string& s : stress_specs()) keys.push_back(canonical_spec(s));
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys.size();
}

}  // namespace

TEST(ServiceStress, ConcurrentMixedSpecTrafficKeepsStatsConsistent) {
  CodecService::Options opt;
  opt.shards = 3;
  opt.workers_per_shard = 2;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 4);
  CodecService service(opt);

  std::atomic<size_t> encodes{0}, reconstructs{0}, acquires{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      std::mt19937 rng(static_cast<uint32_t>(0x57E55 + tid));
      try {
        for (size_t op = 0; op < kOpsPerThread; ++op) {
          const std::string& spec = stress_specs()[rng() % stress_specs().size()];
          const ServiceHandle h = service.acquire(spec);
          acquires.fetch_add(1);
          const Codec& codec = h.codec();
          Stripe st = encoded_stripe(codec, static_cast<uint32_t>(rng()));

          // Re-encode the stripe through the shard queue.
          std::vector<const uint8_t*> data;
          std::vector<uint8_t*> parity;
          for (size_t f = 0; f < codec.data_fragments(); ++f)
            data.push_back(st.frags[f].data());
          for (size_t f = codec.data_fragments(); f < codec.total_fragments(); ++f)
            parity.push_back(st.frags[f].data());
          h.encode(data.data(), parity.data(), st.frag_len).get();
          encodes.fetch_add(1);

          // Repair one lost data block (every family guarantees that much).
          const uint32_t lost = rng() % static_cast<uint32_t>(codec.data_fragments());
          std::vector<uint32_t> available;
          std::vector<const uint8_t*> avail_ptrs;
          for (uint32_t id = 0; id < codec.total_fragments(); ++id)
            if (id != lost) {
              available.push_back(id);
              avail_ptrs.push_back(st.frags[id].data());
            }
          std::vector<uint8_t> out(st.frag_len, 0xCD);
          uint8_t* out_ptr = out.data();
          if (op % 2 == 0) {
            const auto plan = h.plan_reconstruct(available, {lost});
            h.reconstruct(plan, avail_ptrs.data(), &out_ptr, st.frag_len).get();
          } else {
            h.rebuild(available, avail_ptrs.data(), {lost}, &out_ptr, st.frag_len).get();
          }
          reconstructs.fetch_add(1);
          if (out != st.frags[lost]) {
            ADD_FAILURE() << spec << ": repaired bytes differ (thread " << tid << ")";
            failed.store(true);
            return;
          }
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "thread " << tid << " threw: " << e.what();
        failed.store(true);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  service.flush();
  const ServiceStats stats = service.stats();

  // Ops conservation: every routed job is accounted to exactly one shard
  // and one pool; nothing lost, nothing double-counted.
  size_t shard_jobs = 0, shard_depth = 0;
  for (const ShardStats& s : stats.shards) {
    shard_jobs += s.submitted;
    shard_depth += s.queue_depth;
  }
  size_t pool_encodes = 0, pool_reconstructs = 0, pool_clients = 0;
  for (const PoolStats& p : stats.pools) {
    pool_encodes += p.encodes;
    pool_reconstructs += p.reconstructs;
    pool_clients += p.clients;
  }
  EXPECT_EQ(pool_encodes, encodes.load());
  EXPECT_EQ(pool_reconstructs, reconstructs.load());
  EXPECT_EQ(shard_jobs, encodes.load() + reconstructs.load());
  EXPECT_EQ(pool_clients, acquires.load());

  // Queue depth returns to 0 after the flush barrier.
  EXPECT_EQ(shard_depth, 0u);

  // Equivalent spellings collapsed: one pool per canonical spec, and the
  // new families pooled with their default-arg spellings.
  EXPECT_EQ(stats.pools.size(), distinct_canonical_count());
  EXPECT_LT(distinct_canonical_count(), stress_specs().size());

  // Traffic actually moved bytes, and the plan cache saw the serving load.
  uint64_t bytes = 0;
  for (const ShardStats& s : stats.shards) bytes += s.bytes_coded;
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(stats.cache.hits + stats.cache.misses, 0u);
}

TEST(ServiceStress, FlushFromManyThreadsIsSafe) {
  CodecService::Options opt;
  opt.shards = 2;
  opt.workers_per_shard = 1;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  CodecService service(opt);
  const ServiceHandle h = service.acquire("piggyback(6,3,2)");
  const Stripe st = encoded_stripe(h.codec(), 0xF10C);

  std::vector<std::thread> threads;
  for (size_t tid = 0; tid < 4; ++tid) {
    threads.emplace_back([&] {
      std::vector<const uint8_t*> data;
      std::vector<std::vector<uint8_t>> parity_bufs(h.codec().parity_fragments(),
                                                    std::vector<uint8_t>(st.frag_len));
      std::vector<uint8_t*> parity;
      for (size_t f = 0; f < h.codec().data_fragments(); ++f)
        data.push_back(st.frags[f].data());
      for (auto& p : parity_bufs) parity.push_back(p.data());
      for (size_t i = 0; i < 8; ++i) {
        auto fut = h.encode(data.data(), parity.data(), st.frag_len);
        service.flush();  // must imply the job finished
        EXPECT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
        fut.get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  size_t depth = 0;
  for (const ShardStats& s : service.stats().shards) depth += s.queue_depth;
  EXPECT_EQ(depth, 0u);
}
