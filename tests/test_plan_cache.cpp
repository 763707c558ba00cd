// The plan-compilation service (ec::PlanCache): process-shared reuse across
// codec instances, private-cache isolation, LRU eviction order and stats,
// concurrent get_or_build consistency, and the finished-plan entries that
// share its LRU with the compiled programs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "altcodes/sparse.hpp"
#include "altcodes/xor_code.hpp"
#include "api/xorec.hpp"
#include "ec/plan_cache.hpp"
#include "ec/rs_codec.hpp"

using namespace xorec;

namespace {

/// Smallest compilable artifact: a 1x1 copy SLP.
std::shared_ptr<ec::CompiledProgram> tiny_program() {
  bitmatrix::BitMatrix m(1, 1);
  m.set(0, 0, true);
  return std::make_shared<ec::CompiledProgram>(slp::optimize(m, {}, "tiny"),
                                               runtime::ExecOptions{});
}

ec::PlanKey key_of(uint32_t i, uint64_t matrix_fp = 1, uint64_t config_fp = 2) {
  return {matrix_fp, ~matrix_fp, config_fp, {i}};
}

std::vector<uint32_t> all_but(const Codec& codec, const std::vector<uint32_t>& erased) {
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec.total_fragments(); ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end())
      available.push_back(id);
  return available;
}

/// One encoded stripe of random data, and what a plan rebuilds from it.
struct Stripe {
  const Codec& codec;
  size_t frag_len;
  std::vector<std::vector<uint8_t>> frags;

  explicit Stripe(const Codec& c, uint32_t seed = 7)
      : codec(c),
        frag_len(c.fragment_multiple() * 64),
        frags(c.total_fragments(), std::vector<uint8_t>(frag_len)) {
    std::mt19937 rng(seed);
    std::vector<const uint8_t*> data;
    std::vector<uint8_t*> parity;
    for (size_t i = 0; i < c.data_fragments(); ++i) {
      for (auto& v : frags[i]) v = static_cast<uint8_t>(rng());
      data.push_back(frags[i].data());
    }
    for (size_t i = c.data_fragments(); i < c.total_fragments(); ++i)
      parity.push_back(frags[i].data());
    c.encode(data.data(), parity.data(), frag_len);
  }

  /// The fragments `plan` rebuilds, parallel to plan.erased().
  std::vector<std::vector<uint8_t>> rebuild(const ReconstructPlan& plan) const {
    std::vector<const uint8_t*> in;
    for (uint32_t id : plan.available()) in.push_back(frags[id].data());
    std::vector<std::vector<uint8_t>> out(plan.erased().size(),
                                          std::vector<uint8_t>(frag_len, 0xEE));
    std::vector<uint8_t*> outp;
    for (auto& o : out) outp.push_back(o.data());
    plan.execute(in.data(), outp.data(), frag_len);
    return out;
  }
  std::vector<std::vector<uint8_t>> originals(const std::vector<uint32_t>& ids) const {
    std::vector<std::vector<uint8_t>> v;
    for (uint32_t id : ids) v.push_back(frags[id]);
    return v;
  }
};

}  // namespace

// ---- the acceptance shape: one compile serves every codec instance ---------

TEST(PlanCache, SharedAcrossCodecInstances) {
  // Start from an empty shared cache, so the first rs(9,3) below compiles
  // even when an earlier test or --gtest_repeat iteration already did.
  // Counters keep accumulating across clear(); each check is a delta.
  ec::PlanCache::process_shared()->clear();
  const CacheStats s0 = plan_cache_stats();
  EXPECT_TRUE(s0.shared);

  const auto a = make_codec("rs(9,3)");
  const CacheStats s1 = plan_cache_stats();
  EXPECT_GE(s1.misses, s0.misses + 1);  // encoder compiled once

  const auto b = make_codec("rs(9,3)");
  const CacheStats s2 = plan_cache_stats();
  EXPECT_EQ(s2.misses, s1.misses);      // second instance: encoder is a hit
  EXPECT_GE(s2.hits, s1.hits + 1);

  const std::vector<uint32_t> erased{2};
  const auto available = all_but(*a, erased);
  const auto plan_a = a->plan_reconstruct(available, erased);
  const CacheStats s3 = plan_cache_stats();
  EXPECT_GT(s3.misses, s2.misses);      // decode program compiled once...

  const auto plan_b = b->plan_reconstruct(available, erased);
  const CacheStats s4 = plan_cache_stats();
  EXPECT_EQ(s4.misses, s3.misses);      // ...and reused by the other instance
  EXPECT_GE(s4.hits, s3.hits + 1);
  EXPECT_GT(s4.compile_ns, 0u);
  EXPECT_GT(s4.entries, 0u);

  // The codec's view is the shared instance's own counters; the global
  // accessor aggregates every live cache, so it can only report more.
  const CacheStats via_codec = a->cache_stats();
  EXPECT_TRUE(via_codec.shared);
  const CacheStats shared_view = ec::PlanCache::process_shared()->stats();
  EXPECT_EQ(via_codec.hits, shared_view.hits);
  EXPECT_EQ(via_codec.misses, shared_view.misses);
  EXPECT_GE(s4.hits, shared_view.hits);
  EXPECT_GE(s4.misses, shared_view.misses);

  // The shared programs decode correctly through either plan.
  const size_t frag_len = a->fragment_multiple() * 16;
  std::mt19937 rng(41);
  std::vector<std::vector<uint8_t>> frags(a->total_fragments(),
                                          std::vector<uint8_t>(frag_len));
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < a->data_fragments(); ++i) {
    for (auto& v : frags[i]) v = static_cast<uint8_t>(rng());
    data.push_back(frags[i].data());
  }
  for (size_t i = a->data_fragments(); i < a->total_fragments(); ++i)
    parity.push_back(frags[i].data());
  a->encode(data.data(), parity.data(), frag_len);

  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());
  for (const auto& plan : {plan_a, plan_b}) {
    std::vector<uint8_t> out(frag_len, 0xEE);
    uint8_t* outp = out.data();
    plan->execute(avail_ptrs.data(), &outp, frag_len);
    EXPECT_EQ(out, frags[2]);
  }
}

TEST(PlanCache, PrivateCountersAreScopedButAggregated) {
  // Counters are per PlanCache instance: a private codec's compiles must
  // not pollute the shared service's hit-rate view...
  const CacheStats shared_before = ec::PlanCache::process_shared()->stats();
  const CacheStats all_before = plan_cache_stats();
  const auto codec = make_codec("rs(8,2)@cache=private");
  const std::vector<uint32_t> erased{1};
  (void)codec->plan_reconstruct(all_but(*codec, erased), erased);
  const CacheStats shared_after = ec::PlanCache::process_shared()->stats();
  EXPECT_EQ(shared_after.misses, shared_before.misses);
  EXPECT_EQ(shared_after.hits, shared_before.hits);

  const CacheStats own = codec->cache_stats();
  EXPECT_FALSE(own.shared);
  EXPECT_GE(own.misses, 2u);  // encoder + decode program

  // ...while the global accessor sums every live instance, private included.
  const CacheStats all_after = plan_cache_stats();
  EXPECT_TRUE(all_after.shared);
  EXPECT_GE(all_after.misses, all_before.misses + own.misses);
}

TEST(PlanCache, ExplicitCapacityImpliesPrivate) {
  const auto codec = make_codec("rs(6,2)@cache=8");
  EXPECT_FALSE(codec->cache_stats().shared);
}

// ---- LRU eviction order and counters ---------------------------------------

TEST(PlanCache, EvictionFollowsLruOrder) {
  ec::PlanCache cache(2, /*shards=*/1);
  size_t builds = 0;
  const auto build = [&] {
    ++builds;
    return tiny_program();
  };

  cache.get_or_build(key_of(0), build);  // miss
  cache.get_or_build(key_of(1), build);  // miss
  cache.get_or_build(key_of(0), build);  // hit — 0 becomes MRU, 1 is LRU
  cache.get_or_build(key_of(2), build);  // miss — evicts 1, not 0
  EXPECT_EQ(builds, 3u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  cache.get_or_build(key_of(0), build);  // survived
  EXPECT_EQ(builds, 3u);
  cache.get_or_build(key_of(1), build);  // was evicted: rebuilt
  EXPECT_EQ(builds, 4u);

  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 4u);
  EXPECT_FALSE(s.shared);
}

TEST(PlanCache, EvictedProgramsStayAliveWhileReferenced) {
  ec::PlanCache cache(1, 1);
  const auto held = cache.get_or_build(key_of(7), tiny_program);
  cache.get_or_build(key_of(8), tiny_program);  // evicts key 7
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(held, nullptr);  // shared ownership keeps the program valid
  EXPECT_GE(held->pipeline.base.body.size(), 1u);
}

TEST(PlanCache, SizeForScopesToOneCodecIdentity) {
  ec::PlanCache cache(0, 4);
  cache.get_or_build(key_of(0, /*matrix_fp=*/10, /*config_fp=*/1), tiny_program);
  cache.get_or_build(key_of(1, 10, 1), tiny_program);
  cache.get_or_build(key_of(0, 20, 1), tiny_program);  // other codec identity
  cache.get_or_build(key_of(0, 10, 2), tiny_program);  // other config
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.size_for(10, 1), 2u);
  EXPECT_EQ(cache.size_for(20, 1), 1u);
  EXPECT_EQ(cache.size_for(10, 2), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, GreedyCapacityKeysOnlyGreedySchedules) {
  // A dfs codec never reads greedy_capacity, so a codec that differs only
  // in it (bench_common.hpp's stage_options sets 32 KiB / B) must reuse the
  // compiled encoder instead of compiling it again.
  ec::CodecOptions opt;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  const ec::RsCodec plain(10, 4, opt);
  opt.pipeline.greedy_capacity = 16;
  const ec::RsCodec capped(10, 4, opt);
  const CacheStats s = opt.plan_cache->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  // Under sched=greedy the capacity shapes the program, so it stays keyed.
  EXPECT_NE(ec::PlanCache::fingerprint_config({.schedule = slp::ScheduleKind::Greedy,
                                               .greedy_capacity = 8},
                                              {}),
            ec::PlanCache::fingerprint_config({.schedule = slp::ScheduleKind::Greedy,
                                               .greedy_capacity = 16},
                                              {}));
}

// ---- concurrency ------------------------------------------------------------

TEST(PlanCache, ConcurrentGetOrBuildIsConsistent) {
  ec::PlanCache cache(0, ec::PlanCache::kDefaultShards);
  constexpr size_t kThreads = 8, kKeys = 24, kRounds = 40;
  std::atomic<size_t> builds{0};
  std::atomic<bool> null_seen{false};

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t));
      for (size_t r = 0; r < kRounds; ++r) {
        const uint32_t k = static_cast<uint32_t>(rng() % kKeys);
        const auto p = cache.get_or_build(key_of(k), [&] {
          ++builds;
          return tiny_program();
        });
        if (!p) null_seen = true;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_FALSE(null_seen.load());
  EXPECT_EQ(cache.size(), kKeys);  // racing builders still insert once
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.hits + s.misses, kThreads * kRounds);
  EXPECT_EQ(s.misses, builds.load());
  EXPECT_GE(s.misses, kKeys);
}

// ---- finished plans ---------------------------------------------------------

TEST(PlanCache, WarmPlanLookupReturnsTheCachedPlanAndCountsOneHit) {
  ec::CodecOptions opt;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  const ec::RsCodec codec(10, 4, opt);
  const std::vector<uint32_t> erased{2, 4, 5, 6};
  const auto available = all_but(codec, erased);

  const CacheStats s0 = codec.cache_stats();
  const auto plan = codec.plan_reconstruct(available, erased);
  const CacheStats s1 = codec.cache_stats();
  EXPECT_EQ(s1.misses, s0.misses + 1);  // the decoder; assembling the plan is no compile
  EXPECT_EQ(s1.hits, s0.hits);
  EXPECT_EQ(s1.entries, s0.entries + 2);  // decoder + plan
  EXPECT_EQ(codec.cached_program_count(), 2u);  // encoder + decoder: plans are not programs

  EXPECT_EQ(codec.plan_reconstruct(available, erased).get(), plan.get());
  const CacheStats s2 = codec.cache_stats();
  EXPECT_EQ(s2.hits, s1.hits + 1);  // one plan hit, no nested program lookup
  EXPECT_EQ(s2.misses, s1.misses);
  EXPECT_EQ(s2.compile_ns, s1.compile_ns);

  // Another id order is another plan (execute() takes buffers in that
  // order) over the same decoder: a plan miss, a program hit.
  std::vector<uint32_t> reversed(available.rbegin(), available.rend());
  const auto other = codec.plan_reconstruct(reversed, erased);
  const CacheStats s3 = codec.cache_stats();
  EXPECT_NE(other.get(), plan.get());
  EXPECT_EQ(other->decode_pipeline(), plan->decode_pipeline());
  EXPECT_EQ(s3.misses, s2.misses);
  EXPECT_EQ(s3.compile_ns, s2.compile_ns);
  EXPECT_EQ(s3.hits, s2.hits + 1);
  EXPECT_EQ(other->available(), reversed);
  const Stripe stripe(codec);
  EXPECT_EQ(stripe.rebuild(*other), stripe.originals(erased));
}

TEST(PlanCache, PlansAndProgramsShareOneLruCapacity) {
  const auto cache = std::make_shared<ec::PlanCache>(3, /*shards=*/1);
  ec::CodecOptions opt;
  opt.plan_cache = cache;
  const ec::RsCodec codec(6, 3, opt);  // the encoder: 1 entry
  const Stripe stripe(codec);
  const auto plan_for = [&](uint32_t id) {
    return codec.plan_reconstruct(all_but(codec, {id}), {id});
  };

  const auto a = plan_for(1);  // + decoder{1} + plan{1}: full
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_EQ(cache->stats().evictions, 0u);
  const auto a_bytes = stripe.rebuild(*a);
  EXPECT_EQ(a_bytes, stripe.originals({1}));

  (void)plan_for(2);  // evicts the encoder, then decoder{1}
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_EQ(cache->stats().evictions, 2u);
  (void)plan_for(3);  // evicts plan{1}, then decoder{2}
  EXPECT_EQ(cache->size(), 3u);
  EXPECT_EQ(cache->stats().evictions, 4u);
  EXPECT_EQ(codec.cached_program_count(), 1u);  // decoder{3}; plan{2} and plan{3} besides

  // The evicted plan keeps its evicted decoder alive and still decodes...
  EXPECT_EQ(stripe.rebuild(*a), a_bytes);
  // ...and its rebuilt replacement is a new object with the same bytes.
  const auto rebuilt = plan_for(1);
  EXPECT_NE(rebuilt.get(), a.get());
  EXPECT_EQ(stripe.rebuild(*rebuilt), a_bytes);
  EXPECT_EQ(cache->size(), 3u);
}

TEST(PlanCache, HotPlanKeepsItsProgramsFresh) {
  // A plan hit refreshes the decoder it runs, so cold patterns pushing
  // through a small cache evict other entries first: the hot decoder stays
  // in the footprint (and so in a saved profile), and another id order of
  // the hot pattern plans without a recompile.
  const auto cache = std::make_shared<ec::PlanCache>(6, /*shards=*/1);
  ec::CodecOptions opt;
  opt.plan_cache = cache;
  const ec::RsCodec codec(6, 3, opt);
  const std::vector<uint32_t> hot{1};
  const auto available = all_but(codec, hot);
  const auto plan = codec.plan_reconstruct(available, hot);
  const auto hot_decoder = [&] {
    for (const auto& pattern : codec.plan_footprint().patterns)
      if (pattern.size() > 1 && pattern[0] == 1 &&
          pattern[1] == ec::BitmatrixCodecCore::kPatternSep)
        return true;
    return false;
  };
  ASSERT_TRUE(hot_decoder());
  for (uint32_t cold : {2u, 3u, 4u, 5u, 0u}) {
    (void)codec.plan_reconstruct(all_but(codec, {cold}), {cold});
    EXPECT_EQ(codec.plan_reconstruct(available, hot).get(), plan.get());
  }
  EXPECT_GT(cache->stats().evictions, 0u);
  EXPECT_TRUE(hot_decoder());

  const size_t misses = cache->stats().misses;
  const std::vector<uint32_t> reversed(available.rbegin(), available.rend());
  const auto other = codec.plan_reconstruct(reversed, hot);
  EXPECT_EQ(cache->stats().misses, misses);
  EXPECT_EQ(other->decode_pipeline(), plan->decode_pipeline());
}

TEST(PlanCache, FootprintListsProgramKeysOnly) {
  ec::CodecOptions opt;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 4);
  const ec::RsCodec codec(6, 3, opt);
  for (const std::vector<uint32_t>& erased :
       std::vector<std::vector<uint32_t>>{{0}, {1, 7}, {8}, {2, 3, 4}}) {
    auto available = all_but(codec, erased);
    (void)codec.plan_reconstruct(available, erased);
    std::reverse(available.begin(), available.end());
    (void)codec.plan_reconstruct(available, erased);  // a second plan, same programs
  }
  const PlanFootprint fp = codec.plan_footprint();
  // Encoder, 3 decoders ({0}, {1}, {2,3,4}) and 2 parity subsets ({7}, {8}).
  EXPECT_EQ(fp.patterns.size(), 6u);
  EXPECT_EQ(codec.cached_program_count(), fp.patterns.size());
  EXPECT_EQ(opt.plan_cache->size(), fp.patterns.size() + 8);  // + 8 plans
  for (const auto& pattern : fp.patterns)
    EXPECT_TRUE(pattern.empty() || pattern.front() != ec::PlanKey::kPlanTag);
}

TEST(PlanCache, ConcurrentPlannersShareOnePlanAndOneDecoder) {
  ec::CodecOptions opt;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, ec::PlanCache::kDefaultShards);
  const ec::RsCodec codec(10, 4, opt);
  const std::vector<uint32_t> erased{2, 4, 5, 6};
  const auto available = all_but(codec, erased);
  constexpr size_t kThreads = 4;
  std::vector<std::shared_ptr<const ReconstructPlan>> plans(kThreads);
  std::atomic<size_t> ready{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      plans[t] = codec.plan_reconstruct(available, erased);
    });
  for (auto& t : threads) t.join();

  const Stripe stripe(codec);
  const auto want = stripe.originals(erased);
  for (const auto& plan : plans) {
    ASSERT_NE(plan, nullptr);
    // Racing builders: first insert wins and every caller gets the winner.
    EXPECT_EQ(plan.get(), plans[0].get());
    EXPECT_EQ(plan->decode_pipeline(), plans[0]->decode_pipeline());
    EXPECT_EQ(stripe.rebuild(*plan), want);
  }
  EXPECT_EQ(codec.cached_program_count(), 2u);  // encoder + one decoder
  EXPECT_EQ(opt.plan_cache->size(), 3u);        // + one plan
}

TEST(PlanCache, PlanReportsTheAskingCodecsName) {
  // Two codecs over the same bitmatrix share every compiled program but not
  // a name: each one's plans report its own codec_name().
  ec::CodecOptions opt;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  altcodes::XorCodeSpec spec = altcodes::sparse_spec(6, 3, 45, 7);
  const altcodes::XorCodec original(spec, opt);
  spec.name = "renamed";
  const altcodes::XorCodec renamed(spec, opt);
  ASSERT_EQ(original.plan_footprint().matrix_fp, renamed.plan_footprint().matrix_fp);
  ASSERT_EQ(original.plan_footprint().config_fp, renamed.plan_footprint().config_fp);

  const std::vector<uint32_t> erased{1};
  const auto available = all_but(original, erased);
  const auto a = original.plan_reconstruct(available, erased);
  const auto b = renamed.plan_reconstruct(available, erased);
  EXPECT_EQ(a->codec_name(), original.name());
  EXPECT_EQ(b->codec_name(), "renamed");
  EXPECT_EQ(a->decode_pipeline(), b->decode_pipeline());  // one compiled decoder
  EXPECT_EQ(original.plan_reconstruct(available, erased).get(), a.get());
  EXPECT_EQ(renamed.plan_reconstruct(available, erased).get(), b.get());

  // Spec spellings that name one codec share the name and the plan.
  CodecSpec x = parse_spec("rs(10,4)@matrix=vand");
  CodecSpec y = parse_spec("vand(10,4)");
  x.options.plan_cache = y.options.plan_cache = opt.plan_cache;
  const auto cx = make_codec(x), cy = make_codec(y);
  EXPECT_EQ(cx->name(), cy->name());
  const std::vector<uint32_t> rs_erased{0, 11};
  const auto rs_available = all_but(*cx, rs_erased);
  const auto px = cx->plan_reconstruct(rs_available, rs_erased);
  EXPECT_EQ(px->codec_name(), cx->name());
  EXPECT_EQ(cy->plan_reconstruct(rs_available, rs_erased).get(), px.get());
}
