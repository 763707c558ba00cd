// CodecService: canonical-spec pool sharing, routed multi-tenant traffic
// (byte-verified mixed, split, failing and ObjectCodec jobs on the shard
// queues), warmup round-trips (save -> fresh service -> warm lookups), and
// stats-snapshot consistency under concurrent load.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/xorec.hpp"
#include "ec/object_codec.hpp"
#include "ec/plan_cache.hpp"
#include "ec/plan_cache_io.hpp"

using namespace xorec;

namespace {

/// A service with its own plan cache: an isolated compilation domain, so
/// warmup tests see cold/warm transitions regardless of what other tests
/// left in the process-shared cache.
CodecService::Options isolated(size_t shards = 2, size_t workers = 1) {
  CodecService::Options opt;
  opt.shards = shards;
  opt.workers_per_shard = workers;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 4);
  return opt;
}

std::vector<uint32_t> all_but(const Codec& codec, const std::vector<uint32_t>& erased) {
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec.total_fragments(); ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end())
      available.push_back(id);
  return available;
}

std::string temp_profile_path(const char* tag) {
  return testing::TempDir() + "xorec_profile_" + tag + "_" +
         std::to_string(::getpid()) + ".txt";
}

/// Encode random data through `handle`, erase `erased`, repair through the
/// service, and check the rebuilt bytes — the routed end-to-end loop.
void roundtrip(const ServiceHandle& handle, const std::vector<uint32_t>& erased,
               uint32_t seed) {
  const Codec& codec = handle.codec();
  const size_t frag_len = codec.fragment_multiple() * 32;
  std::mt19937 rng(seed);
  std::vector<std::vector<uint8_t>> frags(codec.total_fragments(),
                                          std::vector<uint8_t>(frag_len));
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < codec.data_fragments(); ++i) {
    for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());
    data.push_back(frags[i].data());
  }
  for (size_t i = codec.data_fragments(); i < codec.total_fragments(); ++i)
    parity.push_back(frags[i].data());
  handle.encode(data.data(), parity.data(), frag_len).get();

  const auto available = all_but(codec, erased);
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());
  std::vector<std::vector<uint8_t>> rebuilt(erased.size(),
                                            std::vector<uint8_t>(frag_len, 0xEE));
  std::vector<uint8_t*> out_ptrs;
  for (auto& r : rebuilt) out_ptrs.push_back(r.data());

  const auto plan = handle.plan_reconstruct(available, erased);
  handle.reconstruct(plan, avail_ptrs.data(), out_ptrs.data(), frag_len).get();
  for (size_t i = 0; i < erased.size(); ++i)
    ASSERT_EQ(rebuilt[i], frags[erased[i]]) << "fragment " << erased[i];
}

struct Stripe {
  std::vector<std::vector<uint8_t>> frags;  // n + p, encoded ground truth
  std::vector<const uint8_t*> data_ptrs;
  std::vector<uint8_t*> parity_ptrs;
};

/// Random data fragments and their parity, coded inline by `codec`.
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

// ---- canonical-spec normalization ------------------------------------------

TEST(CanonicalSpec, NormalizesSpellings) {
  // Key reordering and whitespace collapse to one spelling.
  EXPECT_EQ(canonical_spec("rs(6,3)@sched=greedy,block=1024"),
            canonical_spec("rs(6, 3) @ block = 1024, sched = greedy"));
  // Options at their defaults are dropped.
  EXPECT_EQ(canonical_spec("rs(10,4)@block=2048,exec=lowered"), "rs(10,4)");
  // Default-able positional args are filled in.
  EXPECT_EQ(canonical_spec("rs(10)"), "rs(10,4)");
  EXPECT_EQ(canonical_spec("evenodd(6)"), "evenodd(6,2)");
  EXPECT_EQ(canonical_spec("star(9)"), "star(9,3)");
  // matrix= folds into the RS family name, both directions.
  EXPECT_EQ(canonical_spec("rs(9,3)@matrix=cauchy"), "cauchy(9,3)");
  EXPECT_EQ(canonical_spec("cauchy(9,3)@matrix=isal"), "rs(9,3)");
  EXPECT_EQ(canonical_spec("cauchy(9,3)"), "cauchy(9,3)");
  // The service key never names a codec.
  EXPECT_EQ(canonical_spec("rs(8,2)@warmup=/tmp/p.txt,block=512"), "rs(8,2)@block=512");
  // Pipeline presets and scheduler knobs keep a stable order.
  EXPECT_EQ(canonical_spec("rs(8,2)@sched=greedy,block=1024,cap=4"),
            "rs(8,2)@block=1024,sched=greedy,cap=4");
  EXPECT_EQ(canonical_spec("rs(8,2)@passes=base"), "rs(8,2)@passes=base");
  EXPECT_EQ(canonical_spec("rs(8,2)@cache=private"), "rs(8,2)@cache=private");
  EXPECT_EQ(canonical_spec("rs(8,2)@cache=64"), "rs(8,2)@cache=64");
  EXPECT_EQ(canonical_spec("rs(8,2)@exec=interp"), "rs(8,2)@exec=interp");
}

TEST(CanonicalSpec, IsIdempotent) {
  for (const char* spec :
       {"rs(10,4)", "rs(6,3)@block=1024,sched=greedy", "cauchy(9,3)",
        "rs(8,2)@sched=greedy,cap=4", "rs(8,2)@passes=base",
        "lrc(6,2,2)", "rdp(4)", "isal(8,2)"}) {
    const std::string canon = canonical_spec(spec);
    EXPECT_EQ(canonical_spec(canon), canon) << spec;
  }
}

TEST(CanonicalSpec, SpelledOutDefaultCapSharesCompiledPrograms) {
  // cap=32 is the greedy default: spelling it out names the same codec, so
  // both spellings share one canonical form, one name and one compile.
  const char* implicit = "rs(6,3)@sched=greedy";
  const char* spelled = "rs(6,3)@sched=greedy,cap=32";
  EXPECT_EQ(canonical_spec(spelled), canonical_spec(implicit));
  EXPECT_EQ(canonical_spec(spelled), implicit);

  const auto cache = std::make_shared<ec::PlanCache>(64);
  std::vector<std::string> names;
  for (const char* spec : {implicit, spelled}) {
    CodecSpec cs = parse_spec(spec);
    cs.options.plan_cache = cache;
    names.push_back(make_codec(cs)->name());
  }
  EXPECT_EQ(names[0], names[1]);
  const CacheStats st = cache->stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
}

// ---- pool sharing -----------------------------------------------------------

TEST(CodecService, EquivalentSpecsShareOnePool) {
  CodecService service(isolated());
  const auto a = service.acquire("rs(6,3)@block=1024,sched=greedy");
  const auto b = service.acquire("rs(6, 3) @ sched=greedy, block=1024");
  const auto c = service.acquire("rs(6,3)@block=1024,sched=greedy,exec=lowered");
  EXPECT_EQ(&a.codec(), &b.codec());
  EXPECT_EQ(&a.codec(), &c.codec());
  EXPECT_EQ(a.spec(), "rs(6,3)@block=1024,sched=greedy");

  const auto d = service.acquire("rs(6,3)@block=512,sched=greedy");  // different codec
  EXPECT_NE(&a.codec(), &d.codec());

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.pools.size(), 2u);
  EXPECT_EQ(stats.pools[0].clients, 3u);
  EXPECT_EQ(stats.pools[1].clients, 1u);
  // Pools pin round-robin across shards.
  EXPECT_NE(stats.pools[0].shard, stats.pools[1].shard);
}

TEST(CodecService, RejectsBatchKeyAndBadSpecs) {
  CodecService service(isolated());
  EXPECT_THROW(service.acquire("nope(6,3)"), std::invalid_argument);
  // make_codec rejects the service key outright.
  EXPECT_THROW((void)make_codec("rs(6,3)@warmup=/tmp/p.txt"), std::invalid_argument);
  // Shards are sized by CodecService::Options alone: every spec entry point
  // rejects batch= as an unknown key, naming it.
  const std::vector<std::function<void(const std::string&)>> entry_points{
      [](const std::string& s) { (void)parse_spec(s); },
      [](const std::string& s) { (void)canonical_spec(s); },
      [](const std::string& s) { (void)make_codec(s); },
      [&](const std::string& s) { (void)service.acquire(s); }};
  for (const char* spec : {"rs(6,3)@batch=4", "rs(6,3)@block=1024,batch=auto"}) {
    for (size_t i = 0; i < entry_points.size(); ++i) {
      try {
        entry_points[i](spec);
        ADD_FAILURE() << "entry point " << i << " accepted " << spec;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("unknown option \"batch\""), std::string::npos)
            << "entry point " << i << ": " << e.what();
      }
    }
  }
  EXPECT_TRUE(service.stats().pools.empty());
}

// ---- routed traffic ---------------------------------------------------------

TEST(CodecService, RoutedTrafficRepairsCorrectly) {
  CodecService service(isolated());
  roundtrip(service.acquire("rs(6,3)"), {0, 7}, 11);
  roundtrip(service.acquire("cauchy(5,2)"), {1}, 12);
  roundtrip(service.acquire("evenodd(4,2)"), {0, 3}, 13);
}

TEST(CodecService, ConcurrentMixedSpecTraffic) {
  CodecService service(isolated(3, 2));
  const std::vector<std::string> specs{"rs(6,3)", "cauchy(5,2)", "rs(6,3)@block=1024"};
  std::atomic<bool> failed{false};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 6; ++t) {
    clients.emplace_back([&, t] {
      try {
        const auto handle = service.acquire(specs[t % specs.size()]);
        for (uint32_t round = 0; round < 3; ++round)
          roundtrip(handle, {static_cast<uint32_t>((t + round) % 5)},
                    static_cast<uint32_t>(100 + t * 10 + round));
      } catch (...) {
        failed = true;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_FALSE(failed.load());

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.pools.size(), specs.size());
  size_t clients_total = 0, jobs_routed = 0, pool_jobs = 0;
  for (const PoolStats& p : stats.pools) {
    clients_total += p.clients;
    pool_jobs += p.encodes + p.reconstructs;
  }
  for (const ShardStats& s : stats.shards) {
    jobs_routed += s.submitted;
    EXPECT_EQ(s.queue_depth, 0u);  // everything flushed
  }
  EXPECT_EQ(clients_total, 6u);
  // 6 clients x 3 rounds x (1 encode + 1 reconstruct).
  EXPECT_EQ(pool_jobs, 36u);
  EXPECT_EQ(jobs_routed, pool_jobs);  // per-shard and per-pool views agree
}

TEST(CodecService, StatsSnapshotsStayConsistentUnderLoad) {
  CodecService service(isolated(2, 2));
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::thread watcher([&] {
    while (!stop.load()) {
      const ServiceStats s = service.stats();
      size_t shard_jobs = 0, pool_jobs = 0;
      for (const ShardStats& sh : s.shards) {
        shard_jobs += sh.submitted;
        if (sh.queue_depth > sh.submitted) torn = true;
      }
      for (const PoolStats& p : s.pools) pool_jobs += p.encodes + p.reconstructs;
      // Counters are bumped pool-first, then shard: a snapshot may catch a
      // job between the two, so the shard total can only trail.
      if (shard_jobs > pool_jobs) torn = true;
    }
  });
  const auto handle = service.acquire("rs(6,3)");
  for (uint32_t round = 0; round < 8; ++round)
    roundtrip(handle, {round % 4, 6}, 200 + round);
  stop = true;
  watcher.join();
  EXPECT_FALSE(torn.load());

  const ServiceStats s = service.stats();
  size_t shard_jobs = 0;
  for (const ShardStats& sh : s.shards) shard_jobs += sh.submitted;
  EXPECT_EQ(shard_jobs, s.pools[0].encodes + s.pools[0].reconstructs);
  EXPECT_GT(s.uptime_s, 0.0);
}

TEST(CodecService, RoundTrips64MixedJobsConcurrently) {
  // 64 jobs on one four-worker shard, interleaved: encodes, plan repairs and
  // plan-less rebuilds, every stripe byte-verified.
  CodecService service(isolated(1, 4));
  const ServiceHandle h = service.acquire("rs(6,3)@block=512");
  const Codec& codec = h.codec();
  const size_t n = codec.data_fragments(), frag_len = codec.fragment_multiple() * 64;
  EXPECT_EQ(service.stats().shards[h.shard()].workers, 4u);

  constexpr size_t kEncodes = 32, kRepairs = 32;
  // Encode jobs: ground truth computed inline first, parity zeroed, the
  // shard must rebuild it bit-for-bit.
  std::vector<Stripe> enc(kEncodes);
  std::vector<std::vector<std::vector<uint8_t>>> truth(kEncodes);
  // Repair jobs: one data + one parity erasure, half through a shared plan,
  // half through the plan-less path.
  const std::vector<uint32_t> erased{0, static_cast<uint32_t>(n)};
  const std::vector<uint32_t> available = all_but(codec, erased);
  const auto plan = h.plan_reconstruct(available, erased);
  std::vector<Stripe> rep(kRepairs);
  std::vector<std::vector<const uint8_t*>> rep_avail(kRepairs);
  std::vector<std::vector<std::vector<uint8_t>>> rep_out(kRepairs);
  std::vector<std::vector<uint8_t*>> rep_out_ptrs(kRepairs);

  std::vector<runtime::TaskFuture> futs;
  for (size_t j = 0; j < kEncodes; ++j) {  // interleave the two job kinds
    {
      enc[j] = make_stripe(codec, frag_len, static_cast<uint32_t>(j));
      for (size_t i = 0; i < codec.parity_fragments(); ++i) {
        truth[j].push_back(enc[j].frags[n + i]);
        std::fill(enc[j].frags[n + i].begin(), enc[j].frags[n + i].end(), 0);
      }
      futs.push_back(h.encode(enc[j].data_ptrs.data(), enc[j].parity_ptrs.data(), frag_len));
    }
    {
      rep[j] = make_stripe(codec, frag_len, static_cast<uint32_t>(1000 + j));
      for (uint32_t id : available) rep_avail[j].push_back(rep[j].frags[id].data());
      rep_out[j].assign(erased.size(), std::vector<uint8_t>(frag_len));
      for (auto& o : rep_out[j]) rep_out_ptrs[j].push_back(o.data());
      if (j % 2 == 0)
        futs.push_back(
            h.reconstruct(plan, rep_avail[j].data(), rep_out_ptrs[j].data(), frag_len));
      else
        futs.push_back(h.rebuild(available, rep_avail[j].data(), erased,
                                 rep_out_ptrs[j].data(), frag_len));
    }
  }
  EXPECT_EQ(service.stats().shards[h.shard()].submitted, kEncodes + kRepairs);
  service.flush();
  for (auto& f : futs) ASSERT_NO_THROW(f.get());

  for (size_t j = 0; j < kEncodes; ++j)
    for (size_t i = 0; i < codec.parity_fragments(); ++i)
      ASSERT_EQ(enc[j].frags[n + i], truth[j][i]) << "encode stripe " << j;
  for (size_t j = 0; j < kRepairs; ++j)
    for (size_t i = 0; i < erased.size(); ++i)
      ASSERT_EQ(rep_out[j][i], rep[j].frags[erased[i]]) << "repair stripe " << j;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.pools[0].encodes, kEncodes);
  EXPECT_EQ(stats.pools[0].reconstructs, kRepairs);
}

TEST(CodecService, SplitStripesMatchAndCountOncePerSubmit) {
  // 64 KiB strips are 64 rows at B = 1K: each job splits into row parts on
  // the one-worker shard, yet counts as one submitted job.
  CodecService service(isolated(1, 1));
  const ServiceHandle h = service.acquire("rs(4,2)@block=1024");
  const Codec& codec = h.codec();
  const size_t n = codec.data_fragments(), frag_len = codec.fragment_multiple() * 64 * 1024;
  constexpr size_t kStripes = 4;
  std::vector<Stripe> stripes(kStripes);
  std::vector<std::vector<std::vector<uint8_t>>> truth(kStripes);
  std::vector<runtime::TaskFuture> futs;
  for (size_t s = 0; s < kStripes; ++s) {
    // Ground truth from a direct, unsplit encode; then zero the parity.
    stripes[s] = make_stripe(codec, frag_len, static_cast<uint32_t>(300 + s));
    truth[s].assign(stripes[s].frags.begin() + n, stripes[s].frags.end());
    for (size_t f = n; f < stripes[s].frags.size(); ++f)
      std::fill(stripes[s].frags[f].begin(), stripes[s].frags[f].end(), uint8_t{0});
    futs.push_back(
        h.encode(stripes[s].data_ptrs.data(), stripes[s].parity_ptrs.data(), frag_len));
  }
  ShardStats shard = service.stats().shards[h.shard()];
  EXPECT_EQ(shard.submitted, kStripes);
  EXPECT_LE(shard.queue_depth, kStripes);
  EXPECT_LE(h.queue_depth(), kStripes);
  for (auto& f : futs) f.get();
  service.flush();
  shard = service.stats().shards[h.shard()];
  EXPECT_EQ(shard.submitted, kStripes);
  EXPECT_EQ(shard.queue_depth, 0u);
  EXPECT_EQ(h.queue_depth(), 0u);
  for (size_t s = 0; s < kStripes; ++s)
    for (size_t j = 0; j < truth[s].size(); ++j)
      EXPECT_EQ(stripes[s].frags[n + j], truth[s][j]) << "stripe " << s << " parity " << j;
}

TEST(CodecService, JobFailureArrivesThroughTheFuture) {
  CodecService service(isolated(1, 2));
  const ServiceHandle h = service.acquire("rs(4,2)");
  const Codec& codec = h.codec();
  const size_t frag_len = codec.fragment_multiple() * 8;
  auto s = make_stripe(codec, frag_len, 9);
  // Too few survivors: the plan-less job throws inside the shard.
  std::vector<const uint8_t*> avail{s.frags[0].data(), s.frags[1].data(),
                                    s.frags[2].data()};
  std::vector<uint8_t> out(frag_len);
  uint8_t* outp = out.data();
  auto fut = h.rebuild({0, 1, 2}, avail.data(), {3}, &outp, frag_len);
  EXPECT_THROW(fut.get(), std::invalid_argument);
  service.flush();
  EXPECT_THROW(h.reconstruct(nullptr, avail.data(), &outp, frag_len), std::invalid_argument);
  // The service stays usable.
  roundtrip(h, {1, 4}, 10);
  EXPECT_EQ(h.queue_depth(), 0u);
}

TEST(CodecService, LeaseObjectCodecMatchesInlineObjectCodec) {
  // An ObjectCodec over a lease routes its jobs onto the shard; its bytes
  // match an ObjectCodec coding inline over the same codec.
  CodecService service(isolated(1, 3));
  const ServiceHandle h = service.acquire("evenodd(4,2)");
  ec::ObjectCodec leased(h);
  const ec::ObjectCodec inline_blobs(h.codec_ptr());

  std::vector<uint8_t> blob(10000);
  std::mt19937 rng(17);
  for (auto& b : blob) b = static_cast<uint8_t>(rng());

  const auto enc = leased.encode(blob.data(), blob.size());
  const auto plain = inline_blobs.encode(blob.data(), blob.size());
  EXPECT_EQ(enc.fragments, plain.fragments);

  // Drop one data + one parity fragment; decode through the lease.
  std::vector<std::vector<uint8_t>> survivors;
  for (size_t id = 0; id < enc.fragments.size(); ++id)
    if (id != 1 && id != 5) survivors.push_back(enc.fragments[id]);
  const auto dec = leased.decode(survivors);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, blob);

  const auto rebuilt = leased.rebuild_all(survivors);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->fragments, enc.fragments);

  // encode, decode, and rebuild_all's decode + encode: two jobs of each
  // kind, all counted in the pool's stats.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.pools[0].encodes, 2u);
  EXPECT_EQ(stats.pools[0].reconstructs, 2u);
  EXPECT_EQ(stats.shards[h.shard()].submitted, 4u);
}

TEST(CodecService, ManyStripesOverOnePlanByteIdentical) {
  // One plan, >= 100 stripes, byte parity with the encoded ground truth,
  // all through a concurrent shard.
  CodecService service(isolated(1, 4));
  const ServiceHandle h = service.acquire("star(5)");
  const Codec& codec = h.codec();
  const size_t frag_len = codec.fragment_multiple() * 8;
  const std::vector<uint32_t> erased{0, 1};
  const std::vector<uint32_t> available = all_but(codec, erased);
  const auto plan = h.plan_reconstruct(available, erased);

  constexpr size_t kStripes = 120;
  std::vector<Stripe> stripes(kStripes);
  std::vector<std::vector<const uint8_t*>> avail(kStripes);
  std::vector<std::vector<std::vector<uint8_t>>> outs(kStripes);
  std::vector<std::vector<uint8_t*>> out_ptrs(kStripes);
  for (size_t s = 0; s < kStripes; ++s) {
    stripes[s] = make_stripe(codec, frag_len, static_cast<uint32_t>(7000 + s));
    for (uint32_t id : available) avail[s].push_back(stripes[s].frags[id].data());
    outs[s].assign(erased.size(), std::vector<uint8_t>(frag_len));
    for (auto& o : outs[s]) out_ptrs[s].push_back(o.data());
    h.reconstruct(plan, avail[s].data(), out_ptrs[s].data(), frag_len);
  }
  service.flush();
  for (size_t s = 0; s < kStripes; ++s)
    for (size_t i = 0; i < erased.size(); ++i)
      ASSERT_EQ(outs[s][i], stripes[s].frags[erased[i]]) << "stripe " << s;
}

// ---- warmup round-trip ------------------------------------------------------

TEST(CodecService, WarmupRoundTripServesHotPatternsFromCache) {
  const std::string path = temp_profile_path("roundtrip");
  const std::vector<std::vector<uint32_t>> patterns{{0, 1}, {2, 7}, {9}};

  {  // Process 1: serve cold, persist the key set.
    CodecService service(isolated());
    const auto handle = service.acquire("rs(8,2)@block=1024");
    for (size_t i = 0; i < patterns.size(); ++i) roundtrip(handle, patterns[i], 40 + i);
    EXPECT_GT(service.save_profile(path), patterns.size());  // + parity/encoder keys
    const ServiceStats cold = service.stats();
    EXPECT_EQ(cold.warm_hits, 0u);  // everything compiled inside the window
    EXPECT_GT(cold.warm_misses, 0u);
  }

  // "Process 2": a fresh service over a fresh cache — nothing compiled yet.
  CodecService service(isolated());
  const auto report = service.warmup(path);
  EXPECT_EQ(report.codecs, 1u);
  EXPECT_GE(report.patterns, patterns.size());
  EXPECT_GT(report.compiled, 0u);  // the replay did the compiling
  EXPECT_EQ(report.skipped, 0u);

  // Client traffic on the replayed patterns is now pure cache hits.
  const auto handle = service.acquire("rs(8,2)@block=1024");
  for (size_t i = 0; i < patterns.size(); ++i)
    (void)handle.plan_reconstruct(all_but(handle.codec(), patterns[i]), patterns[i]);
  const ServiceStats warm = service.stats();
  EXPECT_EQ(warm.warm_misses, 0u);
  EXPECT_GE(warm.warm_hits, patterns.size());
  EXPECT_GE(warm.warm_hit_rate(), 0.9);

  // And the warmed programs still decode correct bytes.
  roundtrip(handle, patterns[0], 77);
  std::remove(path.c_str());
}

TEST(CodecService, ProfileAfterDegradedReadsListsProgramKeysOnly) {
  // Degraded reads cache finished plans next to the programs; a saved
  // profile still records the programs alone, and replays cleanly.
  const std::string path = temp_profile_path("programs_only");
  size_t programs = 0;
  {
    CodecService service(isolated());
    const auto handle = service.acquire("rs(6,3)");
    for (const std::vector<uint32_t>& erased :
         std::vector<std::vector<uint32_t>>{{1, 2}, {0, 7}, {4}}) {
      auto available = all_but(handle.codec(), erased);
      (void)handle.plan_reconstruct(available, erased);
      std::reverse(available.begin(), available.end());
      (void)handle.plan_reconstruct(available, erased);
    }
    programs = handle.codec().cached_program_count();
    EXPECT_EQ(handle.codec().plan_footprint().patterns.size(), programs);
    EXPECT_EQ(service.save_profile(path), programs);
  }
  const ec::PlanProfile profile = ec::load_plan_profile(path);
  ASSERT_EQ(profile.entries.size(), 1u);
  EXPECT_EQ(profile.pattern_count(), programs);
  for (const auto& pattern : profile.entries[0].patterns)
    EXPECT_TRUE(pattern.empty() || pattern.front() != ec::PlanKey::kPlanTag);

  CodecService::Options opt = isolated();
  CodecService service(opt);
  const auto report = service.warmup(path);
  EXPECT_EQ(report.patterns, programs - 1);  // all but the encoder, which the pool compiles
  EXPECT_EQ(report.skipped, 0u);
  const auto handle = service.acquire("rs(6,3)");
  EXPECT_EQ(handle.codec().cached_program_count(), programs);
  // The replay compiled programs and cached no plan: a plan's key is its
  // caller's id order, and no client has asked yet.
  EXPECT_EQ(opt.plan_cache->size(), programs);
  std::remove(path.c_str());
}

TEST(CodecService, WarmupSpecKeyReplaysProfile) {
  const std::string path = temp_profile_path("speckey");
  {
    CodecService service(isolated());
    const auto handle = service.acquire("rs(6,3)");
    (void)handle.plan_reconstruct(all_but(handle.codec(), {1, 2}), {1, 2});
    service.save_profile(path);
  }
  CodecService service(isolated());
  // warmup= runs the replay before the lease; a missing file would be a
  // quiet cold start instead.
  const auto handle = service.acquire("rs(6,3)@warmup=" + path);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.warm_misses, 0u);
  (void)handle.plan_reconstruct(all_but(handle.codec(), {1, 2}), {1, 2});
  EXPECT_GE(service.stats().warm_hits, 1u);

  // Re-acquiring the same warmup= path must NOT re-replay or reset the
  // serving window (the hits counted above survive a second acquire).
  const auto again = service.acquire("rs(6,3)@warmup=" + path);
  EXPECT_GE(service.stats().warm_hits, 1u);

  CodecService cold(isolated());
  const auto h2 = cold.acquire("rs(6,3)@warmup=" + path + ".does-not-exist");
  EXPECT_EQ(&h2.codec(), &h2.codec());  // quiet cold start still serves

  // A corrupt profile is NOT quiet — the operator must learn the warm
  // start they asked for cannot happen.
  {
    std::ofstream garbage(path + ".corrupt");
    garbage << "not a profile\n";
  }
  CodecService strict(isolated());
  EXPECT_THROW(strict.acquire("rs(6,3)@warmup=" + path + ".corrupt"),
               std::runtime_error);
  std::remove((path + ".corrupt").c_str());
  std::remove(path.c_str());
}

TEST(PlanProfileIo, RoundTripsAndRejectsGarbage) {
  const std::string path = temp_profile_path("io");
  ec::PlanProfile profile;
  profile.entries.push_back(
      {"rs(6,3)", 1, 2, 3, {{0, 1, UINT32_MAX, 2, 3, 4, 5}, {}, {7, UINT32_MAX, UINT32_MAX}}});
  ec::save_plan_profile(path, profile);
  const ec::PlanProfile loaded = ec::load_plan_profile(path);
  ASSERT_EQ(loaded.entries.size(), 1u);
  EXPECT_EQ(loaded.entries[0].spec, "rs(6,3)");
  EXPECT_EQ(loaded.entries[0].matrix_fp, 1u);
  EXPECT_EQ(loaded.entries[0].config_fp, 3u);
  EXPECT_EQ(loaded.entries[0].patterns, profile.entries[0].patterns);
  EXPECT_EQ(loaded.pattern_count(), 3u);

  EXPECT_THROW(ec::load_plan_profile(path + ".missing"), std::runtime_error);
  {
    std::ofstream bad(path);
    bad << "not a profile\n";
  }
  EXPECT_THROW(ec::load_plan_profile(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---- ObjectCodec over a service lease ---------------------------------------

TEST(CodecService, ObjectCodecRoutesThroughTheLeaseShard) {
  CodecService service(isolated());
  const auto handle = service.acquire("rs(4,2)");
  ec::ObjectCodec blobs(handle);

  std::vector<uint8_t> object(10000);
  for (size_t i = 0; i < object.size(); ++i) object[i] = static_cast<uint8_t>(i * 31);
  auto enc = blobs.encode(object.data(), object.size());
  ASSERT_EQ(enc.fragments.size(), 6u);
  enc.fragments[0].clear();
  enc.fragments[5].clear();
  enc.fragments.erase(
      std::remove_if(enc.fragments.begin(), enc.fragments.end(),
                     [](const std::vector<uint8_t>& f) { return f.empty(); }),
      enc.fragments.end());
  const auto dec = blobs.decode(enc.fragments);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, object);
  // The blob jobs really went through the shard queue.
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.shards[handle.shard()].submitted, 0u);
}

TEST(CodecService, PoolStatsAccountRepairTraffic) {
  CodecService service(isolated());
  const ServiceHandle handle = service.acquire("rs(6,3)");
  const Codec& codec = handle.codec();
  const size_t frag_len = codec.fragment_multiple() * 32;

  roundtrip(handle, {0}, 21);  // one plan-routed repair of one fragment

  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.pools.size(), 1u);
  const PoolStats& pool = stats.pools[0];
  // The plan read k survivors in full: k * w strips, k fragments of bytes
  // in, one rebuilt fragment out.
  const size_t k = codec.data_fragments();
  const size_t w = codec.fragment_multiple();
  EXPECT_EQ(pool.strips_read, k * w);
  EXPECT_EQ(pool.repair_bytes_in, k * frag_len);
  EXPECT_EQ(pool.repair_bytes_out, frag_len);

  // A reduced-read family charges LESS than survivors x full strips: the
  // whole point of exposing read_set() at the service boundary.
  const ServiceHandle lrc = service.acquire("lrc(6,2,2)");
  roundtrip(lrc, {0}, 22);
  stats = service.stats();
  ASSERT_EQ(stats.pools.size(), 2u);
  const PoolStats& lrc_pool = stats.pools[1];
  const size_t survivors = lrc.codec().total_fragments() - 1;
  EXPECT_GT(lrc_pool.strips_read, 0u);
  EXPECT_LT(lrc_pool.strips_read, survivors * lrc.codec().fragment_multiple());
  EXPECT_LT(lrc_pool.repair_bytes_in, survivors * frag_len);
}
