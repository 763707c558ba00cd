#include "api/service.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "api/registry.hpp"
#include "ec/bitmatrix_codec_core.hpp"
#include "ec/plan_cache.hpp"
#include "ec/plan_cache_io.hpp"

namespace xorec {

struct CodecService::Pool {
  std::string spec;  // canonical key
  std::shared_ptr<const Codec> codec;
  size_t shard = 0;
  std::atomic<size_t> clients{0};
  std::atomic<size_t> encodes{0};
  std::atomic<size_t> plans{0};
  std::atomic<size_t> reconstructs{0};
  std::atomic<size_t> strips_read{0};
  std::atomic<uint64_t> repair_bytes_in{0};
  std::atomic<uint64_t> repair_bytes_out{0};
  std::atomic<size_t> net_requests{0};
  std::atomic<uint64_t> net_bytes_in{0};
  std::atomic<uint64_t> net_bytes_out{0};
};

struct CodecService::Shard {
  explicit Shard(size_t workers) : queue(workers) {}
  runtime::TaskQueue queue;
  std::atomic<size_t> submitted{0};  // jobs routed to this shard so far
  std::atomic<uint64_t> bytes{0};    // payload bytes of routed jobs
};

// ---- ServiceHandle ---------------------------------------------------------
// ServiceHandle is a friend of CodecService, so it may name the private
// Pool/Shard types the opaque pool_ pointer hides from the header.

#define XOREC_POOL(p) (*static_cast<CodecService::Pool*>(p))

const Codec& ServiceHandle::codec() const { return *XOREC_POOL(pool_).codec; }
std::shared_ptr<const Codec> ServiceHandle::codec_ptr() const {
  return XOREC_POOL(pool_).codec;
}
const std::string& ServiceHandle::spec() const { return XOREC_POOL(pool_).spec; }
size_t ServiceHandle::shard() const { return XOREC_POOL(pool_).shard; }

size_t ServiceHandle::queue_depth() const {
  return service_->shards_[XOREC_POOL(pool_).shard]->queue.depth();
}

runtime::TaskFuture ServiceHandle::encode(const uint8_t* const* data,
                                          uint8_t* const* parity, size_t frag_len) const {
  CodecService::Pool& pool = XOREC_POOL(pool_);
  CodecService::Shard& shard = *service_->shards_[pool.shard];
  pool.encodes.fetch_add(1, std::memory_order_relaxed);
  shard.bytes.fetch_add(static_cast<uint64_t>(pool.codec->data_fragments()) * frag_len,
                        std::memory_order_relaxed);
  std::vector<const uint8_t*> d(data, data + pool.codec->data_fragments());
  std::vector<uint8_t*> p(parity, parity + pool.codec->parity_fragments());
  ++shard.submitted;
  return shard.queue.submit(
      [codec = pool.codec, d = std::move(d), p = std::move(p), frag_len] {
        codec->encode(d.data(), p.data(), frag_len);
      });
}

std::shared_ptr<const ReconstructPlan> ServiceHandle::plan_reconstruct(
    const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const {
  CodecService::Pool& pool = XOREC_POOL(pool_);
  pool.plans.fetch_add(1, std::memory_order_relaxed);
  return pool.codec->plan_reconstruct(available, erased);
}

runtime::TaskFuture ServiceHandle::reconstruct(std::shared_ptr<const ReconstructPlan> plan,
                                               const uint8_t* const* available_frags,
                                               uint8_t* const* out, size_t frag_len) const {
  if (!plan) throw std::invalid_argument("ServiceHandle: null plan");
  CodecService::Pool& pool = XOREC_POOL(pool_);
  CodecService::Shard& shard = *service_->shards_[pool.shard];
  pool.reconstructs.fetch_add(1, std::memory_order_relaxed);
  shard.bytes.fetch_add(static_cast<uint64_t>(plan->erased().size()) * frag_len,
                        std::memory_order_relaxed);
  // Repair-traffic accounting at the plan's true read granularity: strips
  // the compiled programs dereference, priced in bytes of this job.
  const PlanReadSet& reads = plan->read_set();
  pool.strips_read.fetch_add(reads.strips, std::memory_order_relaxed);
  pool.repair_bytes_in.fetch_add(
      static_cast<uint64_t>(reads.strips) * (frag_len / plan->fragment_multiple()),
      std::memory_order_relaxed);
  pool.repair_bytes_out.fetch_add(static_cast<uint64_t>(plan->erased().size()) * frag_len,
                                  std::memory_order_relaxed);
  std::vector<const uint8_t*> avail(available_frags,
                                    available_frags + plan->available().size());
  std::vector<uint8_t*> o(out, out + plan->erased().size());
  ++shard.submitted;
  return shard.queue.submit(
      [plan = std::move(plan), avail = std::move(avail), o = std::move(o), frag_len] {
        plan->execute(avail.data(), o.data(), frag_len);
      });
}

runtime::TaskFuture ServiceHandle::rebuild(std::vector<uint32_t> available,
                                           const uint8_t* const* available_frags,
                                           std::vector<uint32_t> erased, uint8_t* const* out,
                                           size_t frag_len) const {
  CodecService::Pool& pool = XOREC_POOL(pool_);
  CodecService::Shard& shard = *service_->shards_[pool.shard];
  pool.reconstructs.fetch_add(1, std::memory_order_relaxed);
  shard.bytes.fetch_add(static_cast<uint64_t>(erased.size()) * frag_len,
                        std::memory_order_relaxed);
  // Plan-less rebuild: no compiled program to inspect, so every survivor is
  // charged in full (the conservative ceiling — route plans for less).
  pool.strips_read.fetch_add(available.size() * pool.codec->fragment_multiple(),
                             std::memory_order_relaxed);
  pool.repair_bytes_in.fetch_add(static_cast<uint64_t>(available.size()) * frag_len,
                                 std::memory_order_relaxed);
  pool.repair_bytes_out.fetch_add(static_cast<uint64_t>(erased.size()) * frag_len,
                                  std::memory_order_relaxed);
  std::vector<const uint8_t*> avail(available_frags, available_frags + available.size());
  std::vector<uint8_t*> o(out, out + erased.size());
  ++shard.submitted;
  return shard.queue.submit([codec = pool.codec, available = std::move(available),
                             erased = std::move(erased), avail = std::move(avail),
                             o = std::move(o), frag_len] {
    codec->reconstruct(available, avail.data(), erased, o.data(), frag_len);
  });
}

void ServiceHandle::note_net_request(uint64_t bytes_in, uint64_t bytes_out) const {
  CodecService::Pool& pool = XOREC_POOL(pool_);
  pool.net_requests.fetch_add(1, std::memory_order_relaxed);
  pool.net_bytes_in.fetch_add(bytes_in, std::memory_order_relaxed);
  pool.net_bytes_out.fetch_add(bytes_out, std::memory_order_relaxed);
}

#undef XOREC_POOL

// ---- CodecService ----------------------------------------------------------

CodecService::CodecService(Options opt)
    : opt_(std::move(opt)), start_(std::chrono::steady_clock::now()) {
  const size_t n = opt_.shards ? opt_.shards : kDefaultShards;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i)
    shards_.push_back(std::make_unique<Shard>(opt_.workers_per_shard));
  shard_pools_.assign(n, 0);
  const CacheStats s = cache_view();
  baseline_hits_ = s.hits;
  baseline_misses_ = s.misses;
}

CodecService::~CodecService() { flush(); }

CacheStats CodecService::cache_view() const {
  return opt_.plan_cache ? opt_.plan_cache->stats()
                         : ec::PlanCache::process_shared()->stats();
}

CodecService::Pool& CodecService::pool_for(const CodecSpec& parsed) {
  CodecSpec cs = parsed;
  // warmup= configures the service, never the pooled codec.
  cs.option_keys.erase(std::remove(cs.option_keys.begin(), cs.option_keys.end(), "warmup"),
                       cs.option_keys.end());
  cs.warmup_path.clear();
  const std::string key = canonical_spec(cs);

  ShardLoadProvider load_provider;
  {
    std::lock_guard lk(mu_);
    const auto it = by_spec_.find(key);
    if (it != by_spec_.end()) return *it->second;
    load_provider = shard_load_;
  }
  // Build outside the lock (construction may compile the encoder —
  // milliseconds); racing builders are harmless, first insert wins and the
  // loser's codec is dropped (its compiled programs stay cached anyway).
  CodecSpec build = cs;
  if (opt_.plan_cache) build.options.plan_cache = opt_.plan_cache;
  std::shared_ptr<const Codec> codec(make_codec(build));

  // The load provider also runs OUTSIDE mu_: a sampler-backed provider
  // reads under its own lock, and its sampling thread takes mu_ through
  // stats() — invoking it under mu_ would order those locks both ways.
  std::vector<double> loads;
  if (load_provider) {
    try {
      loads = load_provider();
    } catch (...) {
      loads.clear();  // a broken provider degrades to round-robin
    }
  }

  std::lock_guard lk(mu_);
  const auto it = by_spec_.find(key);
  if (it != by_spec_.end()) return *it->second;
  auto pool = std::make_unique<Pool>();
  pool->spec = key;
  pool->codec = std::move(codec);
  pool->shard = pick_shard_locked(loads);
  ++shard_pools_[pool->shard];
  Pool& ref = *pool;
  by_spec_.emplace(key, &ref);
  pools_.push_back(std::move(pool));
  return ref;
}

size_t CodecService::pick_shard_locked(const std::vector<double>& loads) const {
  if (loads.size() != shards_.size()) return pools_.size() % shards_.size();
  size_t best = 0;
  for (size_t i = 1; i < loads.size(); ++i) {
    if (loads[i] < loads[best]) {
      best = i;
    } else if (loads[i] == loads[best] && shard_pools_[i] < shard_pools_[best]) {
      // Equal measured load (e.g. an idle service, all zeros) must not pile
      // every new pool on shard 0 — spread by current pool count instead.
      best = i;
    }
  }
  return best;
}

void CodecService::set_shard_load_provider(ShardLoadProvider provider) {
  std::lock_guard lk(mu_);
  shard_load_ = std::move(provider);
}

ServiceHandle CodecService::acquire(const std::string& spec) {
  const CodecSpec cs = parse_spec(spec);
  if (!cs.warmup_path.empty()) {
    // Each profile path replays at most once per service: repeated
    // acquires must not re-scan the file or reset the serving window the
    // first tenant's traffic is being measured in.
    bool replay = false;
    {
      std::lock_guard lk(mu_);
      replay = warmed_paths_.insert(cs.warmup_path).second;
    }
    if (replay) {
      // First boot has no profile yet: a missing file is a quiet cold
      // start; an unreadable or corrupt one still throws from warmup().
      if (std::ifstream(cs.warmup_path).good()) {
        try {
          warmup(cs.warmup_path);
        } catch (...) {
          // A failed replay must not poison the path: un-claim it so the
          // next acquire retries once the profile is fixed.
          std::lock_guard lk(mu_);
          warmed_paths_.erase(cs.warmup_path);
          throw;
        }
      }
    }
  }
  Pool& pool = pool_for(cs);
  pool.clients.fetch_add(1, std::memory_order_relaxed);
  return ServiceHandle(this, &pool);
}

CodecService::WarmupReport CodecService::warmup(const std::string& path) {
  const ec::PlanProfile profile = ec::load_plan_profile(path);
  WarmupReport report;
  const CacheStats before = cache_view();
  for (const ec::PlanProfile::Entry& entry : profile.entries) {
    Pool* pool = nullptr;
    try {
      pool = &pool_for(parse_spec(entry.spec));
    } catch (const std::invalid_argument&) {
      report.skipped += entry.patterns.size();  // family/option drift
      continue;
    }
    ++report.codecs;
    const Codec& codec = *pool->codec;
    // Replay the programs only: a plan is cached under its caller's id
    // order, and the recorded survivor subset is not one clients use.
    const ec::PlanCache::ProgramsOnlyScope programs_only;
    std::vector<uint32_t> available, erased;
    for (const std::vector<uint32_t>& pattern : entry.patterns) {
      // Decode keys replay against exactly the recorded survivor set, so
      // the recompile lands on the original cache key; encoder keys were
      // compiled at pool construction.
      if (!ec::BitmatrixCodecCore::pattern_ids(pattern, codec.total_fragments(),
                                               available, erased))
        continue;
      ++report.patterns;
      try {
        (void)codec.plan_reconstruct(available, erased);
      } catch (const std::exception&) {
        ++report.skipped;  // pattern no longer solvable under this config
      }
    }
  }
  const CacheStats after = cache_view();
  report.compiled = after.misses - before.misses;
  report.already_cached = after.hits - before.hits;
  // Serving traffic is measured from the end of the replay.
  std::lock_guard lk(mu_);
  baseline_hits_ = after.hits;
  baseline_misses_ = after.misses;
  return report;
}

size_t CodecService::save_profile(const std::string& path) const {
  ec::PlanProfile profile;
  {
    std::lock_guard lk(mu_);
    for (const auto& pool : pools_) {
      PlanFootprint fp = pool->codec->plan_footprint();
      if (!fp.has_identity()) continue;  // no compile path (isal, customs)
      profile.entries.push_back({pool->spec, fp.matrix_fp, fp.matrix_fp2, fp.config_fp,
                                 std::move(fp.patterns)});
    }
  }
  ec::save_plan_profile(path, profile);
  return profile.pattern_count();
}

void CodecService::flush() {
  for (const auto& shard : shards_) shard->queue.wait_idle();
}

ServiceStats CodecService::stats() const {
  ServiceStats out;
  out.uptime_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                     .count();
  out.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    ShardStats ss;
    ss.shard = i;
    ss.workers = s.queue.threads();
    // Depth BEFORE submitted: depth never exceeds the jobs submitted by the
    // time it is read, and submitted only grows — read the other way, a job
    // landing between the loads makes the snapshot show depth > submitted.
    ss.queue_depth = s.queue.depth();
    ss.submitted = s.submitted;
    ss.bytes_coded = s.bytes.load(std::memory_order_relaxed);
    ss.throughput_gBps =
        out.uptime_s > 0 ? static_cast<double>(ss.bytes_coded) / out.uptime_s / 1e9 : 0;
    out.shards.push_back(ss);
  }
  {
    std::lock_guard lk(mu_);
    for (size_t i = 0; i < shards_.size(); ++i)
      out.shards[i].pools = shard_pools_[i];
    // Snapshot the cache under the same lock that guards the baseline —
    // a concurrent warmup() resetting the window cannot push the baseline
    // past this snapshot (the clamp below guards belt-and-braces anyway,
    // since size_t underflow would report absurd hit counts).
    out.cache = cache_view();
    out.pools.reserve(pools_.size());
    for (const auto& pool : pools_) {
      PoolStats ps;
      ps.spec = pool->spec;
      ps.shard = pool->shard;
      ps.clients = pool->clients.load(std::memory_order_relaxed);
      ps.encodes = pool->encodes.load(std::memory_order_relaxed);
      ps.plans = pool->plans.load(std::memory_order_relaxed);
      ps.reconstructs = pool->reconstructs.load(std::memory_order_relaxed);
      ps.cached_programs = pool->codec->cached_program_count();
      ExecInfo ei = pool->codec->exec_info();
      ps.exec_backend = std::move(ei.backend);
      ps.exec_isa = std::move(ei.isa);
      ps.strips_read = pool->strips_read.load(std::memory_order_relaxed);
      ps.repair_bytes_in = pool->repair_bytes_in.load(std::memory_order_relaxed);
      ps.repair_bytes_out = pool->repair_bytes_out.load(std::memory_order_relaxed);
      ps.net_requests = pool->net_requests.load(std::memory_order_relaxed);
      ps.net_bytes_in = pool->net_bytes_in.load(std::memory_order_relaxed);
      ps.net_bytes_out = pool->net_bytes_out.load(std::memory_order_relaxed);
      out.pools.push_back(std::move(ps));
    }
    out.warm_hits = out.cache.hits > baseline_hits_ ? out.cache.hits - baseline_hits_ : 0;
    out.warm_misses =
        out.cache.misses > baseline_misses_ ? out.cache.misses - baseline_misses_ : 0;
  }
  return out;
}

}  // namespace xorec
