#include "ec/plan_cache.hpp"

#include <algorithm>
#include <chrono>

namespace xorec::ec {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv_mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

/// Second, independent mixer (splitmix64 finalizer) so matrix identity
/// rests on 128 bits of unrelated hash, not one FNV stream.
uint64_t splitmix_mix(uint64_t h, uint64_t v) {
  h += 0x9e3779b97f4a7c15ull + v;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Default capacity of the process-shared cache: generous enough that a
/// multi-codec service never recompiles its hot patterns (RS(10,4)'s full
/// decode space is 1001 programs), small enough to bound memory.
constexpr size_t kSharedCapacity = 4096;

/// Every live PlanCache, so aggregate_stats() can sum the per-instance
/// counters. Leaky singleton: it must outlive the process_shared() static
/// and any cache destroyed during static teardown.
struct InstanceRegistry {
  std::mutex mu;
  std::vector<const PlanCache*> caches;
};

InstanceRegistry& instances() {
  static InstanceRegistry* r = new InstanceRegistry;
  return *r;
}

}  // namespace

std::vector<uint32_t> CompiledProgram::constants_read(const slp::Program& p) {
  // A bitmap, not sort+unique over every operand: the result lives as long
  // as the program, so its capacity should be the id count, not the operand
  // count. Constant ids of a valid program are below num_consts.
  std::vector<bool> read(p.num_consts, false);
  for (const slp::Instruction& ins : p.body)
    for (const slp::Term& t : ins.args)
      if (t.is_const()) read[t.id] = true;
  std::vector<uint32_t> ids;
  ids.reserve(static_cast<size_t>(std::count(read.begin(), read.end(), true)));
  for (uint32_t id = 0; id < read.size(); ++id)
    if (read[id]) ids.push_back(id);
  return ids;
}

size_t PlanKey::hash() const {
  uint64_t h = kFnvOffset;
  h = fnv_mix(h, matrix_fp);
  h = fnv_mix(h, matrix_fp2);
  h = fnv_mix(h, config_fp);
  for (uint32_t v : pattern) h = fnv_mix(h, v);
  return static_cast<size_t>(h);
}

PlanCache::PlanCache(size_t capacity, size_t shards) {
  const size_t n = shards ? shards : 1;
  per_shard_cap_ = capacity == 0 ? 0 : std::max<size_t>(1, (capacity + n - 1) / n);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  InstanceRegistry& reg = instances();
  std::lock_guard lk(reg.mu);
  reg.caches.push_back(this);
}

PlanCache::~PlanCache() {
  InstanceRegistry& reg = instances();
  std::lock_guard lk(reg.mu);
  reg.caches.erase(std::find(reg.caches.begin(), reg.caches.end(), this));
}

std::shared_ptr<CompiledProgram> PlanCache::get_or_build(const PlanKey& key,
                                                         const Builder& build) {
  Shard& s = shard_of(key);
  {
    std::lock_guard lk(s.mu);
    auto it = s.map.find(key);
    if (it != s.map.end()) {
      s.order.splice(s.order.begin(), s.order, it->second.second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second.first;
    }
  }
  // Compile outside the lock (milliseconds of RePair + scheduling); racing
  // builders are harmless — first insert wins and both results are valid.
  misses_.fetch_add(1, std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<CompiledProgram> built = build();
  compile_ns_.fetch_add(static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                                  std::chrono::steady_clock::now() - t0)
                                                  .count()),
                        std::memory_order_relaxed);

  std::lock_guard lk(s.mu);
  auto it = s.map.find(key);
  if (it != s.map.end()) return it->second.first;
  s.order.push_front(key);
  s.map.emplace(key, std::make_pair(built, s.order.begin()));
  if (per_shard_cap_ != 0 && s.map.size() > per_shard_cap_) {
    s.map.erase(s.order.back());
    s.order.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  return built;
}

CacheStats PlanCache::stats() const {
  CacheStats cs;
  cs.entries = size();
  cs.hits = hits_.load(std::memory_order_relaxed);
  cs.misses = misses_.load(std::memory_order_relaxed);
  cs.evictions = evictions_.load(std::memory_order_relaxed);
  cs.compile_ns = compile_ns_.load(std::memory_order_relaxed);
  cs.shared = this == process_shared().get();
  return cs;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    n += s->map.size();
  }
  return n;
}

CacheStats PlanCache::aggregate_stats() {
  // stats() compares against process_shared(); construct it now so its
  // registration does not re-enter the registry mutex held below.
  (void)process_shared();
  // Registry mutex, then each cache's shard mutexes (inside stats());
  // nothing locks in the other order.
  CacheStats total;
  total.shared = true;  // the process-wide view
  InstanceRegistry& reg = instances();
  std::lock_guard lk(reg.mu);
  for (const PlanCache* c : reg.caches) {
    const CacheStats s = c->stats();
    total.entries += s.entries;
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.compile_ns += s.compile_ns;
  }
  return total;
}

size_t PlanCache::size_for(uint64_t matrix_fp, uint64_t config_fp) const {
  size_t n = 0;
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    for (const auto& [key, _] : s->map)
      if (key.matrix_fp == matrix_fp && key.config_fp == config_fp) ++n;
  }
  return n;
}

std::vector<std::vector<uint32_t>> PlanCache::patterns_for(uint64_t matrix_fp,
                                                           uint64_t config_fp) const {
  std::vector<std::vector<uint32_t>> out;
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    for (const PlanKey& key : s->order)  // front = MRU
      if (key.matrix_fp == matrix_fp && key.config_fp == config_fp)
        out.push_back(key.pattern);
  }
  return out;
}

void PlanCache::clear() {
  for (const auto& s : shards_) {
    std::lock_guard lk(s->mu);
    s->map.clear();
    s->order.clear();
  }
}

const std::shared_ptr<PlanCache>& PlanCache::process_shared() {
  static const std::shared_ptr<PlanCache> cache =
      std::make_shared<PlanCache>(kSharedCapacity, kDefaultShards);
  return cache;
}

std::pair<uint64_t, uint64_t> PlanCache::fingerprint_matrix(const bitmatrix::BitMatrix& m,
                                                            size_t data_blocks,
                                                            size_t parity_blocks,
                                                            size_t strips_per_block) {
  uint64_t h1 = kFnvOffset;
  uint64_t h2 = 0x6a09e667f3bcc908ull;  // arbitrary non-FNV seed
  const auto mix = [&](uint64_t v) {
    h1 = fnv_mix(h1, v);
    h2 = splitmix_mix(h2, v);
  };
  mix(data_blocks);
  mix(parity_blocks);
  mix(strips_per_block);
  mix(m.rows());
  mix(m.cols());
  for (size_t r = 0; r < m.rows(); ++r)
    for (uint64_t w : m.row(r).words()) mix(w);
  return {h1, h2};
}

uint64_t PlanCache::fingerprint_config(const slp::PipelineOptions& pipeline,
                                       const runtime::ExecOptions& exec) {
  uint64_t h = kFnvOffset;
  h = fnv_mix(h, static_cast<uint64_t>(pipeline.compress));
  h = fnv_mix(h, pipeline.fuse ? 1 : 0);
  h = fnv_mix(h, static_cast<uint64_t>(pipeline.schedule));
  // Only the greedy scheduler reads its capacity: codecs on another
  // schedule that differ in it alone compile identical programs.
  if (pipeline.schedule == slp::ScheduleKind::Greedy) h = fnv_mix(h, pipeline.greedy_capacity);
  h = fnv_mix(h, exec.block_size);
  h = fnv_mix(h, static_cast<uint64_t>(exec.isa));
  h = fnv_mix(h, exec.stagger_scratch ? 1 : 0);
  // interp and lowered executors never collide in the shared cache.
  h = fnv_mix(h, static_cast<uint64_t>(exec.backend));
  return h;
}

}  // namespace xorec::ec
