// The process-wide plan-compilation service: a sharded LRU cache of
// compiled SLP programs and of the finished repair plans built from them,
// keyed by (bitmatrix fingerprint, pipeline/executor config fingerprint,
// pattern key).
//
// The paper's central observation is that decode programs are *compiled
// artifacts* — RS(10, 4) alone has 1001 decode matrices (§7.1) and compiling
// one costs milliseconds (RePair + fusion + scheduling). Per-codec memoization
// (the old ec::detail::DecodeCache) re-paid that cost for every codec
// instance; keying on the *content* of the code matrix instead makes the
// cache process-shared by default: every `make_codec("rs(10,4)")` and every
// shard of a multi-codec service hits the same compiled entries. Entries are
// shared_ptr-owned, so eviction never invalidates a plan that is still
// executing, and a plan keeps the programs it runs alive after they are
// evicted.
//
// Two kinds of entry share one LRU, one capacity and one set of counters:
//   - programs (get_or_build): a miss compiles, counting in `misses` and
//     `compile_ns`;
//   - finished ReconstructPlans (find_plan / insert_plan), keyed on
//     {kPlanTag ++ available ++ SEP ++ erased} in the caller's id order,
//     because execute() takes buffers in that order. A warm plan_reconstruct
//     is one find_plan hit: nothing is laid out, sorted or summarized again.
//     A hit counts in `hits`; assembling a plan on a miss is not a compile
//     and counts nothing (its nested program lookups count as usual). A
//     hit also moves the plan's programs to the MRU end, so they outlive
//     the plan under capacity pressure and a profile lists them as hot.
// The tag never starts a program key, so the two key formats never collide.
// Plan entries are invisible to what describes compiled programs: size_for,
// patterns_for (and so warmup profiles and PlanFootprint) list programs only.
//
// Sharding: keys hash to one of N shards, each with its own mutex and LRU
// list, so concurrent planners on different patterns do not serialize.
// Compilation runs outside the shard lock; racing builders are harmless
// (first insert wins, both results are valid).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "api/codec.hpp"
#include "bitmatrix/bitmatrix.hpp"
#include "runtime/executor.hpp"
#include "slp/pipeline.hpp"

namespace xorec::ec {

/// An optimized SLP ready to run: the pipeline artifacts (for inspection),
/// the blocked executor, and the program's read summary.
struct CompiledProgram {
  slp::PipelineResult pipeline;
  runtime::Executor exec;
  /// Sorted, unique constant ids (input strips) the flat base SLP reads.
  /// The optimizer never introduces constants, so this is a safe superset
  /// of what every optimized form reads. Built once per compile, here, so
  /// repair-read accounting (ReconstructPlan::read_set) and the parity
  /// source mask cost O(strips read), not a scan of the whole program.
  std::vector<uint32_t> const_reads;

  /// Pre-fusion stages execute as binary XOR chains (the paper's Base/Co
  /// accounting: 3 memory accesses per XOR); fused/scheduled stages run
  /// n-ary single-pass kernels.
  CompiledProgram(slp::PipelineResult pipe, const runtime::ExecOptions& opt)
      : pipeline(std::move(pipe)),
        exec(runtime::compile(pipeline.final_form() == slp::ExecForm::Binary
                                  ? pipeline.final_program().binary_expanded()
                                  : pipeline.final_program()),
             opt),
        const_reads(constants_read(pipeline.base)) {}

  /// The sorted, unique constant ids referenced anywhere in `p`'s body.
  static std::vector<uint32_t> constants_read(const slp::Program& p);
};

/// Cache key. `matrix_fp`/`matrix_fp2` are two independent content
/// fingerprints of the codec's parity bitmatrix (plus its geometry) — a
/// shared-cache hit serves another codec's compiled program, so identity
/// rests on 128 bits of independent hash, not 64. `config_fp` fingerprints
/// the pipeline + executor options, and `pattern` is the per-program role:
/// {erased ++ SEP ++ inputs} for decoders, {parity_ids ++ SEP ++ SEP} for
/// parity re-encode subsets, {} for the encoder itself
/// (BitmatrixCodecCore builds these), and {kPlanTag ++ available ++ SEP ++
/// erased} for finished plans.
struct PlanKey {
  /// First word of every plan key; a program key starts with a fragment id,
  /// a SEP (UINT32_MAX) or nothing.
  static constexpr uint32_t kPlanTag = UINT32_MAX - 1;

  uint64_t matrix_fp = 0;
  uint64_t matrix_fp2 = 0;
  uint64_t config_fp = 0;
  std::vector<uint32_t> pattern;

  bool operator==(const PlanKey&) const = default;
  size_t hash() const;
  bool is_plan() const { return !pattern.empty() && pattern.front() == kPlanTag; }
};

class PlanCache {
 public:
  static constexpr size_t kDefaultShards = 8;

  /// `capacity` bounds the total entry count (0 = unbounded); it is split
  /// evenly across `shards` independent LRU shards, so eviction order is
  /// exact per shard and approximate cache-wide. Use shards = 1 when exact
  /// global LRU order matters (tests, tiny private caches).
  explicit PlanCache(size_t capacity, size_t shards = kDefaultShards);
  ~PlanCache();

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  using Builder = std::function<std::shared_ptr<CompiledProgram>()>;

  /// Returns the cached program or builds, stores and returns it. The build
  /// runs outside the shard lock; its wall time lands in stats().compile_ns.
  std::shared_ptr<CompiledProgram> get_or_build(const PlanKey& key, const Builder& build);

  /// The finished plan cached under `key` (a plan key), or null. A hit
  /// counts in stats().hits and moves the plan, then the programs it runs,
  /// to the MRU end (the program refresh counts nothing); a miss counts
  /// nothing. Allocates nothing.
  std::shared_ptr<const ReconstructPlan> find_plan(const PlanKey& key);
  /// Store `plan` under `key` and return it, or return the plan a racing
  /// builder stored first. `uses` are the program keys the plan runs, which
  /// each find_plan hit refreshes. Counts nothing: assembling a plan is not
  /// a compile.
  std::shared_ptr<const ReconstructPlan> insert_plan(const PlanKey& key,
                                                     std::shared_ptr<const ReconstructPlan> plan,
                                                     std::vector<PlanKey> uses);

  /// While one is alive on a thread, that thread's find_plan misses and
  /// insert_plan stores nothing, so its plan_reconstruct calls compile and
  /// cache programs only. Warmup replays a profile's program keys this
  /// way, without adding plans under id orders no client asked for.
  class ProgramsOnlyScope {
   public:
    ProgramsOnlyScope();
    ~ProgramsOnlyScope();
    ProgramsOnlyScope(const ProgramsOnlyScope&) = delete;
    ProgramsOnlyScope& operator=(const ProgramsOnlyScope&) = delete;

   private:
    bool outer_;
  };

  /// Cache-wide counters (entries, hits, misses, evictions, compile time).
  /// Counters are scoped to THIS instance — a private codec cache's traffic
  /// never leaks into the shared service's hit rate, or vice versa.
  CacheStats stats() const;
  /// Sum of stats() over every live PlanCache in the process (the shared
  /// service and all private/injected caches): the truly global view
  /// xorec::plan_cache_stats() reports. Caches that have been destroyed
  /// take their counters with them.
  static CacheStats aggregate_stats();
  size_t size() const;
  /// Programs belonging to one codec identity — the per-codec "cache size"
  /// view onto the shared cache (plan entries are not counted).
  size_t size_for(uint64_t matrix_fp, uint64_t config_fp) const;
  /// The program pattern keys cached for one codec identity, MRU-first per
  /// shard — the replayable half of a warmup profile (ec/plan_cache_io.hpp).
  /// Plan keys are left out.
  std::vector<std::vector<uint32_t>> patterns_for(uint64_t matrix_fp,
                                                  uint64_t config_fp) const;
  /// Drop every entry (counters keep accumulating). In-flight plans keep
  /// their programs alive via shared ownership.
  void clear();

  /// The process-shared default instance every codec uses unless configured
  /// `cache=private` / given an explicit cache.
  static const std::shared_ptr<PlanCache>& process_shared();

  /// Content fingerprint of a codec identity: the parity bitmatrix words
  /// plus the (k, m, w) geometry — the same packed dimensions can arise
  /// from different block/strip splits, and pattern keys are block ids.
  /// Returns two independent 64-bit hashes (PlanKey::matrix_fp/matrix_fp2).
  static std::pair<uint64_t, uint64_t> fingerprint_matrix(const bitmatrix::BitMatrix& m,
                                                          size_t data_blocks,
                                                          size_t parity_blocks,
                                                          size_t strips_per_block);
  static uint64_t fingerprint_config(const slp::PipelineOptions& pipeline,
                                     const runtime::ExecOptions& exec);

 private:
  /// One cached artifact: a program, or (under a plan key) a finished plan.
  struct Entry {
    std::shared_ptr<CompiledProgram> program;
    std::shared_ptr<const ReconstructPlan> plan;
    std::shared_ptr<const std::vector<PlanKey>> uses;  // a plan's program keys
    std::list<PlanKey>::iterator pos;                  // in Shard::order
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<PlanKey> order;  // front = MRU
    struct Hash {
      size_t operator()(const PlanKey& k) const { return k.hash(); }
    };
    std::unordered_map<PlanKey, Entry, Hash> map;
  };

  Shard& shard_of(const PlanKey& key) const { return *shards_[key.hash() % shards_.size()]; }
  /// The entry under `key` moved to MRU, or null. Counts nothing.
  /// Caller holds s.mu.
  const Entry* touch(Shard& s, const PlanKey& key);
  /// Insert `e` under `key` unless present (first insert wins) and evict
  /// past capacity; returns the entry now cached. Caller holds s.mu.
  const Entry& insert(Shard& s, const PlanKey& key, Entry e);

  size_t per_shard_cap_;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses for the mutexes
  std::atomic<size_t> hits_{0}, misses_{0}, evictions_{0};
  std::atomic<uint64_t> compile_ns_{0};
};

}  // namespace xorec::ec
