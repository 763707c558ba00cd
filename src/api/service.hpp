// CodecService: the process-level serving façade over everything below it —
// the ROADMAP's "sharded multi-codec service" scale step.
//
// A storage frontend serving many tenants does not want to hand-assemble
// make_codec + worker threads + plan wiring per request; it wants a pool:
//
//   xorec::CodecService service;                     // N-way sharded
//   auto h = service.acquire("rs(10,4)@block=1024"); // pooled codec lease
//   h.encode(data_ptrs, parity_ptrs, frag_len);      // routed to h's shard
//   auto plan = h.plan_reconstruct(available, erased);
//   h.reconstruct(plan, avail_ptrs, out_ptrs, frag_len).get();
//   xorec::ServiceStats s = service.stats();         // per-shard + per-pool
//
// Pooling: specs are canonicalized (canonical_spec) before lookup, so
// "rs(10,4)@block=1024,sched=dfs" and "rs(10, 4) @ sched=dfs, block=1024"
// lease ONE codec instance — and, through the shared PlanCache, one set of
// compiled programs. Each pool entry is pinned round-robin to a shard; a
// shard is one runtime::TaskQueue (dedicated workers), so traffic for
// different pools proceeds in parallel while the shard's workers start one
// pool's jobs FIFO. A caller that get()s a job no worker has started yet
// runs it itself (runtime::TaskFuture), so callers of one pool are not
// serialized behind its shard's single worker. A job over a large stripe
// also lends its block rows to the shard's idle workers
// (runtime/executor.hpp).
//
// Buffer ownership: the pointer ARRAYS passed to encode/reconstruct/rebuild
// are copied at submission; the fragment BUFFERS they point to stay
// caller-owned and must outlive the job (future ready / flush() returned).
// An exception a job throws (e.g. an unrecoverable pattern on the plan-less
// rebuild path) is captured in that job's future; flush() never throws it.
//
// Warmup/persistence: the plan cache amortizes compilation only when reused,
// and a fresh process starts cold. save_profile(path) persists the service's
// plan-cache KEY SET (specs + erasure patterns — ec/plan_cache_io.hpp, not
// compiled code); warmup(path) replays it at startup, recompiling every hot
// pattern before traffic arrives. A spec can also carry `warmup=PATH` —
// acquire() runs the replay when the profile exists and skips it quietly
// when it does not (first boot). stats() reports the plan-cache hit rate
// since the warmup point, which is the serving-time metric: a warmed
// process serves its replayed patterns at ~100% hits.
//
// Threading: every member is thread-safe. Handles are value types; they
// remain valid for the service's lifetime (pools are never dropped) and
// must not outlive it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "api/codec.hpp"
#include "runtime/task_queue.hpp"

namespace xorec::ec {
class PlanCache;
}

namespace xorec {

class CodecService;
struct CodecSpec;  // api/registry.hpp

/// One shard's routing counters. Throughput is averaged over the service's
/// uptime (bytes of payload moved by routed jobs / seconds alive) — a
/// windowed rate lives in obs::Sampler, not here.
struct ShardStats {
  size_t shard = 0;
  size_t workers = 0;
  size_t pools = 0;        // pools currently pinned to this shard
  size_t submitted = 0;    // jobs routed to this shard so far
  size_t queue_depth = 0;  // jobs submitted but not yet finished, right now
  uint64_t bytes_coded = 0;  // payload bytes of routed jobs (data in + rebuilt out)
  /// GigaBYTES per second (bytes_coded / uptime / 1e9). The capital B is
  /// load-bearing: an earlier revision shipped this as `throughput_gbps`,
  /// a gigaBIT name over a gigabyte value.
  double throughput_gBps = 0;
};

/// One pool entry's counters: a pooled codec and the clients leasing it.
struct PoolStats {
  std::string spec;  // canonical pool key
  size_t shard = 0;  // the shard carrying this pool's traffic
  size_t clients = 0;       // acquire() calls resolved to this pool
  /// Routed jobs, counting an ObjectCodec over a lease too: its blob
  /// encode is one encode job, its degraded decode one rebuild job.
  size_t encodes = 0;       // routed encode jobs
  size_t plans = 0;         // plan_reconstruct calls through handles
  size_t reconstructs = 0;  // routed reconstruct/rebuild jobs
  size_t cached_programs = 0;  // plan-cache entries for this codec identity
  /// Repair traffic of the routed reconstruct/rebuild jobs — what a repair
  /// orchestrator moves over the network. `strips_read` and bytes-in follow
  /// each plan's read_set() (reduced-read families charge less than plain
  /// RS); plan-less rebuild() jobs charge every survivor in full.
  size_t strips_read = 0;        // survivor strips read by repair jobs
  uint64_t repair_bytes_in = 0;  // survivor bytes read by repair jobs
  uint64_t repair_bytes_out = 0; // rebuilt bytes written by repair jobs
  /// Wire traffic attributed to this pool by the network front-end
  /// (net::NetServer / DatagramReceiver call note_net_request per served
  /// request or stripe group); zero for purely in-process pools.
  size_t net_requests = 0;
  uint64_t net_bytes_in = 0;
  uint64_t net_bytes_out = 0;
  /// The execution backend/ISA this pool's codec resolved to (Codec::
  /// exec_info) — e.g. "lowered"/"avx512". Empty for non-SLP codecs.
  std::string exec_backend;
  std::string exec_isa;
};

struct ServiceStats {
  std::vector<ShardStats> shards;
  std::vector<PoolStats> pools;  // in pool-creation order
  /// The service's plan-cache view: the injected cache's counters, else the
  /// process-shared instance's (NOT the all-caches aggregate — a private
  /// codec elsewhere must not pollute the serving hit rate).
  CacheStats cache;
  /// Plan-cache traffic since the warmup point (end of the last warmup(),
  /// else service construction): the serving-time hit rate. A warmed
  /// process replays its profile before this window opens, so client
  /// lookups land ~100% hits; a cold one compiles inside the window.
  /// Scope caveat: the window is a delta of the service's cache view, so
  /// with the default process-shared cache OTHER shared-cache codecs in
  /// the process (a second service, bare make_codec traffic) land in it
  /// too; inject Options::plan_cache for an exact per-service window.
  size_t warm_hits = 0, warm_misses = 0;
  double uptime_s = 0;

  double warm_hit_rate() const {
    const size_t total = warm_hits + warm_misses;
    return total ? static_cast<double>(warm_hits) / static_cast<double>(total) : 0.0;
  }
};

/// A client's lease on one pooled codec: cheap to copy, routed through the
/// pool's shard queue. Obtain from CodecService::acquire.
class ServiceHandle {
 public:
  const Codec& codec() const;
  std::shared_ptr<const Codec> codec_ptr() const;
  /// Canonical pool key this lease resolved to.
  const std::string& spec() const;
  size_t shard() const;

  /// Encode one stripe on the pool's shard: data_fragments() input
  /// pointers, parity_fragments() output pointers, frag_len as in
  /// Codec::encode (buffer rules at the top of this file).
  runtime::TaskFuture encode(const uint8_t* const* data, uint8_t* const* parity,
                             size_t frag_len) const;

  /// Solve an erasure pattern once (counted in PoolStats::plans); share the
  /// plan across stripes and submit executions below.
  std::shared_ptr<const ReconstructPlan> plan_reconstruct(
      const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const;

  /// Execute a prepared plan over one stripe on the pool's shard:
  /// available_frags parallel to plan->available(), out to plan->erased().
  /// Throws std::invalid_argument on a null plan.
  runtime::TaskFuture reconstruct(std::shared_ptr<const ReconstructPlan> plan,
                                  const uint8_t* const* available_frags,
                                  uint8_t* const* out, size_t frag_len) const;

  /// Plan-less repair of one stripe (lookup memoized inside the job);
  /// unrecoverable patterns surface via the future.
  runtime::TaskFuture rebuild(std::vector<uint32_t> available,
                              const uint8_t* const* available_frags,
                              std::vector<uint32_t> erased, uint8_t* const* out,
                              size_t frag_len) const;

  /// Jobs on this pool's shard submitted but not yet finished (the shard's
  /// TaskQueue::depth()) — what NetServer's backpressure reads.
  size_t queue_depth() const;

  /// Attribute one served network request's wire bytes to this pool
  /// (PoolStats::net_*) — called by the net front-end, not by codecs.
  void note_net_request(uint64_t bytes_in, uint64_t bytes_out) const;

 private:
  friend class CodecService;
  ServiceHandle(CodecService* service, void* pool) : service_(service), pool_(pool) {}
  CodecService* service_;
  void* pool_;  // CodecService::Pool — opaque to keep the layout private
};

class CodecService {
 public:
  static constexpr size_t kDefaultShards = 4;

  struct Options {
    size_t shards = 0;             // 0 = kDefaultShards
    size_t workers_per_shard = 1;  // TaskQueue workers per shard; 0 runs one
    /// Plan-cache the pooled codecs compile through: null = honor each
    /// spec's own cache= choice (process-shared by default). Injecting a
    /// cache gives the service an isolated compilation domain — tests and
    /// multi-tenant isolation use this.
    std::shared_ptr<ec::PlanCache> plan_cache;
  };

  CodecService() : CodecService(Options()) {}
  explicit CodecService(Options opt);
  /// Drains every shard (all routed jobs finish), then joins the workers.
  ~CodecService();

  CodecService(const CodecService&) = delete;
  CodecService& operator=(const CodecService&) = delete;

  /// Lease the pooled codec for `spec` (canonicalized; pool created on
  /// first use, pinned round-robin to a shard). A `warmup=PATH` key replays
  /// that profile first and is stripped from the pool key; each path
  /// replays at most once per service, a missing file is a quiet cold
  /// start (first boot), and a corrupt one throws like warmup() does.
  /// Throws std::invalid_argument on bad specs.
  ServiceHandle acquire(const std::string& spec);

  struct WarmupReport {
    size_t codecs = 0;          // profile entries replayed (pools touched)
    size_t patterns = 0;        // pattern keys replayed
    size_t compiled = 0;        // cache misses the replay paid (cold entries)
    size_t already_cached = 0;  // replayed patterns that were already warm
    size_t skipped = 0;         // unparseable/unsolvable records (version drift)
  };

  /// Replay a saved profile: acquire each recorded spec and precompile each
  /// recorded erasure pattern, then reset the warm-hit-rate window (stats()
  /// measures serving traffic from here). Throws std::runtime_error when
  /// the file cannot be read or parsed; records that no longer apply are
  /// counted in `skipped`, not fatal.
  WarmupReport warmup(const std::string& path);

  /// Persist every pool's plan-cache footprint (specs + pattern keys, not
  /// code) for the next process's warmup(). Returns patterns written.
  size_t save_profile(const std::string& path) const;

  /// Barrier: every job routed so far has finished.
  void flush();

  size_t shard_count() const { return shards_.size(); }

  /// Measured per-shard load, indexed by shard id — what depth-driven
  /// placement consumes (obs::Sampler::drive_placement installs its
  /// window-mean TaskQueue depths here).
  using ShardLoadProvider = std::function<std::vector<double>()>;

  /// Route NEW pools to the least-loaded shard per `provider` instead of
  /// round-robin. Called OUTSIDE the service lock, so a provider may take
  /// its own locks (and even call stats()); a throwing provider, an empty
  /// one ({}), or a load vector of the wrong size falls back to
  /// round-robin. Existing pools keep their pins.
  void set_shard_load_provider(ShardLoadProvider provider);

  /// A consistent-enough snapshot under load: per-counter atomic reads —
  /// totals may trail in-flight traffic by a job, never tear.
  ServiceStats stats() const;

 private:
  friend class ServiceHandle;
  struct Pool;
  struct Shard;

  Pool& pool_for(const CodecSpec& parsed);  // acquire minus the warmup= side effect
  /// The shard for the next new pool: argmin of `loads` (tie-broken by
  /// fewest pools, then lowest index), or round-robin when `loads` is
  /// absent/mis-sized. Caller holds mu_.
  size_t pick_shard_locked(const std::vector<double>& loads) const;

  Options opt_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex mu_;  // guards pools_ / by_spec_ / baseline_ / shard_pools_ / shard_load_
  std::vector<std::unique_ptr<Pool>> pools_;  // creation order; never erased
  std::vector<size_t> shard_pools_;  // pools pinned per shard (placement tie-break)
  ShardLoadProvider shard_load_;     // copied out of mu_ before invocation
  std::unordered_map<std::string, Pool*> by_spec_;
  std::unordered_set<std::string> warmed_paths_;  // warmup= replays once per path
  std::chrono::steady_clock::time_point start_;
  size_t baseline_hits_ = 0, baseline_misses_ = 0;  // warm-window origin

  CacheStats cache_view() const;
};

}  // namespace xorec
