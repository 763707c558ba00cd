// The unified erasure-coding interface: every codec in the library — RS as
// an optimized XOR SLP, the array codes (EVENODD / RDP / STAR), wide-symbol
// RS over GF(2^16), the GF-table ISA-L-style baseline — implements this one
// contract, so blob storage, benches and tests are written once against it.
//
// Data model: an object is split into data_fragments() equal fragments;
// encode() fills parity_fragments() parity fragments; reconstruct() rebuilds
// any erased fragments (data and/or parity) from the survivors. Fragment
// lengths must be positive multiples of fragment_multiple() — the number of
// strips a codec slices each fragment into (8 for RS over GF(2^8), p-1 for
// the array codes, 1 for byte-oriented codecs).
//
// Plan/execute: repair is two phases. plan_reconstruct() solves an erasure
// pattern ONCE — deriving and compiling the repair program — and returns an
// immutable, shareable ReconstructPlan; ReconstructPlan::execute() then runs
// that program over any number of stripes with zero re-solving. The one-shot
// reconstruct() below is a thin plan-lookup-and-execute over the same
// machinery (the built-in codecs cache finished plans per caller id order,
// so a repeated one-shot call is a cache hit plus the execute; the plan
// object additionally skips that lookup and is the handle batch sessions
// take).
//
// Argument validation happens here, at the API boundary: bad fragment
// lengths, out-of-range ids, and duplicated or overlapping id sets all
// throw before any codec touches a buffer. Survivor-count policy is the
// codec's own job (MDS codecs require data_fragments() survivors; XOR codes
// defer to their F2 solver) — implementations must reject patterns they
// cannot recover with std::invalid_argument, and may otherwise assume
// validated inputs in the *_impl hooks.
//
// Instances are obtained from the string-spec registry (api/registry.hpp):
//   auto codec = xorec::make_codec("rs(10,4)");
// or constructed directly (ec::RsCodec, altcodes::XorCodec, ...).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace xorec::slp {
struct PipelineResult;
}

namespace xorec {

/// Static cost measures of the compiled repair program(s) a plan executes,
/// in the paper's accounting (slp/metrics.hpp). All-zero for plans that do
/// not run through the SLP pipeline (the GF-table baseline, fallbacks).
struct PlanStats {
  size_t xor_ops = 0;       // Σ real XORs across steps (#⊕)
  size_t instructions = 0;  // Σ SLP instructions across steps
  size_t mem_accesses = 0;  // Σ #M across steps
  size_t nvar = 0;          // max live variables over any step
  size_t ccap = 0;          // max abstract-cache demand over any step
  size_t steps = 0;         // compiled programs this plan executes (0..2)
};

/// Counters of the plan-compilation cache a codec draws its compiled
/// programs from (ec::PlanCache). When the codec uses the process-shared
/// cache (the default), the counters are service-wide — every codec
/// instance contributes; `shared` says which view this is. All-zero for
/// codecs that do not compile programs (the GF-table baseline).
struct CacheStats {
  size_t entries = 0;      // programs and finished plans currently cached
  size_t hits = 0;         // program or plan lookups served from the cache
  size_t misses = 0;       // program lookups that compiled
  size_t evictions = 0;    // entries LRU-evicted (capacity pressure)
  uint64_t compile_ns = 0; // total wall time spent compiling on misses
  /// True for a process-wide view (the shared service cache, or the
  /// all-instances aggregate xorec::plan_cache_stats() returns); false for
  /// one private codec cache's counters.
  bool shared = false;
};

/// What a plan's execute() actually READS from the survivor buffers — the
/// repair-traffic measure of a recovery plan. A plain RS repair reads k full
/// fragments; the reduced-read families (lrc, piggyback) compile plans that
/// touch fewer fragments and/or fewer strips per fragment, and this is where
/// that saving becomes visible to a caller (the cluster repair orchestrator
/// prices network moves with it). Derived from the compiled programs' flat
/// base SLPs, which are a safe superset of every optimized form — so the set
/// is an upper bound on actual reads, never an undercount.
struct PlanReadSet {
  /// Survivor fragment ids the plan dereferences, sorted ascending —
  /// a subset of ReconstructPlan::available().
  std::vector<uint32_t> fragments;
  /// Strips read per entry of `fragments` (parallel). Each fragment holds
  /// fragment_multiple() strips, so a partial read of a fragment (piggyback
  /// reads only the last substripe of most blocks) counts < that.
  std::vector<uint32_t> fragment_strips;
  /// Total distinct input strips read across all steps (Σ fragment_strips).
  size_t strips = 0;
};

/// The execution backend a codec's compiled programs actually run on, after
/// isa=auto resolution, host-capability degrade and the XOREC_FORCE_ISA
/// override — e.g. {"lowered", "avx512"}. Empty strings for codecs without
/// a blocked executor (the GF-table baseline, custom codecs).
struct ExecInfo {
  std::string backend;
  std::string isa;
};

/// A codec's footprint in its plan-compilation cache: the fingerprints its
/// programs are keyed under and the pattern keys currently cached
/// (MRU-first per cache shard). All-zero fingerprints mean the codec does
/// not compile programs (the GF-table baseline, custom fallbacks).
/// CodecService persists footprints as a warmup profile (ec/plan_cache_io)
/// and replays them at startup to precompile the hot patterns.
struct PlanFootprint {
  uint64_t matrix_fp = 0;
  uint64_t matrix_fp2 = 0;
  uint64_t config_fp = 0;
  std::vector<std::vector<uint32_t>> patterns;

  bool has_identity() const { return matrix_fp || matrix_fp2 || config_fp; }
};

/// A validated, immutable, cacheable repair program for ONE erasure pattern
/// of ONE codec geometry: the available/erased id sets are fixed at plan
/// time, all solving and compiling is done, and execute() only moves bytes.
/// Obtain from Codec::plan_reconstruct; share freely across threads and
/// stripes (execute is const and thread-safe).
///
/// Lifetime: plans produced by the built-in codecs are self-contained (they
/// hold shared ownership of their compiled programs) and may outlive the
/// codec. The base-class fallback plan (used only by Codec subclasses that
/// do not override plan_reconstruct_impl) borrows the codec and must not
/// outlive it.
class ReconstructPlan {
 public:
  virtual ~ReconstructPlan() = default;

  /// Name of the codec this plan was derived from, e.g. "rs(10,4)".
  const std::string& codec_name() const { return codec_name_; }
  /// The surviving fragment ids execute() expects buffers for, in order.
  const std::vector<uint32_t>& available() const { return available_; }
  /// The fragment ids execute() writes, parallel to its `out` array.
  const std::vector<uint32_t>& erased() const { return erased_; }

  /// Real XOR count of the compiled repair program (the paper's #⊕);
  /// 0 for non-SLP plans. Shorthand for schedule_stats().xor_ops.
  size_t xor_count() const { return schedule_stats().xor_ops; }

  /// Full static cost measures (computed lazily on first call, then cached).
  const PlanStats& schedule_stats() const;

  /// Strips a codec slices each fragment into (the codec's
  /// fragment_multiple() at plan time) — the strip granularity of read_set().
  size_t fragment_multiple() const { return fragment_multiple_; }

  /// The survivor fragments/strips this plan reads (computed lazily, then
  /// cached). Default: every fragment of available(), all strips — correct
  /// for fallback and non-SLP plans; the compiled bitmatrix plans override
  /// compute_read_set() with the true (reduced) set.
  const PlanReadSet& read_set() const;

  /// Optimizer artifacts of the data-decode step, where applicable (null
  /// for parity-only plans, non-SLP codecs and fallbacks).
  virtual const slp::PipelineResult* decode_pipeline() const { return nullptr; }

  /// Run the repair: `available_frags` parallel to available(), `out`
  /// writable buffers parallel to erased(). frag_len must be a positive
  /// multiple of the codec's fragment_multiple() (it may differ from call
  /// to call — the plan is geometry-, not length-bound). No re-solving.
  void execute(const uint8_t* const* available_frags, uint8_t* const* out,
               size_t frag_len) const;

 protected:
  ReconstructPlan(std::string codec_name, size_t fragment_multiple,
                  std::vector<uint32_t> available, std::vector<uint32_t> erased);

  virtual void execute_impl(const uint8_t* const* available_frags, uint8_t* const* out,
                            size_t frag_len) const = 0;
  /// Compute the stats once; called lazily under a once-flag.
  virtual PlanStats compute_stats() const { return {}; }
  /// Compute the read set once; called lazily under a once-flag. The default
  /// charges every survivor in full (no compiled program to inspect).
  virtual PlanReadSet compute_read_set() const;

 private:
  std::string codec_name_;
  size_t fragment_multiple_;
  std::vector<uint32_t> available_, erased_;
  mutable std::once_flag stats_once_;
  mutable PlanStats stats_;
  mutable std::once_flag read_set_once_;
  mutable PlanReadSet read_set_;
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual size_t data_fragments() const = 0;
  virtual size_t parity_fragments() const = 0;
  size_t total_fragments() const { return data_fragments() + parity_fragments(); }

  /// Fragment lengths must be positive multiples of this.
  virtual size_t fragment_multiple() const = 0;

  /// Normalized spec of this codec, e.g. "rs(10,4)" or "evenodd(p=11)".
  virtual std::string name() const = 0;

  /// Optimizer artifacts of the encoding SLP, for inspection/benches.
  /// Null for codecs that do not run through the SLP pipeline.
  virtual const slp::PipelineResult* encode_pipeline() const { return nullptr; }

  /// Counters of the plan cache this codec compiles through (process-shared
  /// by default — see xorec::plan_cache_stats() for the all-caches view).
  /// All-zero for codecs without an SLP compile path.
  virtual CacheStats cache_stats() const { return {}; }

  /// This codec's plan-cache footprint (identity fingerprints + cached
  /// pattern keys) — what a warmup profile records. Default: no footprint.
  virtual PlanFootprint plan_footprint() const { return {}; }

  /// Just the number of programs cached for this codec's identity — the
  /// cheap counterpart of plan_footprint() for stats polling (no pattern
  /// materialization). Default: none.
  virtual size_t cached_program_count() const { return 0; }

  /// The resolved execution backend + ISA this codec runs (ServiceStats
  /// surfaces it per pool). Default: no executor.
  virtual ExecInfo exec_info() const { return {}; }

  /// data: data_fragments() pointers; parity: parity_fragments() pointers
  /// (written). frag_len must be a positive multiple of fragment_multiple().
  void encode(const uint8_t* const* data, uint8_t* const* parity, size_t frag_len) const;

  /// Solve `erased` given `available` once and return the compiled repair
  /// plan. The id sets must be duplicate-free and disjoint (checked here).
  /// Every built-in codec solves at plan time, so unrecoverable patterns
  /// throw std::invalid_argument from this call; a custom codec still on
  /// the base-class fallback defers solving to execute(), where the same
  /// exception surfaces instead. An empty `erased` yields a no-op plan.
  /// Reuse the plan across stripes/objects with the same erasure pattern —
  /// degraded-read-heavy workloads amortize the solver this way (and
  /// BatchCoder sessions take plans directly).
  std::shared_ptr<const ReconstructPlan> plan_reconstruct(
      const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const;

  /// Rebuild erased fragments (data and/or parity).
  ///   available: surviving fragment ids; buffers parallel to it.
  ///   erased:    fragment ids to rebuild; `out` parallel writable buffers.
  /// The id sets must be duplicate-free and disjoint. MDS codecs require at
  /// least data_fragments() survivors; non-MDS XOR codes accept any pattern
  /// their F2 solver finds solvable. Unrecoverable patterns throw
  /// std::invalid_argument. Equivalent to plan_reconstruct(...)->execute(...).
  void reconstruct(const std::vector<uint32_t>& available,
                   const uint8_t* const* available_frags,
                   const std::vector<uint32_t>& erased, uint8_t* const* out,
                   size_t frag_len) const;

  /// Span views: same semantics, plus the span extents are checked against
  /// the codec geometry (data/parity counts, parallel id/buffer lists).
  void encode(std::span<const uint8_t* const> data, std::span<uint8_t* const> parity,
              size_t frag_len) const;
  void reconstruct(std::span<const uint32_t> available,
                   std::span<const uint8_t* const> available_frags,
                   std::span<const uint32_t> erased, std::span<uint8_t* const> out,
                   size_t frag_len) const;

 protected:
  virtual void encode_impl(const uint8_t* const* data, uint8_t* const* parity,
                           size_t frag_len) const = 0;
  virtual void reconstruct_impl(const std::vector<uint32_t>& available,
                                const uint8_t* const* available_frags,
                                const std::vector<uint32_t>& erased, uint8_t* const* out,
                                size_t frag_len) const = 0;
  /// Default: a fallback plan that re-runs reconstruct_impl on every
  /// execute() and borrows this codec (must not outlive it). The built-in
  /// codecs override with real compiled plans; overriding is strongly
  /// recommended for any codec used with plan caching or BatchCoder.
  virtual std::shared_ptr<const ReconstructPlan> plan_reconstruct_impl(
      const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const;

 private:
  void check_frag_len(size_t frag_len) const;
  void check_id_sets(const std::vector<uint32_t>& available,
                     const std::vector<uint32_t>& erased) const;
};

}  // namespace xorec
