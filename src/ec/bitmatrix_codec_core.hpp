// Shared machinery of every bitmatrix-driven SLP codec (ec::RsCodec and
// altcodes::XorCodec): pipeline options, compiled programs, the shared
// plan-compilation cache (ec::PlanCache), strip-pointer expansion, and the
// generic plan builder (decode erased data, then re-encode erased parity)
// behind xorec::ReconstructPlan.
//
// The two codecs differ only in how they *derive* matrices for a given
// erasure pattern (GF(2^8) inverse submatrix vs F2 Gaussian elimination)
// and which survivors feed the decoder; they inject that via RecoveryPlan
// callbacks and share everything else here. make_plan() resolves those
// callbacks ONCE — the returned plan is self-contained (it co-owns the
// compiled programs, not the codec) and its execute() does zero re-solving.
//
// Compiled programs — the encoder included — and finished repair plans are
// memoized in a PlanCache keyed by (matrix fingerprint, config fingerprint,
// pattern): by default the process-shared instance, so RS(10,4) compiled
// once serves every codec instance and every CodecService pool
// (CodecOptions picks private/injected caches for isolation).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/codec.hpp"
#include "bitmatrix/bitmatrix.hpp"
#include "ec/plan_cache.hpp"
#include "runtime/executor.hpp"
#include "slp/pipeline.hpp"

namespace xorec::ec {

enum class MatrixFamily {
  /// ISA-L's gf_gen_rs_matrix construction — the paper's evaluation matrix
  /// (verified MDS for RS(8..10, 2..4) and similar small codecs). Default.
  IsalVandermonde,
  /// Reduced Vandermonde [I ; M V_top^{-1}] — §7.1's textbook construction,
  /// provably MDS, denser as a bitmatrix.
  ReducedVandermonde,
  /// Systematic Cauchy — provably MDS for any n + p <= 255.
  Cauchy,
};

struct CodecOptions {
  slp::PipelineOptions pipeline;
  runtime::ExecOptions exec;
  MatrixFamily family = MatrixFamily::IsalVandermonde;
  /// Capacity of a PRIVATE plan cache (shared_cache == false and no
  /// explicit plan_cache); 0 = unbounded. The process-shared cache has its
  /// own service-wide capacity.
  size_t decode_cache_capacity = 256;
  /// Compile through the process-shared PlanCache (default) or a private
  /// per-codec one (spec key cache=shared|private|<capacity>).
  bool shared_cache = true;
  /// Explicit cache injection (services running their own cache sharding,
  /// tests needing isolation); wins over shared_cache when set.
  std::shared_ptr<PlanCache> plan_cache;
};

class BitmatrixCodecCore {
 public:
  /// `parity` is the (m·w) x (k·w) parity bitmatrix; the encoding SLP is
  /// compiled through the configured pipeline immediately (a plan-cache hit
  /// when an identical codec already compiled it). `strategy_salt` is
  /// folded into the config fingerprint for codecs whose plan DERIVATION
  /// differs from the plain bitmatrix solve over the same matrix (the
  /// piggyback reduced-read repair): two codecs that would compile
  /// different programs for the same pattern key must never share cache
  /// entries.
  BitmatrixCodecCore(size_t data_blocks, size_t parity_blocks, size_t strips_per_block,
                     const bitmatrix::BitMatrix& parity, CodecOptions opt,
                     std::string name, uint64_t strategy_salt = 0);

  size_t data_blocks() const { return k_; }
  size_t parity_blocks() const { return m_; }
  size_t strips_per_block() const { return w_; }
  const CodecOptions& options() const { return opt_; }
  const std::string& name() const { return name_; }
  const CompiledProgram& encoder() const { return *enc_; }

  /// Compile a bitmatrix through this codec's pipeline/executor options.
  std::shared_ptr<CompiledProgram> compile(const bitmatrix::BitMatrix& m,
                                           const std::string& tag) const;

  /// Memoized program lookup — a view onto the plan cache scoped to this
  /// codec's (matrix, config) identity. Thread-safe, LRU-bounded.
  std::shared_ptr<CompiledProgram> cached(
      const std::vector<uint32_t>& key,
      const std::function<std::shared_ptr<CompiledProgram>()>& build) const;
  /// Programs the plan cache currently holds for this codec identity.
  size_t cache_size() const { return cache_->size_for(matrix_fp_, config_fp_); }
  /// Counters of the underlying cache (service-wide when shared).
  CacheStats cache_stats() const { return cache_->stats(); }
  const std::shared_ptr<PlanCache>& plan_cache() const { return cache_; }
  /// This identity's cache footprint (xorec::Codec::plan_footprint).
  PlanFootprint footprint() const {
    return {matrix_fp_, matrix_fp2_, config_fp_, cache_->patterns_for(matrix_fp_, config_fp_)};
  }
  /// The resolved backend/ISA this codec's executors run
  /// (xorec::Codec::exec_info) — read off the encoder, which every program
  /// of this codec shares options with.
  ExecInfo exec_info() const {
    return {runtime::exec_backend_name(enc_->exec.backend()),
            kernel::isa_name(enc_->exec.isa())};
  }

  /// Canonical cache keys: {erased ++ SEP ++ inputs} for decoders,
  /// {parity_ids ++ SEP ++ SEP} for parity re-encode subsets. (The encoder
  /// uses the empty pattern internally.) kPatternSep is the SEP marker —
  /// the single source of truth for the key format; profile serialization
  /// (ec/plan_cache_io) and warmup replay (pattern_ids below) build on it.
  static constexpr uint32_t kPatternSep = UINT32_MAX;
  static std::vector<uint32_t> decode_key(const std::vector<uint32_t>& erased,
                                          const std::vector<uint32_t>& inputs);
  static std::vector<uint32_t> parity_key(const std::vector<uint32_t>& parity_ids);

  /// Inverse of the key builders, for warmup replay: rebuild the
  /// (available, erased) id sets a cached pattern key was planned under.
  /// Decode keys replay against exactly the recorded inputs (reproducing
  /// the original key for every codec family); parity keys against every
  /// id outside the erased set. Returns false for the encoder key (empty —
  /// nothing to replay) and malformed patterns.
  static bool pattern_ids(const std::vector<uint32_t>& pattern, size_t total_fragments,
                          std::vector<uint32_t>& available, std::vector<uint32_t>& erased);

  void encode(const uint8_t* const* data, uint8_t* const* parity, size_t frag_len) const;

  /// A compiled recovery step: run `program` over the strips of fragments
  /// `inputs` (in order) to produce the erased fragments' strips.
  struct RecoveryPlan {
    std::shared_ptr<const CompiledProgram> program;
    std::vector<uint32_t> inputs;
  };
  /// Called with the sorted available ids and the sorted erased *data* ids;
  /// caches its program under decode_key(erased_data, inputs).
  using DataPlanFn = std::function<RecoveryPlan(const std::vector<uint32_t>& available,
                                                const std::vector<uint32_t>& erased_data)>;
  /// Called with the erased *parity* ids; the program's inputs are numbered
  /// over all k data fragments in order (make_plan only demands buffers for
  /// the blocks the compiled program actually reads, so locality codes can
  /// re-encode a local parity from its group alone). Caches its program
  /// under parity_key(erased_parity).
  using ParityPlanFn = std::function<std::shared_ptr<const CompiledProgram>(
      const std::vector<uint32_t>& erased_parity)>;

  /// The compiled repair plan for one erasure pattern, in the caller's id
  /// order. A warm call is one plan-cache hit returning the shared plan. A
  /// miss splits erased into data/parity, resolves both steps through the
  /// callbacks (which normally hit the plan cache), freezes the id -> buffer
  /// index maps, and caches the finished plan. Inputs are assumed validated
  /// (xorec::Codec does that at the API boundary); unrecoverable patterns
  /// throw here, at plan time, and cache no plan.
  std::shared_ptr<const ReconstructPlan> make_plan(
      const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased,
      const DataPlanFn& plan_data, const ParityPlanFn& plan_parity) const;

 private:
  size_t k_, m_, w_;
  CodecOptions opt_;
  std::string name_;
  uint64_t matrix_fp_ = 0, matrix_fp2_ = 0, config_fp_ = 0;
  uint64_t plan_config_fp_ = 0;  // config_fp_ mixed with name_: plan keys only
  std::shared_ptr<PlanCache> cache_;
  std::shared_ptr<CompiledProgram> enc_;
};

}  // namespace xorec::ec
