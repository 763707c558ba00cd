// Generic XOR-code codec: any systematic parity bitmatrix over block strips
// (EVENODD, RDP, STAR, or user-defined codes) runs through the same SLP
// optimizer and blocked executor as RS — the library's generality claim —
// behind the unified xorec::Codec interface.
//
// A code over k data blocks + m parity blocks with w strips per block is a
// ((k+m)·w) x (k·w) bitmatrix whose top k·w rows are the identity. Block i's
// strips occupy indices i·w .. i·w+w-1. Decoding arbitrary block erasures is
// F2 Gaussian elimination over the surviving strips (f2_solve_erasures).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/codec.hpp"
#include "bitmatrix/bitmatrix.hpp"
#include "ec/bitmatrix_codec_core.hpp"

namespace xorec::altcodes {

struct XorCodeSpec {
  std::string name;
  size_t data_blocks = 0;      // k
  size_t parity_blocks = 0;    // m
  size_t strips_per_block = 0; // w
  bitmatrix::BitMatrix code;   // ((k+m)w) x (kw), systematic
  /// Folded into the plan-cache config fingerprint. A codec subclass that
  /// overrides recovery_rows (a different plan DERIVATION over the same
  /// matrix — piggyback's reduced-read repair) must set a nonzero salt, or
  /// its compiled programs would be cross-served with the plain solve's
  /// under one cache identity. 0 for plain XorCodec use.
  uint64_t plan_strategy_salt = 0;

  void validate() const;  // shape + systematic top; throws on violation
};

/// Shortened code: keep only the first k data blocks, treating the dropped
/// ones as all-zero (the standard way array codes run at non-native widths —
/// EVENODD/RDP/STAR layouts need a prime parameter, deployments rarely have
/// a prime number of disks). Erasure tolerance is preserved.
XorCodeSpec shorten_spec(const XorCodeSpec& full, size_t k);

class XorCodec : public Codec {
 public:
  explicit XorCodec(XorCodeSpec spec, ec::CodecOptions opt = {});

  const XorCodeSpec& spec() const { return spec_; }
  size_t data_blocks() const { return spec_.data_blocks; }
  size_t parity_blocks() const { return spec_.parity_blocks; }

  size_t data_fragments() const override { return spec_.data_blocks; }
  size_t parity_fragments() const override { return spec_.parity_blocks; }
  /// Fragment lengths must be positive multiples of this.
  size_t fragment_multiple() const override { return spec_.strips_per_block; }
  std::string name() const override { return spec_.name; }

  const slp::PipelineResult* encode_pipeline() const override {
    return &core_.encoder().pipeline;
  }

  /// Plan-cache counters (service-wide when on the shared cache).
  CacheStats cache_stats() const override { return core_.cache_stats(); }

  /// Cache identity + cached patterns, for warmup profiles.
  PlanFootprint plan_footprint() const override { return core_.footprint(); }
  size_t cached_program_count() const override { return core_.cache_size(); }
  ExecInfo exec_info() const override { return core_.exec_info(); }

 protected:
  void encode_impl(const uint8_t* const* data, uint8_t* const* parity,
                   size_t frag_len) const override;
  /// Thin plan-and-execute over plan_reconstruct_impl (plans memoized).
  void reconstruct_impl(const std::vector<uint32_t>& available,
                        const uint8_t* const* available_frags,
                        const std::vector<uint32_t>& erased, uint8_t* const* out,
                        size_t frag_len) const override;
  std::shared_ptr<const ReconstructPlan> plan_reconstruct_impl(
      const std::vector<uint32_t>& available,
      const std::vector<uint32_t>& erased) const override;

  /// Recovery-row derivation hook: express each erased input strip (in the
  /// given order) as an XOR over `avail_strips` (columns in that order);
  /// nullopt when the survivors do not determine the erasures. The default
  /// is the full-read don't-care F2 solve over the code bitmatrix. Families
  /// with structured sub-fragment repair (piggyback) override this to
  /// restrict which survivor strips the compiled program reads, falling
  /// back here for patterns their structure does not cover. Results are
  /// memoized under the (erased, available) plan-cache key, so overrides
  /// must be deterministic functions of the pattern.
  virtual std::optional<std::vector<bitmatrix::BitRow>> recovery_rows(
      const std::vector<uint32_t>& erased_strips,
      const std::vector<uint32_t>& avail_strips,
      const std::vector<uint32_t>& absent_strips) const;

 private:
  std::shared_ptr<ec::CompiledProgram> recovery_program(
      const std::vector<uint32_t>& available_blocks,
      const std::vector<uint32_t>& erased_blocks) const;

  XorCodeSpec spec_;
  ec::BitmatrixCodecCore core_;
};

}  // namespace xorec::altcodes
