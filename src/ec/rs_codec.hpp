// RS(n, p) over GF(2^8) executed as optimized XOR SLPs (the paper's system,
// end to end), implementing the unified xorec::Codec interface.
//
// Data model (§1): a stored object is split into n data fragments; encode
// produces p parity fragments; any n surviving fragments reconstruct the
// data. Each fragment is internally 8 strips (w = 8 bit-planes of the
// GF(2^8) bitmatrix view), so fragment lengths must be multiples of 8.
//
// Usage (or via the registry: xorec::make_codec("rs(10,4)")):
//   ec::RsCodec codec(10, 4);
//   codec.encode(data_ptrs, parity_ptrs, frag_len);
//   ...
//   codec.reconstruct(available_ids, available_ptrs, erased_ids, out_ptrs,
//                     frag_len);
#pragma once

#include <memory>
#include <vector>

#include "api/codec.hpp"
#include "ec/bitmatrix_codec_core.hpp"
#include "gf/gfmat.hpp"

namespace xorec::ec {

/// The systematic coding matrix of a family.
gf::Matrix make_code_matrix(MatrixFamily family, size_t n, size_t p);

class RsCodec : public Codec {
 public:
  static constexpr size_t kStripsPerFragment = 8;

  RsCodec(size_t n, size_t p, CodecOptions opt = {});

  size_t data_fragments() const override { return core_.data_blocks(); }
  size_t parity_fragments() const override { return core_.parity_blocks(); }
  size_t fragment_multiple() const override { return kStripsPerFragment; }
  std::string name() const override { return core_.name(); }
  const CodecOptions& options() const { return core_.options(); }

  /// The systematic (n+p) x n coding matrix (rows 0..n-1 are the identity).
  const gf::Matrix& code_matrix() const { return code_; }

  /// The optimizer artifacts of the encoding SLP (for inspection/benches).
  const slp::PipelineResult* encode_pipeline() const override {
    return &core_.encoder().pipeline;
  }

  /// Plan-cache counters (service-wide when on the shared cache).
  CacheStats cache_stats() const override { return core_.cache_stats(); }

  /// Cache identity + cached patterns, for warmup profiles.
  PlanFootprint plan_footprint() const override { return core_.footprint(); }
  size_t cached_program_count() const override { return core_.cache_size(); }
  ExecInfo exec_info() const override { return core_.exec_info(); }

  /// Decode-side pipeline for a specific erasure pattern of data fragments,
  /// exposed so benches can measure the paper's P_dec tables offline.
  /// Survivors = choose_survivors(all fragments minus `erased_data`).
  std::shared_ptr<const CompiledProgram> decode_program(
      const std::vector<uint32_t>& erased_data) const;

  /// Survivor selection policy (deterministic): all surviving data fragments
  /// plus the lowest-id surviving parities, n total.
  std::vector<uint32_t> choose_survivors(const std::vector<uint32_t>& available) const;

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

 private:
  std::shared_ptr<CompiledProgram> decoder_for(const std::vector<uint32_t>& survivors,
                                               const std::vector<uint32_t>& erased_data) const;
  std::shared_ptr<CompiledProgram> parity_subset_program(
      const std::vector<uint32_t>& parity_ids) const;

  gf::Matrix code_;
  BitmatrixCodecCore core_;
};

}  // namespace xorec::ec
