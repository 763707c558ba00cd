// ISA-L-style baseline (ISA-L itself is not a dependency): systematic RS(n, p)
// computed as matrix multiplication over GF(2^8) with table-driven SIMD
// multiplication — the approach the paper compares against (§1 method (1),
// §7.6).
//
// Multiplication uses the split-nibble technique of ISA-L / Plank et al.
// (FAST'13): for a coefficient c, two 16-byte tables hold c·x for the low
// and high nibble of x; a byte product is tlo[x & 15] ^ thi[x >> 4], which
// vectorizes as two VPSHUFBs. Each 32-byte chunk of every input fragment is
// read once per output group while p accumulators stay in registers.
#pragma once

#include <cstdint>
#include <vector>

#include "api/codec.hpp"
#include "ec/rs_codec.hpp"
#include "gf/gfmat.hpp"

namespace xorec::baseline {

/// Precomputed nibble tables for an m x k coefficient matrix, laid out as
/// [i][j][64]: 16B low-nibble table, 16B high-nibble table, repeated twice
/// (32B each) so AVX2 lanes can load them directly.
std::vector<uint8_t> build_gf_tables(const gf::Matrix& coeffs);

/// dst[i] = XOR_j coeffs[i][j] * src[j], byte-wise over len bytes.
/// `tables` must come from build_gf_tables(coeffs) with matching shape.
void gf_dot_prod(const std::vector<uint8_t>& tables, size_t k, size_t m,
                 const uint8_t* const* src, uint8_t* const* dst, size_t len);

/// Scalar reference (full 64 KB multiplication table); used as oracle.
void gf_dot_prod_scalar(const gf::Matrix& coeffs, const uint8_t* const* src,
                        uint8_t* const* dst, size_t len);

class IsalStyleCodec : public Codec {
 public:
  /// Defaults to the same coding matrix RsCodec uses, so the two engines are
  /// byte-comparable (after the bit-plane layout transform; see ec/layout.hpp).
  IsalStyleCodec(size_t n, size_t p,
                 ec::MatrixFamily family = ec::MatrixFamily::IsalVandermonde);

  size_t data_fragments() const override { return n_; }
  size_t parity_fragments() const override { return p_; }
  /// Byte-oriented: any positive fragment length works.
  size_t fragment_multiple() const override { return 1; }
  std::string name() const override;
  const gf::Matrix& code_matrix() const { return code_; }

 protected:
  void encode_impl(const uint8_t* const* data, uint8_t* const* parity,
                   size_t frag_len) const override;
  /// Same contract as RsCodec::reconstruct (data decoded via the inverse
  /// submatrix, parity re-encoded afterwards); thin plan-and-execute.
  void reconstruct_impl(const std::vector<uint32_t>& available,
                        const uint8_t* const* available_frags,
                        const std::vector<uint32_t>& erased, uint8_t* const* out,
                        size_t frag_len) const override;
  /// The plan precomputes the inverse submatrix's nibble tables, so
  /// execute() is pure gf_dot_prod work (no per-call matrix inversion).
  /// PlanStats stay zero: the GF-table engine is not an XOR SLP.
  std::shared_ptr<const ReconstructPlan> plan_reconstruct_impl(
      const std::vector<uint32_t>& available,
      const std::vector<uint32_t>& erased) const override;

 private:
  size_t n_, p_;
  ec::MatrixFamily family_;
  gf::Matrix code_;          // systematic (n+p) x n, same matrix as RsCodec
  gf::Matrix parity_;        // bottom p rows
  std::vector<uint8_t> enc_tables_;
};

}  // namespace xorec::baseline
