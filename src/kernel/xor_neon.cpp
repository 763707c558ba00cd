// NEON kernels for aarch64 — NEON is baseline there, so no runtime probe is
// needed beyond the compile-time gate; dispatch.cpp routes Isa::Neon (and
// Auto) here. The main loop moves 64 bytes per iteration per stream with 4
// q-register accumulators.
#include "kernel/xor_kernel.hpp"

#if defined(XOREC_HAVE_NEON)

#include <arm_neon.h>

#include <cstring>

namespace xorec::kernel {

namespace {

template <size_t K, bool Accum>
void neon_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    uint8x16_t a0, a1, a2, a3;
    const uint8_t* base = Accum ? dst : srcs[0];
    a0 = vld1q_u8(base + i);
    a1 = vld1q_u8(base + i + 16);
    a2 = vld1q_u8(base + i + 32);
    a3 = vld1q_u8(base + i + 48);
    for (size_t j = Accum ? 0 : 1; j < K; ++j) {
      a0 = veorq_u8(a0, vld1q_u8(srcs[j] + i));
      a1 = veorq_u8(a1, vld1q_u8(srcs[j] + i + 16));
      a2 = veorq_u8(a2, vld1q_u8(srcs[j] + i + 32));
      a3 = veorq_u8(a3, vld1q_u8(srcs[j] + i + 48));
    }
    vst1q_u8(dst + i, a0);
    vst1q_u8(dst + i + 16, a1);
    vst1q_u8(dst + i + 32, a2);
    vst1q_u8(dst + i + 48, a3);
  }
  for (; i + 16 <= len; i += 16) {
    uint8x16_t a = vld1q_u8((Accum ? dst : srcs[0]) + i);
    for (size_t j = Accum ? 0 : 1; j < K; ++j) a = veorq_u8(a, vld1q_u8(srcs[j] + i));
    vst1q_u8(dst + i, a);
  }
  for (; i < len; ++i) {
    uint8_t acc;
    if constexpr (Accum) {
      acc = dst[i];
      for (size_t j = 0; j < K; ++j) acc ^= srcs[j][i];
    } else {
      acc = srcs[0][i];
      for (size_t j = 1; j < K; ++j) acc ^= srcs[j][i];
    }
    dst[i] = acc;
  }
}

template <size_t K>
void xor_fixed_neon(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  neon_loop<K, false>(dst, srcs, len);
}

template <size_t K>
void xor_accum_neon(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  neon_loop<K, true>(dst, srcs, len);
}

}  // namespace

void xor_many_neon(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: xor_fixed_neon<2>(dst, srcs, len); return;
    case 3: xor_fixed_neon<3>(dst, srcs, len); return;
    case 4: xor_fixed_neon<4>(dst, srcs, len); return;
    case 5: xor_fixed_neon<5>(dst, srcs, len); return;
    case 6: xor_fixed_neon<6>(dst, srcs, len); return;
    case 7: xor_fixed_neon<7>(dst, srcs, len); return;
    case 8: xor_fixed_neon<8>(dst, srcs, len); return;
    default: break;
  }
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    uint8x16_t a = vld1q_u8(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) a = veorq_u8(a, vld1q_u8(srcs[j] + i));
    vst1q_u8(dst + i, a);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

const KernelTable& neon_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::Neon;
    k.many = &xor_many_neon;
    k.fixed[1] = &xor_fixed_neon<1>;
    k.fixed[2] = &xor_fixed_neon<2>;
    k.fixed[3] = &xor_fixed_neon<3>;
    k.fixed[4] = &xor_fixed_neon<4>;
    k.fixed[5] = &xor_fixed_neon<5>;
    k.fixed[6] = &xor_fixed_neon<6>;
    k.fixed[7] = &xor_fixed_neon<7>;
    k.fixed[8] = &xor_fixed_neon<8>;
    k.accum[1] = &xor_accum_neon<1>;
    k.accum[2] = &xor_accum_neon<2>;
    k.accum[3] = &xor_accum_neon<3>;
    k.accum[4] = &xor_accum_neon<4>;
    k.accum[5] = &xor_accum_neon<5>;
    k.accum[6] = &xor_accum_neon<6>;
    k.accum[7] = &xor_accum_neon<7>;
    k.accum[8] = &xor_accum_neon<8>;
    return k;
  }();
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_NEON
