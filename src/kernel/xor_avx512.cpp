// AVX-512 kernels — compiled with -mavx512f -mavx512bw in this TU only and
// selected at runtime by dispatch.cpp (cpu_has_avx512 gates on f+bw). The
// main loop moves 128 bytes per iteration per stream with 2 zmm
// accumulators.
#include "kernel/xor_kernel.hpp"

#if defined(XOREC_HAVE_AVX512)

#include <immintrin.h>

#include <cstring>

namespace xorec::kernel {

namespace {

template <size_t K, bool Accum>
void avx512_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    __m512i a0, a1;
    if constexpr (Accum) {
      a0 = _mm512_loadu_si512(dst + i);
      a1 = _mm512_loadu_si512(dst + i + 64);
    } else {
      a0 = _mm512_loadu_si512(srcs[0] + i);
      a1 = _mm512_loadu_si512(srcs[0] + i + 64);
    }
    for (size_t j = Accum ? 0 : 1; j < K; ++j) {
      a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(srcs[j] + i));
      a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(srcs[j] + i + 64));
    }
    _mm512_storeu_si512(dst + i, a0);
    _mm512_storeu_si512(dst + i + 64, a1);
  }
  for (; i + 64 <= len; i += 64) {
    __m512i a;
    if constexpr (Accum)
      a = _mm512_loadu_si512(dst + i);
    else
      a = _mm512_loadu_si512(srcs[0] + i);
    for (size_t j = Accum ? 0 : 1; j < K; ++j)
      a = _mm512_xor_si512(a, _mm512_loadu_si512(srcs[j] + i));
    _mm512_storeu_si512(dst + i, a);
  }
  if (i < len) {
    // Masked epilogue: one partial 64-byte lane instead of a byte loop.
    const __mmask64 m = _cvtu64_mask64((~uint64_t{0}) >> (64 - (len - i)));
    __m512i a;
    if constexpr (Accum)
      a = _mm512_maskz_loadu_epi8(m, dst + i);
    else
      a = _mm512_maskz_loadu_epi8(m, srcs[0] + i);
    for (size_t j = Accum ? 0 : 1; j < K; ++j)
      a = _mm512_xor_si512(a, _mm512_maskz_loadu_epi8(m, srcs[j] + i));
    _mm512_mask_storeu_epi8(dst + i, m, a);
  }
}

template <size_t K>
void xor_fixed_avx512(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  avx512_loop<K, false>(dst, srcs, len);
}

template <size_t K>
void xor_accum_avx512(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  avx512_loop<K, true>(dst, srcs, len);
}

void xor_generic_avx512(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  size_t i = 0;
  for (; i + 128 <= len; i += 128) {
    __m512i a0 = _mm512_loadu_si512(srcs[0] + i);
    __m512i a1 = _mm512_loadu_si512(srcs[0] + i + 64);
    for (size_t j = 1; j < k; ++j) {
      a0 = _mm512_xor_si512(a0, _mm512_loadu_si512(srcs[j] + i));
      a1 = _mm512_xor_si512(a1, _mm512_loadu_si512(srcs[j] + i + 64));
    }
    _mm512_storeu_si512(dst + i, a0);
    _mm512_storeu_si512(dst + i + 64, a1);
  }
  for (; i + 64 <= len; i += 64) {
    __m512i a = _mm512_loadu_si512(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) a = _mm512_xor_si512(a, _mm512_loadu_si512(srcs[j] + i));
    _mm512_storeu_si512(dst + i, a);
  }
  if (i < len) {
    const __mmask64 m = _cvtu64_mask64((~uint64_t{0}) >> (64 - (len - i)));
    __m512i a = _mm512_maskz_loadu_epi8(m, srcs[0] + i);
    for (size_t j = 1; j < k; ++j)
      a = _mm512_xor_si512(a, _mm512_maskz_loadu_epi8(m, srcs[j] + i));
    _mm512_mask_storeu_epi8(dst + i, m, a);
  }
}

}  // namespace

void xor_many_avx512(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: xor_fixed_avx512<2>(dst, srcs, len); return;
    case 3: xor_fixed_avx512<3>(dst, srcs, len); return;
    case 4: xor_fixed_avx512<4>(dst, srcs, len); return;
    case 5: xor_fixed_avx512<5>(dst, srcs, len); return;
    case 6: xor_fixed_avx512<6>(dst, srcs, len); return;
    case 7: xor_fixed_avx512<7>(dst, srcs, len); return;
    case 8: xor_fixed_avx512<8>(dst, srcs, len); return;
    default: xor_generic_avx512(dst, srcs, k, len); return;
  }
}

const KernelTable& avx512_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::Avx512;
    k.many = &xor_many_avx512;
    k.fixed[1] = &xor_fixed_avx512<1>;
    k.fixed[2] = &xor_fixed_avx512<2>;
    k.fixed[3] = &xor_fixed_avx512<3>;
    k.fixed[4] = &xor_fixed_avx512<4>;
    k.fixed[5] = &xor_fixed_avx512<5>;
    k.fixed[6] = &xor_fixed_avx512<6>;
    k.fixed[7] = &xor_fixed_avx512<7>;
    k.fixed[8] = &xor_fixed_avx512<8>;
    k.accum[1] = &xor_accum_avx512<1>;
    k.accum[2] = &xor_accum_avx512<2>;
    k.accum[3] = &xor_accum_avx512<3>;
    k.accum[4] = &xor_accum_avx512<4>;
    k.accum[5] = &xor_accum_avx512<5>;
    k.accum[6] = &xor_accum_avx512<6>;
    k.accum[7] = &xor_accum_avx512<7>;
    k.accum[8] = &xor_accum_avx512<8>;
    return k;
  }();
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_AVX512
