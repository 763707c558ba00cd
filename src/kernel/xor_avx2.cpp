// AVX2 kernels — compiled with -mavx2 in this TU only; selected at runtime
// by dispatch.cpp. The 2x-unrolled main loop moves 64 bytes per iteration
// per stream, matching the paper's xor32 (mm256_xor) inner loop. The table
// adds fixed-arity specializations and fused accumulate (dst ^= ...) forms.
#include "kernel/xor_kernel.hpp"

#if defined(XOREC_HAVE_AVX2)

#include <immintrin.h>

#include <cstring>

namespace xorec::kernel {

namespace {

/// 64 bytes per iteration: 2 ymm accumulators. `Accum` folds dst in as an
/// implicit extra source (read exactly once).
template <size_t K, bool Accum>
void avx2_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i a0, a1;
    if constexpr (Accum) {
      a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
      a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i + 32));
    } else {
      a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
      a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i + 32));
    }
    for (size_t j = Accum ? 0 : 1; j < K; ++j) {
      a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
      a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i + 32)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  for (; i + 32 <= len; i += 32) {
    __m256i a;
    if constexpr (Accum)
      a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    else
      a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    for (size_t j = Accum ? 0 : 1; j < K; ++j)
      a = _mm256_xor_si256(a, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a);
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
void xor_fixed_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  avx2_loop<K, false>(dst, srcs, len);
}

template <size_t K>
void xor_accum_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  avx2_loop<K, true>(dst, srcs, len);
}

void xor_generic_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  size_t i = 0;
  for (; i + 64 <= len; i += 64) {
    __m256i a0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i));
    __m256i a1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[0] + i + 32));
    for (size_t j = 1; j < k; ++j) {
      a0 = _mm256_xor_si256(a0, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i)));
      a1 = _mm256_xor_si256(a1, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(srcs[j] + i + 32)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), a0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 32), a1);
  }
  if (i < len) {
    // Tail: byte loop keeps it simple; fused instructions in hot paths run
    // on whole blocks, so this only triggers for ragged strip lengths.
    for (size_t b = i; b < len; ++b) {
      uint8_t acc = srcs[0][b];
      for (size_t j = 1; j < k; ++j) acc ^= srcs[j][b];
      dst[b] = acc;
    }
  }
}

}  // namespace

void xor_many_avx2(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1:
      if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
      return;
    case 2: xor_fixed_avx2<2>(dst, srcs, len); return;
    case 3: xor_fixed_avx2<3>(dst, srcs, len); return;
    case 4: xor_fixed_avx2<4>(dst, srcs, len); return;
    case 5: xor_fixed_avx2<5>(dst, srcs, len); return;
    case 6: xor_fixed_avx2<6>(dst, srcs, len); return;
    case 7: xor_fixed_avx2<7>(dst, srcs, len); return;
    case 8: xor_fixed_avx2<8>(dst, srcs, len); return;
    default: xor_generic_avx2(dst, srcs, k, len); return;
  }
}

const KernelTable& avx2_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::Avx2;
    k.many = &xor_many_avx2;
    k.fixed[1] = &xor_fixed_avx2<1>;
    k.fixed[2] = &xor_fixed_avx2<2>;
    k.fixed[3] = &xor_fixed_avx2<3>;
    k.fixed[4] = &xor_fixed_avx2<4>;
    k.fixed[5] = &xor_fixed_avx2<5>;
    k.fixed[6] = &xor_fixed_avx2<6>;
    k.fixed[7] = &xor_fixed_avx2<7>;
    k.fixed[8] = &xor_fixed_avx2<8>;
    k.accum[1] = &xor_accum_avx2<1>;
    k.accum[2] = &xor_accum_avx2<2>;
    k.accum[3] = &xor_accum_avx2<3>;
    k.accum[4] = &xor_accum_avx2<4>;
    k.accum[5] = &xor_accum_avx2<5>;
    k.accum[6] = &xor_accum_avx2<6>;
    k.accum[7] = &xor_accum_avx2<7>;
    k.accum[8] = &xor_accum_avx2<8>;
    return k;
  }();
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_AVX2
