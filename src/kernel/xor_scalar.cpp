// Baseline-ISA kernels: byte-at-a-time (the paper's xor1) and uint64-word
// with a 4x-unrolled multi-word inner loop (32 bytes per iteration per
// stream, the MemXOR-style unrolling). Both fill full KernelTables — the
// fixed-arity and accumulate specializations here are what the lowered
// backend runs on machines without SIMD (and under XOREC_FORCE_ISA).
#include <cstring>

#include "kernel/xor_kernel.hpp"

namespace xorec::kernel {

namespace {

// ---- scalar ----------------------------------------------------------------

template <size_t K>
void fixed_scalar(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  for (size_t i = 0; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < K; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

template <size_t K>
void accum_scalar(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    uint8_t acc = dst[i];
    for (size_t j = 0; j < K; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

// ---- word64 ----------------------------------------------------------------

inline uint64_t load64(const uint8_t* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);  // unaligned loads are fine on x86; memcpy keeps it
  return w;               // portable and compiles to plain moves
}

inline void store64(uint8_t* p, uint64_t w) { std::memcpy(p, &w, 8); }

/// Shared word64 loop shape: 4 accumulator words (32 bytes) per iteration,
/// then single words, then a byte tail. `K` = source count; `Accum` folds
/// dst in as an implicit extra source.
template <size_t K, bool Accum>
void word64_loop(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  size_t i = 0;
  for (; i + 32 <= len; i += 32) {
    uint64_t a0, a1, a2, a3;
    if constexpr (Accum) {
      a0 = load64(dst + i);
      a1 = load64(dst + i + 8);
      a2 = load64(dst + i + 16);
      a3 = load64(dst + i + 24);
      for (size_t j = 0; j < K; ++j) {
        a0 ^= load64(srcs[j] + i);
        a1 ^= load64(srcs[j] + i + 8);
        a2 ^= load64(srcs[j] + i + 16);
        a3 ^= load64(srcs[j] + i + 24);
      }
    } else {
      a0 = load64(srcs[0] + i);
      a1 = load64(srcs[0] + i + 8);
      a2 = load64(srcs[0] + i + 16);
      a3 = load64(srcs[0] + i + 24);
      for (size_t j = 1; j < K; ++j) {
        a0 ^= load64(srcs[j] + i);
        a1 ^= load64(srcs[j] + i + 8);
        a2 ^= load64(srcs[j] + i + 16);
        a3 ^= load64(srcs[j] + i + 24);
      }
    }
    store64(dst + i, a0);
    store64(dst + i + 8, a1);
    store64(dst + i + 16, a2);
    store64(dst + i + 24, a3);
  }
  for (; i + 8 <= len; i += 8) {
    uint64_t acc;
    if constexpr (Accum) {
      acc = load64(dst + i);
      for (size_t j = 0; j < K; ++j) acc ^= load64(srcs[j] + i);
    } else {
      acc = load64(srcs[0] + i);
      for (size_t j = 1; j < K; ++j) acc ^= load64(srcs[j] + i);
    }
    store64(dst + i, acc);
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
void fixed_word64(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  word64_loop<K, false>(dst, srcs, len);
}

template <size_t K>
void accum_word64(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  word64_loop<K, true>(dst, srcs, len);
}

}  // namespace

void xor_many_scalar(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  if (k == 1) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
    return;
  }
  for (size_t i = 0; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

void xor_many_word64(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  switch (k) {
    case 1: fixed_word64<1>(dst, srcs, len); return;
    case 2: fixed_word64<2>(dst, srcs, len); return;
    case 3: fixed_word64<3>(dst, srcs, len); return;
    case 4: fixed_word64<4>(dst, srcs, len); return;
    default: break;
  }
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    uint64_t acc = load64(srcs[0] + i);
    for (size_t j = 1; j < k; ++j) acc ^= load64(srcs[j] + i);
    store64(dst + i, acc);
  }
  for (; i < len; ++i) {
    uint8_t acc = srcs[0][i];
    for (size_t j = 1; j < k; ++j) acc ^= srcs[j][i];
    dst[i] = acc;
  }
}

const KernelTable& scalar_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::Scalar;
    k.many = &xor_many_scalar;
    k.fixed[1] = &fixed_scalar<1>;
    k.fixed[2] = &fixed_scalar<2>;
    k.fixed[3] = &fixed_scalar<3>;
    k.fixed[4] = &fixed_scalar<4>;
    k.fixed[5] = &fixed_scalar<5>;
    k.fixed[6] = &fixed_scalar<6>;
    k.fixed[7] = &fixed_scalar<7>;
    k.fixed[8] = &fixed_scalar<8>;
    k.accum[1] = &accum_scalar<1>;
    k.accum[2] = &accum_scalar<2>;
    k.accum[3] = &accum_scalar<3>;
    k.accum[4] = &accum_scalar<4>;
    k.accum[5] = &accum_scalar<5>;
    k.accum[6] = &accum_scalar<6>;
    k.accum[7] = &accum_scalar<7>;
    k.accum[8] = &accum_scalar<8>;
    return k;
  }();
  return t;
}

const KernelTable& word64_table() {
  static const KernelTable t = [] {
    KernelTable k;
    k.isa = Isa::Word64;
    k.many = &xor_many_word64;
    k.fixed[1] = &fixed_word64<1>;
    k.fixed[2] = &fixed_word64<2>;
    k.fixed[3] = &fixed_word64<3>;
    k.fixed[4] = &fixed_word64<4>;
    k.fixed[5] = &fixed_word64<5>;
    k.fixed[6] = &fixed_word64<6>;
    k.fixed[7] = &fixed_word64<7>;
    k.fixed[8] = &fixed_word64<8>;
    k.accum[1] = &accum_word64<1>;
    k.accum[2] = &accum_word64<2>;
    k.accum[3] = &accum_word64<3>;
    k.accum[4] = &accum_word64<4>;
    k.accum[5] = &accum_word64<5>;
    k.accum[6] = &accum_word64<6>;
    k.accum[7] = &accum_word64<7>;
    k.accum[8] = &accum_word64<8>;
    return k;
  }();
  return t;
}

}  // namespace xorec::kernel
