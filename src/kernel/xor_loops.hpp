// The XOR loop, written once. Every ISA's kernel family is one instantiation
// of make_table<V, U, Tail>: V is the word the loop moves (a GNU vector type,
// or uint64_t / uint8_t), U the accumulators kept per iteration and Tail the
// ISA's epilogue hook. Each ISA translation unit includes this header under
// its own -m flags, so the same source compiles to that ISA's instructions.
//
// Internal to src/kernel/: callers go through kernel_table() / resolve().
// tests/test_kernel.cpp instantiates it directly to run NEON's loop shape.
#pragma once

#include <cstring>
#include <utility>

#include "kernel/xor_kernel.hpp"

namespace xorec::kernel {

// One table per ISA translation unit; dispatch.cpp picks among them.
const KernelTable& scalar_table();
const KernelTable& word64_table();
#if defined(XOREC_HAVE_AVX2)
const KernelTable& avx2_table();
#endif
#if defined(XOREC_HAVE_AVX512)
const KernelTable& avx512_table();
#endif
#if defined(XOREC_HAVE_NEON)
const KernelTable& neon_table();
#endif

// Internal linkage: each TU compiles these templates under different -m
// flags, so the linker must never fold one TU's instantiation into another's.
namespace {

template <class V>
inline V load(const uint8_t* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);  // unaligned load, no aliasing UB
  return v;
}

template <class V>
inline void store(uint8_t* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// Tail hook that leaves the rest to the byte loop.
struct ByteTail {
  static size_t run(uint8_t*, const uint8_t*, const uint8_t* const*, size_t, size_t i,
                    size_t) {
    return i;
  }
};

/// dst[0..len) = first ^ rest[0] ^ .. ^ rest[n-1]. `first` is srcs[0], or dst
/// itself for the accumulate form (read once as an implicit extra source).
/// K > 0 bakes the source count into the loop; K == 0 reads it from `k`.
/// Every block is fully read before it is written, so dst may equal any
/// source exactly. U accumulators of V per iteration, then one V at a time,
/// then Tail, which returns how far it got, then bytes.
template <class V, size_t U, class Tail, size_t K, bool Accum>
void xor_loop(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  constexpr size_t W = sizeof(V);
  const uint8_t* first = Accum ? dst : srcs[0];
  const uint8_t* const* rest = Accum ? srcs : srcs + 1;
  const size_t n = (K ? K : k) - (Accum ? 0 : 1);
  size_t i = 0;
  if constexpr (U > 1) {
    for (; i + U * W <= len; i += U * W) {
      V a[U];
      for (size_t u = 0; u < U; ++u) a[u] = load<V>(first + i + u * W);
      for (size_t j = 0; j < n; ++j)
        for (size_t u = 0; u < U; ++u) a[u] ^= load<V>(rest[j] + i + u * W);
      for (size_t u = 0; u < U; ++u) store(dst + i + u * W, a[u]);
    }
  }
  for (; i + W <= len; i += W) {
    V a = load<V>(first + i);
    for (size_t j = 0; j < n; ++j) a ^= load<V>(rest[j] + i);
    store(dst + i, a);
  }
  i = Tail::run(dst, first, rest, n, i, len);
  for (; i < len; ++i) {
    uint8_t a = first[i];
    for (size_t j = 0; j < n; ++j) a ^= rest[j][i];
    dst[i] = a;
  }
}

/// fixed[K] (Accum = false) and accum[K] (Accum = true). fixed[1] is a copy.
template <class V, size_t U, class Tail, size_t K, bool Accum>
void xor_fixed(uint8_t* dst, const uint8_t* const* srcs, size_t len) {
  if constexpr (K == 1 && !Accum) {
    if (dst != srcs[0]) std::memmove(dst, srcs[0], len);
  } else {
    xor_loop<V, U, Tail, K, Accum>(dst, srcs, K, len);
  }
}

/// The variadic form: fixed[k] for k <= kMaxFixedArity, the run-time-count
/// loop above that.
template <class V, size_t U, class Tail, size_t... Ks>
void xor_variadic(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len) {
  static constexpr XorFixedFn fixed[] = {&xor_fixed<V, U, Tail, Ks + 1, false>...};
  if (k <= sizeof...(Ks)) return fixed[k - 1](dst, srcs, len);
  xor_loop<V, U, Tail, 0, false>(dst, srcs, k, len);
}

template <class V, size_t U, class Tail, size_t... Ks>
constexpr KernelTable make_table(Isa isa, std::index_sequence<Ks...>) {
  KernelTable t;
  t.isa = isa;
  t.many = &xor_variadic<V, U, Tail, Ks...>;
  ((t.fixed[Ks + 1] = &xor_fixed<V, U, Tail, Ks + 1, false>), ...);
  ((t.accum[Ks + 1] = &xor_fixed<V, U, Tail, Ks + 1, true>), ...);
  return t;
}

template <class V, size_t U, class Tail = ByteTail>
constexpr KernelTable make_table(Isa isa) {
  return make_table<V, U, Tail>(isa, std::make_index_sequence<kMaxFixedArity>{});
}

}  // namespace
}  // namespace xorec::kernel
