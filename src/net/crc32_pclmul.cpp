// CRC-32 by carry-less multiplication — compiled with -mpclmul in this TU
// only; net::crc32 (frame.cpp) selects it at runtime. The method is Gopal
// et al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction" (Intel, 2009), in the bit-reflected form for 0xEDB88320:
// four 128-bit lanes fold 64 bytes per iteration, the lanes collapse into
// one, 16-byte blocks fold into it, and a Barrett reduction takes the
// remaining 128 bits to the 32-bit remainder. The table loop's result is
// reproduced bit for bit; only the speed differs.
#include <cstddef>
#include <cstdint>

#if defined(XOREC_HAVE_PCLMUL)

#include <immintrin.h>

namespace xorec::net {

namespace {

// Folding constants, x^n mod P(x) bit-reflected and shifted left by one
// (the paper's k1..k5), and the Barrett pair P'(x) and mu = x^64 / P(x).
// Each pair shares one register: clmul selector 0x00 multiplies the low
// halves, 0x11 the high halves.
alignas(16) constexpr uint64_t kFold4[2] = {0x154442bd4, 0x1c6e41596};  // x^(512±32)
alignas(16) constexpr uint64_t kFold1[2] = {0x1751997d0, 0x0ccaa009e};  // x^(128±32)
alignas(16) constexpr uint64_t kFold64[2] = {0x163cd6124, 0};           // x^64
alignas(16) constexpr uint64_t kBarrett[2] = {0x1db710641, 0x1f7011641};  // P', mu

/// x <- x.lo * k.lo ^ x.hi * k.hi ^ next: one 128-bit lane advanced by the
/// distance k encodes, with the next input block folded in.
inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

/// Advance the inverted CRC state `crc` over `len` bytes. Requires len >= 64
/// and len % 16 == 0; the caller finishes any tail with the table loop.
uint32_t crc32_fold_pclmul(uint32_t crc, const uint8_t* data, size_t len) {
  __m128i x0 = _mm_xor_si128(load(data), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = load(data + 16);
  __m128i x2 = load(data + 32);
  __m128i x3 = load(data + 48);
  data += 64;
  len -= 64;

  const __m128i k4 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold4));
  for (; len >= 64; data += 64, len -= 64) {
    x0 = fold(x0, k4, load(data));
    x1 = fold(x1, k4, load(data + 16));
    x2 = fold(x2, k4, load(data + 32));
    x3 = fold(x3, k4, load(data + 48));
  }

  const __m128i k1 = _mm_load_si128(reinterpret_cast<const __m128i*>(kFold1));
  x0 = fold(x0, k1, x1);
  x0 = fold(x0, k1, x2);
  x0 = fold(x0, k1, x3);
  for (; len >= 16; data += 16, len -= 16) x0 = fold(x0, k1, load(data));

  // 128 -> 96 bits: the low qword times x^(128-32), added to the high one.
  const __m128i mask32 = _mm_setr_epi32(-1, 0, -1, 0);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k1, 0x10), _mm_srli_si128(x0, 8));
  // 96 -> 64 bits: the low dword times x^64, added to the upper 64 bits.
  const __m128i k64 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(kFold64));
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x0, mask32), k64, 0x00),
                     _mm_srli_si128(x0, 4));
  // Barrett: q = (low dword * mu) mod x^32, remainder = x0 ^ q * P'.
  const __m128i bar = _mm_load_si128(reinterpret_cast<const __m128i*>(kBarrett));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), bar, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), bar, 0x00);
  x0 = _mm_xor_si128(x0, q);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x0, 4)));
}

}  // namespace xorec::net

#endif  // XOREC_HAVE_PCLMUL
