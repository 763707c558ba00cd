// AVX-512 kernel family, compiled with -mavx512f -mavx512bw in this TU only
// and selected at run time by dispatch.cpp (cpu_has_avx512 gates on f+bw).
// The loop of xor_loops.hpp keeps two 64-byte accumulators, 128 bytes per
// iteration per stream, and ends in a masked tail.
#include "kernel/xor_loops.hpp"

#if defined(XOREC_HAVE_AVX512)

#include <immintrin.h>

namespace xorec::kernel {

namespace {

/// Finishes the last len - i < 64 bytes as one masked 64-byte lane. The
/// 816-byte strips of a 64 KiB stripe leave 48 bytes on every instruction,
/// so this tail is on the degraded-read and TCP hot paths.
struct MaskedTail {
  static size_t run(uint8_t* dst, const uint8_t* first, const uint8_t* const* rest,
                    size_t n, size_t i, size_t len) {
    if (i == len) return i;
    const __mmask64 m = _cvtu64_mask64(~uint64_t{0} >> (64 - (len - i)));
    __m512i a = _mm512_maskz_loadu_epi8(m, first + i);
    for (size_t j = 0; j < n; ++j) a = _mm512_xor_si512(a, _mm512_maskz_loadu_epi8(m, rest[j] + i));
    _mm512_mask_storeu_epi8(dst + i, m, a);
    return len;
  }
};

}  // namespace

const KernelTable& avx512_table() {
  typedef uint8_t V __attribute__((vector_size(64)));
  static constexpr KernelTable t = make_table<V, 2, MaskedTail>(Isa::Avx512);
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_AVX512
