// AVX2 kernel family, compiled with -mavx2 in this TU only and selected at
// run time by dispatch.cpp. The loop of xor_loops.hpp keeps two 32-byte
// accumulators, 64 bytes per iteration per stream (the paper's xor32), and
// ends in the byte tail.
#include "kernel/xor_loops.hpp"

#if defined(XOREC_HAVE_AVX2)

namespace xorec::kernel {

const KernelTable& avx2_table() {
  typedef uint8_t V __attribute__((vector_size(32)));
  static constexpr KernelTable t = make_table<V, 2>(Isa::Avx2);
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_AVX2
