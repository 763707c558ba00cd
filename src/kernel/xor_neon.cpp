// NEON kernel family for aarch64, where NEON is baseline: no run-time probe
// beyond the compile-time gate; dispatch.cpp routes Isa::Neon (and Auto)
// here. The loop of xor_loops.hpp keeps four 16-byte accumulators, 64 bytes
// per iteration per stream, and ends in the byte tail. tests/test_kernel.cpp
// runs the same instantiation on every host.
#include "kernel/xor_loops.hpp"

#if defined(XOREC_HAVE_NEON)

namespace xorec::kernel {

const KernelTable& neon_table() {
  typedef uint8_t V __attribute__((vector_size(16)));
  static constexpr KernelTable t = make_table<V, 4>(Isa::Neon);
  return t;
}

}  // namespace xorec::kernel

#endif  // XOREC_HAVE_NEON
