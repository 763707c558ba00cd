// Baseline-ISA kernel families, the loop of xor_loops.hpp at two widths:
// scalar moves one byte at a time (the paper's xor1); word64 keeps four
// uint64_t accumulators, 32 bytes per iteration per stream. They run where
// no SIMD family does, and under XOREC_FORCE_ISA.
#include "kernel/xor_loops.hpp"

namespace xorec::kernel {

const KernelTable& scalar_table() {
  static constexpr KernelTable t = make_table<uint8_t, 1>(Isa::Scalar);
  return t;
}

const KernelTable& word64_table() {
  static constexpr KernelTable t = make_table<uint64_t, 4>(Isa::Word64);
  return t;
}

}  // namespace xorec::kernel
