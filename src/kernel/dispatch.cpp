// Runtime ISA dispatch. CPU feature probes are memoized in function-local
// statics (__builtin_cpu_supports used to run on every resolve() call), the
// XOREC_FORCE_ISA environment override is parsed once (net::crc32 reads it
// too, to choose between its table loop and carry-less fold), and every
// resolution funnels through kernel_table() so interpreter and lowered
// backend agree on which kernel family executes.
#include <cstdlib>
#include <cstring>

#include "kernel/xor_loops.hpp"

namespace xorec::kernel {

namespace {

// Test-hook state for set_forced_isa_for_testing(): when `replaced`, `value`
// stands in for the environment override outright.
struct ForceState {
  bool replaced = false;
  std::optional<Isa> value;
};

ForceState& force_state() {
  static ForceState s;
  return s;
}

std::optional<Isa> parse_env_force() {
  const char* v = std::getenv("XOREC_FORCE_ISA");
  if (!v || !*v) return std::nullopt;
  return parse_isa(v);  // unknown names silently mean "no override"
}

/// Degrade a concrete ISA request to the best family the host supports.
const KernelTable& host_table(Isa isa) {
  switch (isa) {
    case Isa::Scalar:
      return scalar_table();
    case Isa::Word64:
      return word64_table();
    case Isa::Neon:
#if defined(XOREC_HAVE_NEON)
      if (cpu_has_neon()) return neon_table();
#endif
      return word64_table();
    case Isa::Avx512:
#if defined(XOREC_HAVE_AVX512)
      if (cpu_has_avx512()) return avx512_table();
#endif
      [[fallthrough]];
    case Isa::Avx2:
#if defined(XOREC_HAVE_AVX2)
      if (cpu_has_avx2()) return avx2_table();
#endif
      return word64_table();
    case Isa::Auto:
      break;
  }
  // Auto: best available, widest first.
#if defined(XOREC_HAVE_AVX512)
  if (cpu_has_avx512()) return avx512_table();
#endif
#if defined(XOREC_HAVE_AVX2)
  if (cpu_has_avx2()) return avx2_table();
#endif
#if defined(XOREC_HAVE_NEON)
  if (cpu_has_neon()) return neon_table();
#endif
  return word64_table();
}

}  // namespace

bool cpu_has_avx2() {
#if defined(XOREC_HAVE_AVX2)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512() {
#if defined(XOREC_HAVE_AVX512)
  // avx512bw is the gate: the kernels use byte/word ops, and every avx512bw
  // part also has f/vl.
  static const bool has =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
  return has;
#else
  return false;
#endif
}

bool cpu_has_neon() {
#if defined(XOREC_HAVE_NEON)
  return true;  // NEON is baseline on aarch64
#else
  return false;
#endif
}

bool cpu_has_pclmul() {
#if defined(XOREC_HAVE_PCLMUL)
  static const bool has = __builtin_cpu_supports("pclmul");
  return has;
#else
  return false;
#endif
}

std::optional<Isa> forced_isa() {
  // Read from every thread (each dispatch and each net::crc32 call): the
  // environment is parsed once under the thread-safe static initializer.
  static const std::optional<Isa> from_env = parse_env_force();
  const ForceState& s = force_state();
  return s.replaced ? s.value : from_env;
}

void set_forced_isa_for_testing(std::optional<Isa> isa) {
  ForceState& s = force_state();
  s.replaced = true;
  s.value = isa;
}

const KernelTable& kernel_table(Isa isa) {
  if (auto f = forced_isa()) isa = *f;
  return host_table(isa);
}

XorManyFn resolve(Isa isa) { return kernel_table(isa).many; }

void xor_many(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len, Isa isa) {
  kernel_table(isa).many(dst, srcs, k, len);
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::Scalar: return "scalar";
    case Isa::Word64: return "word64";
    case Isa::Avx2: return "avx2";
    case Isa::Avx512: return "avx512";
    case Isa::Neon: return "neon";
    case Isa::Auto: return "auto";
  }
  return "?";
}

std::optional<Isa> parse_isa(const char* name) {
  if (!name) return std::nullopt;
  if (std::strcmp(name, "scalar") == 0) return Isa::Scalar;
  if (std::strcmp(name, "word64") == 0) return Isa::Word64;
  if (std::strcmp(name, "avx2") == 0) return Isa::Avx2;
  if (std::strcmp(name, "avx512") == 0) return Isa::Avx512;
  if (std::strcmp(name, "neon") == 0) return Isa::Neon;
  if (std::strcmp(name, "auto") == 0) return Isa::Auto;
  return std::nullopt;
}

}  // namespace xorec::kernel
