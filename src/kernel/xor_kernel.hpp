// Multi-input XOR kernels: the execution substrate for fused SLP®⊕
// instructions (§5) and the xor1/xor32 variants of §7.2.
//
// Contract of xor_many:
//   dst[0..len) = srcs[0] ^ srcs[1] ^ ... ^ srcs[k-1]   (k >= 1)
// - single pass: each source stream is read once, dst written once
//   (#M = k + 1 in the paper's model);
// - dst may be exactly equal to any srcs[i] (in-place accumulation); partial
//   overlap is undefined behaviour;
// - arbitrary len and alignment.
//
// Beyond the variadic entry point, every ISA exposes a KernelTable of
// fixed-arity specializations (the arity is baked into the function, so the
// inner loop has no source-count branch) and fused accumulate forms
// (dst ^= srcs[0] ^ ... — dst is an implicit extra source, read once).
// The lowered execution backend (runtime/lowered_program.hpp) pre-resolves
// these per instruction; the interpreter keeps using xor_many.
//
// Every table is one instantiation of the loop template in xor_loops.hpp
// (internal to src/kernel/), over the ISA's word: unrolled accumulators, one
// word at a time, then the ISA's tail (a masked lane on AVX-512, bytes
// elsewhere).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

namespace xorec::kernel {

enum class Isa : uint8_t {
  Scalar,  // byte-at-a-time (the paper's xor1)
  Word64,  // uint64 at a time, 4x unrolled
  Avx2,    // 32-byte SIMD (the paper's xor32); falls back if unsupported
  Avx512,  // 64-byte SIMD; falls back to Avx2/Word64 if unsupported
  Neon,    // 16-byte SIMD on aarch64; falls back to Word64 elsewhere
  Auto,    // best available
};

using XorManyFn = void (*)(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len);
/// Fixed-arity form: the source count is baked into the function pointer —
/// `srcs` holds exactly that many streams and the inner loop is fully
/// unrolled over them.
using XorFixedFn = void (*)(uint8_t* dst, const uint8_t* const* srcs, size_t len);

/// Largest arity with dedicated fixed/accumulate specializations; wider
/// instructions fall back to the variadic kernel.
inline constexpr size_t kMaxFixedArity = 8;

/// One ISA's full kernel family. `fixed[j]` computes dst = srcs[0]^..^srcs[j-1]
/// (fixed[1] is a copy); `accum[j]` computes dst ^= srcs[0]^..^srcs[j-1]
/// (dst is read once as an implicit extra source — the fused in-place form).
/// Index 0 of both arrays is null (an instruction always has sources).
struct KernelTable {
  Isa isa = Isa::Scalar;  // the ISA actually implemented (post-degrade)
  XorManyFn many = nullptr;
  XorFixedFn fixed[kMaxFixedArity + 1] = {};
  XorFixedFn accum[kMaxFixedArity + 1] = {};
};

/// Kernel family for the requested ISA, degraded to the best supported one
/// (Avx512 -> Avx2 -> Word64; Neon -> Word64 off-ARM) and clamped by the
/// XOREC_FORCE_ISA override when set. table.isa names the selection.
const KernelTable& kernel_table(Isa isa);

/// Best variadic implementation for the requested ISA — kernel_table(isa).many.
XorManyFn resolve(Isa isa);

/// One-shot convenience.
void xor_many(uint8_t* dst, const uint8_t* const* srcs, size_t k, size_t len,
              Isa isa = Isa::Auto);

/// CPU feature probes, memoized on first call (__builtin_cpu_supports used
/// to run on every resolve()).
bool cpu_has_avx2();
bool cpu_has_avx512();
bool cpu_has_neon();
/// Carry-less multiply, used by net::crc32 (not by the XOR kernels).
bool cpu_has_pclmul();

/// The XOREC_FORCE_ISA override (parsed from the environment once, on first
/// dispatch): when set, EVERY resolution — Auto and explicit requests alike —
/// lands on this ISA (still degraded to what the host can execute), so the
/// full dispatch surface is testable on any machine. nullopt = no override.
std::optional<Isa> forced_isa();
/// Test hook: replace the override for the current process (nullopt restores
/// "no override", NOT the environment value). Not thread-safe against
/// in-flight resolves; call from single-threaded test setup only.
void set_forced_isa_for_testing(std::optional<Isa> isa);

const char* isa_name(Isa isa);
/// Inverse of isa_name for the spec grammar / XOREC_FORCE_ISA values;
/// nullopt for unknown names.
std::optional<Isa> parse_isa(const char* name);

}  // namespace xorec::kernel
