#include "runtime/codegen_c.hpp"

#include <set>
#include <sstream>

namespace xorec::runtime {

namespace {

/// A strip operand is offset to the current block; a scratch pebble is the
/// block-sized buffer itself.
std::string operand_expr(const Operand& s) {
  std::ostringstream os;
  switch (s.space) {
    case Space::In:
      os << "in[" << s.index << "] + off";
      break;
    case Space::Out:
      os << "out[" << s.index << "] + off";
      break;
    case Space::Scratch:
      os << "scratch" << s.index;
      break;
  }
  return os.str();
}

/// Emit the XOR helper for one arity: an explicitly vectorized body (AVX-512
/// / AVX2, matching whatever -m flags the TU is compiled with) over a
/// word-64 + byte tail. Explicit intrinsics rather than
/// auto-vectorization keep the generated plans competitive with the
/// hand-written AOT kernels at -O2. No `restrict`: accumulate ops may pass
/// dst as one of the sources (exact aliasing, which per-chunk
/// load-all-then-store handles).
void emit_xor_helper(std::ostringstream& os, size_t k) {
  os << "static void xor" << k << "(uint8_t* dst";
  for (size_t j = 0; j < k; ++j) os << ", const uint8_t* s" << j;
  os << ", size_t len) {\n";
  os << "  size_t i = 0;\n";
  os << "#if defined(__AVX512F__)\n";
  os << "  for (; i + 64 <= len; i += 64) {\n";
  os << "    __m512i acc = _mm512_loadu_si512((const void*)(s0 + i));\n";
  for (size_t j = 1; j < k; ++j) {
    os << "    acc = _mm512_xor_si512(acc, _mm512_loadu_si512((const void*)(s" << j
       << " + i)));\n";
  }
  os << "    _mm512_storeu_si512((void*)(dst + i), acc);\n";
  os << "  }\n";
  os << "#elif defined(__AVX2__)\n";
  os << "  for (; i + 32 <= len; i += 32) {\n";
  os << "    __m256i acc = _mm256_loadu_si256((const __m256i*)(s0 + i));\n";
  for (size_t j = 1; j < k; ++j) {
    os << "    acc = _mm256_xor_si256(acc, _mm256_loadu_si256((const __m256i*)(s" << j
       << " + i)));\n";
  }
  os << "    _mm256_storeu_si256((__m256i*)(dst + i), acc);\n";
  os << "  }\n";
  os << "#endif\n";
  os << "  for (; i + 8 <= len; i += 8) {\n";
  os << "    uint64_t acc" << (k > 1 ? ", w" : "") << ";\n";
  os << "    memcpy(&acc, s0 + i, 8);\n";
  for (size_t j = 1; j < k; ++j) {
    os << "    memcpy(&w, s" << j << " + i, 8); acc ^= w;\n";
  }
  os << "    memcpy(dst + i, &acc, 8);\n";
  os << "  }\n";
  os << "  for (; i < len; ++i) {\n";
  os << "    uint8_t acc = s0[i];\n";
  for (size_t j = 1; j < k; ++j) os << "    acc ^= s" << j << "[i];\n";
  os << "    dst[i] = acc;\n";
  os << "  }\n";
  os << "}\n\n";
}

}  // namespace

std::string generate_c(const ExecProgram& prog, const CodegenOptions& opt) {
  std::ostringstream os;
  os << "/* Generated by xorslp_ec (runtime/codegen_c v" << kCodegenVersion
     << "). Do not edit. */\n";
  os << "#include <stddef.h>\n#include <stdint.h>\n#include <string.h>\n";
  // __AVX512F__ implies __AVX2__ under both gcc and clang, so one guard
  // covers every vectorized helper body.
  os << "#if defined(__AVX2__)\n#include <immintrin.h>\n#endif\n";
  os << "\n";

  // One n-ary XOR helper per arity used keeps the inner loops monomorphic
  // so the host compiler can vectorize each independently.
  std::set<size_t> arities;
  for (const ExecOp& op : prog.ops) arities.insert(op.srcs.size());
  for (size_t k : arities) emit_xor_helper(os, k);

  os << "void " << opt.function_name
     << "(const uint8_t* const* in, uint8_t* const* out, size_t strip_len, "
        "size_t block_size) {\n";
  os << "  if (block_size == 0 || block_size > " << opt.max_block_size
     << ") block_size = " << opt.max_block_size << ";\n";
  for (uint32_t s = 0; s < prog.num_scratch; ++s) {
    os << "  uint8_t scratch" << s << "[" << opt.max_block_size << "];\n";
  }
  os << "  for (size_t off = 0; off < strip_len; off += block_size) {\n";
  os << "    const size_t len = (strip_len - off < block_size) ? strip_len - off "
        ": block_size;\n";
  for (const ExecOp& op : prog.ops) {
    os << "    xor" << op.srcs.size() << "(" << operand_expr(op.dst);
    for (const Operand& s : op.srcs) os << ", " << operand_expr(s);
    os << ", len);\n";
  }
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace xorec::runtime
