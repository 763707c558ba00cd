// Ahead-of-time code generation: emit a compiled SLP as a self-contained C
// translation unit instead of running it through the interpreter.
//
// The paper treats XOR-based EC as *program generation*; this module closes
// the loop by pretty-printing the pointer-resolved execution program as a C
// function a toolchain can compile to native code (useful for embedding a
// fixed codec with zero interpreter overhead, or for inspecting exactly what
// the optimizer produced).
//
// Generated signature:
//   void NAME(const uint8_t* const* in,   // num_inputs strips
//             uint8_t* const* out,        // num_outputs strips
//             size_t strip_len,           // bytes per strip
//             size_t block_size);         // §6.1 blocking parameter
//
// block_size is clamped to max_block_size, and scratch pebbles are stack
// buffers. The emitted code is C99: one XOR helper per arity, with an
// AVX-512 or AVX2 intrinsic body selected by the preprocessor (__AVX512F__ /
// __AVX2__, i.e. the -m flags the translation unit is compiled with) over a
// word-64 loop and a byte tail, so it builds anywhere and vectorizes where
// the target allows.
#pragma once

#include <cstddef>
#include <string>

#include "runtime/exec_program.hpp"

namespace xorec::runtime {

/// Bumped whenever the emission changes shape; stamped into the generated
/// banner so a checked-in generated file names the emitter that wrote it.
inline constexpr int kCodegenVersion = 4;

struct CodegenOptions {
  std::string function_name = "xorec_coded_run";
  /// Scratch pebbles are stack buffers of this many bytes; must be >= the
  /// block_size passed at runtime. 4096 covers every paper configuration.
  size_t max_block_size = 4096;
};

/// Emit the C source for one execution program.
std::string generate_c(const ExecProgram& prog, const CodegenOptions& opt = {});

}  // namespace xorec::runtime
