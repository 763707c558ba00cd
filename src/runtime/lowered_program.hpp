// The lowered execution backend (exec=lowered): an ExecProgram compiled one
// step further, into a straight-line program of pre-resolved kernel calls.
//
// The interpreter (executor.cpp) re-resolves every instruction on every
// block: a switch over each operand's address space, a heap-backed source
// pointer array, and a variadic kernel whose inner loop carries the source
// count as a runtime parameter. Lowering hoists all of that to compile time:
//
//   - operands become indices into one flat slot table
//     [inputs][outputs][scratch]; per instruction the runner resolves its
//     argument pointers from a flattened slot-index array into one small
//     reused buffer (no space switch, no per-op allocation — and the buffer
//     stays L1-hot, unlike a full per-block gather), then advances the
//     in/out slots by the row length after each row (scratch stays put);
//     rows follow the Executor's line-aligned grid (a peeled first row,
//     runtime/aligned_buffer.hpp), the same grid the interpreter walks;
//   - each instruction is bound to a fixed-arity kernel specialization
//     (kernel::KernelTable::fixed[k]) so the source count is baked into the
//     function pointer and its inner loop is fully unrolled;
//   - instructions of the form dst = dst ^ a ^ b (one exact self-reference)
//     are folded into the fused accumulate kernel (accum[k-1]), dropping one
//     stream from the loop;
//   - wide instructions (post-fusion arity beyond kMaxFixedArity) are
//     decomposed into a straight-line chain of fixed/accumulate calls —
//     fixed[8] then accum[8]... — trading the variadic kernel's runtime
//     source loop (an add/compare/branch per 64 bytes per source) for fully
//     unrolled segments. The destination is re-read between segments, but at
//     cache-blocked sizes it stays L1-resident, so the extra passes are
//     nearly free; past kSegmentedBlockMax the one-pass variadic form wins
//     and decomposition is skipped.
//
// Lowering happens once, in the Executor constructor, and the Executor lives
// inside the PlanCache's CompiledProgram — so hot plans pay it once per
// process, and every subsequent execution runs the straight-line form.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kernel/xor_kernel.hpp"
#include "runtime/exec_program.hpp"

namespace xorec::runtime {

class LoweredProgram {
 public:
  /// One pre-resolved call. `fn` set: fixed-arity or accumulate kernel over
  /// `arity` gathered argument pointers. `fn` null: variadic fallback
  /// through `many` (generic wide/aliased instructions).
  struct Op {
    kernel::XorFixedFn fn = nullptr;
    kernel::XorManyFn many = nullptr;
    uint32_t dst = 0;       // slot index
    uint32_t arg_base = 0;  // offset into the flattened arg-slot array
    uint32_t arity = 0;     // argument count (excludes the accumulate dst)
  };

  /// Per-caller mutable state, sized for one program: the slot table and the
  /// per-instruction argument buffer (widest arity, reused by every call so
  /// it stays cache-hot). Lives in the Executor's per-caller Scratch so
  /// run() never allocates.
  struct State {
    std::vector<uint8_t*> slots;
    std::vector<const uint8_t*> args;
    explicit State(const LoweredProgram& lp)
        : slots(lp.num_slots()), args(lp.max_arity()) {}
  };

  /// Bind `prog` to one kernel family. `block_size` decides statically
  /// whether wide instructions are decomposed (see kSegmentedBlockMax).
  LoweredProgram(const ExecProgram& prog, const kernel::KernelTable& kernels,
                 size_t block_size);

  kernel::Isa isa() const { return isa_; }
  size_t num_slots() const { return num_slots_; }
  size_t total_args() const { return arg_slots_.size(); }
  size_t max_arity() const { return max_arity_; }
  const std::vector<Op>& ops() const { return ops_; }
  /// Instruction-mix counters (tests/benches introspection).
  size_t fixed_ops() const { return fixed_ops_; }
  size_t accum_ops() const { return accum_ops_; }
  /// Source instructions split into fixed/accum segment chains.
  size_t segmented_ops() const { return segmented_ops_; }

  /// Blocks at or below this stay decomposable: the destination strip is
  /// re-read once per extra segment, which only pays off while a block is
  /// L1/L2-resident.
  static constexpr size_t kSegmentedBlockMax = 32 * 1024;

  /// Execute strip bytes [0, strip_len) on the executor's row grid: a first
  /// row of min(first_block, strip_len) bytes (first_block_len(), the peel
  /// that line-aligns later rows), then `block_size`-byte rows and at most
  /// one short tail. Pointer counts must match the source ExecProgram;
  /// `scratch` buffers must hold at least min(block_size, strip_len) bytes
  /// each, and first_block must not exceed block_size.
  void run(State& st, const uint8_t* const* inputs, uint8_t* const* outputs,
           uint8_t* const* scratch, size_t strip_len, size_t block_size,
           size_t first_block) const;

 private:
  std::vector<Op> ops_;
  std::vector<uint32_t> arg_slots_;  // all ops' argument slots, concatenated
  uint32_t num_inputs_ = 0;
  uint32_t num_outputs_ = 0;
  uint32_t num_slots_ = 0;
  size_t max_arity_ = 1;
  kernel::Isa isa_ = kernel::Isa::Scalar;
  size_t fixed_ops_ = 0;
  size_t accum_ops_ = 0;
  size_t segmented_ops_ = 0;
};

}  // namespace xorec::runtime
