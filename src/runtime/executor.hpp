// The blocked SLP execution engine (§6.1): runs a compiled program over
// strips in B-byte blocks so all the pebbles of one iteration stay
// cache-resident. Every row of blocks is independent of every other, so a
// range of rows is an exact sub-problem.
//
// Who runs a call: outside any TaskQueue task (a direct Codec::encode or
// plan->execute) the calling thread runs every row. Inside one (a shard
// worker, a waiter that claimed its own job, NetServer's loop thread) a call
// of at least 2 × kMinSplitRows rows is cut into up to kMaxSplitParts
// row-range parts, and TaskQueue::run_parts lets that queue's idle workers
// take parts beside the running thread. Each part runs the same row loop on
// strip pointers shifted to its first row, with its own scratch from the
// freelist; parts never split again. Whole stripes still run concurrently
// (BatchCoder / CodecService), each caller on its own scratch.
//
// The row grid is cache-line aware (§7.4, runtime/aligned_buffer.hpp): when
// a strip spans several blocks and B is a multiple of 64, the first row is
// peeled to B − r bytes, r being the line offset that most of the program's
// operand references to caller strips sit at (first_block_len; the weights
// are counted once, in the constructor). Every later row of those strips
// then starts on a cache line, like the scratch blocks. Strips of one block
// or less run as one row, unpeeled. Output bytes do not depend on the grid.
//
// Two backends share that grid:
//   exec=interp   — walk the ExecProgram, resolving operands per instruction
//                   per block through the variadic xor_many kernel;
//   exec=lowered  — run the straight-line LoweredProgram of pre-resolved
//                   fixed-arity/accumulate kernel calls (lowered once, in
//                   this constructor; see runtime/lowered_program.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "kernel/xor_kernel.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/exec_program.hpp"
#include "runtime/lowered_program.hpp"

namespace xorec::runtime {

/// Execution backend (spec key exec=). Lowered is the default; the
/// interpreter survives as the reference semantics and for differential
/// testing. The numeric values are baked into plan-cache fingerprints, so
/// they never change.
enum class ExecBackend : uint8_t { Interp = 0, Lowered = 1 };

const char* exec_backend_name(ExecBackend b);
/// "interp"/"lowered" -> backend; nullopt for anything else.
std::optional<ExecBackend> parse_exec_backend(const char* name);

struct ExecOptions {
  size_t block_size = 2048;               // B of the blocking technique
  kernel::Isa isa = kernel::Isa::Auto;
  bool stagger_scratch = true;             // §7.4 anti-conflict layout
  ExecBackend backend = ExecBackend::Lowered;
};

/// Executor scratch-freelist counters (see Executor::scratch_stats).
struct ScratchStats {
  size_t free = 0;        // arenas parked in the freelist now
  size_t high_water = 0;  // max concurrently-running run() callers seen
  size_t allocated = 0;   // total arenas ever constructed
  size_t dropped = 0;     // arenas freed instead of parked (freelist at cap)
};

/// Owns the scratch pebble arenas for one compiled program at one block
/// size; reusable across calls. run() is thread-safe: concurrent callers
/// draw private scratch from a freelist (the BatchCoder stripe-parallel
/// path). The freelist is bounded by the high-water concurrency actually
/// observed, so a burst of callers cannot permanently pin burst-many arenas.
class Executor {
 public:
  /// A call inside a TaskQueue task splits when it has at least twice this
  /// many rows, into at most kMaxSplitParts parts of at least this many
  /// rows each (measured through a one-worker CodecService; CHANGES.md).
  static constexpr size_t kMinSplitRows = 8;
  static constexpr size_t kMaxSplitParts = 8;

  Executor(ExecProgram program, ExecOptions opt = {});

  const ExecProgram& program() const { return prog_; }
  const ExecOptions& options() const { return opt_; }

  /// The backend this executor runs, and the ISA it actually runs (after
  /// Auto resolution, host capability degrade, and the XOREC_FORCE_ISA
  /// override).
  ExecBackend backend() const { return opt_.backend; }
  kernel::Isa isa() const { return isa_; }
  /// The lowered form, when backend() == Lowered (instruction-mix
  /// introspection for tests/benches).
  const LoweredProgram* lowered() const { return lowered_.get(); }

  ScratchStats scratch_stats() const;

  /// inputs:  num_inputs strip pointers, each strip_len bytes.
  /// outputs: num_outputs strip pointers, each strip_len bytes.
  /// Any strip_len is accepted (the first row may be peeled and the last
  /// one short; see the grid note at the top of this file). A large call
  /// inside a TaskQueue task may run partly on that queue's workers (see
  /// the top of this file); it returns when every row is written.
  void run(const uint8_t* const* inputs, uint8_t* const* outputs, size_t strip_len) const;

 private:
  /// One caller's private pebble storage, plus the interpreter's source
  /// pointer array or the lowered backend's slot and argument tables, and
  /// the caller strip pointers shifted to a part's first row, so run() and
  /// every part never allocate.
  struct Scratch {
    StripArena arena;
    std::vector<uint8_t*> ptrs;
    std::vector<const uint8_t*> srcs;
    std::unique_ptr<LoweredProgram::State> lowered_state;
    std::vector<const uint8_t*> part_in;
    std::vector<uint8_t*> part_out;
    Scratch(const ExecProgram& prog, const ExecOptions& opt, const LoweredProgram* lp)
        : arena(prog.num_scratch, opt.block_size, opt.block_size, opt.stagger_scratch),
          ptrs(arena.pointers()),
          part_in(prog.num_inputs),
          part_out(prog.num_outputs) {
      if (lp)
        lowered_state = std::make_unique<LoweredProgram::State>(*lp);
      else
        srcs.resize(std::max<size_t>(prog.max_arity(), 1));
    }
  };

  void run_blocks(const uint8_t* const* inputs, uint8_t* const* outputs, size_t strip_len,
                  Scratch& scratch) const;
  /// run_blocks over strip bytes [off, off + len) on freelist scratch.
  void run_part(const uint8_t* const* inputs, uint8_t* const* outputs, size_t off,
                size_t len) const;
  std::unique_ptr<Scratch> acquire_scratch() const;
  void release_scratch(std::unique_ptr<Scratch> s) const;

  ExecProgram prog_;
  ExecOptions opt_;
  std::vector<uint32_t> strip_refs_;  // per In/Out strip: operands referencing it
  kernel::XorManyFn kernel_;
  kernel::Isa isa_ = kernel::Isa::Scalar;
  std::unique_ptr<const LoweredProgram> lowered_;
  mutable std::mutex scratch_mu_;  // guards the freelist + counters below
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_;
  mutable size_t scratch_in_use_ = 0;
  mutable size_t scratch_high_water_ = 0;
  mutable size_t scratch_allocated_ = 0;
  mutable size_t scratch_dropped_ = 0;
};

}  // namespace xorec::runtime
