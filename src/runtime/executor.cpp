#include "runtime/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "runtime/task_queue.hpp"

namespace xorec::runtime {

const char* exec_backend_name(ExecBackend b) {
  switch (b) {
    case ExecBackend::Interp: return "interp";
    case ExecBackend::Lowered: return "lowered";
  }
  return "?";
}

std::optional<ExecBackend> parse_exec_backend(const char* name) {
  if (!name) return std::nullopt;
  const std::string_view v = name;
  if (v == "interp") return ExecBackend::Interp;
  if (v == "lowered") return ExecBackend::Lowered;
  return std::nullopt;
}

Executor::Executor(ExecProgram program, ExecOptions opt)
    : prog_(std::move(program)), opt_(opt) {
  if (opt_.block_size == 0) throw std::invalid_argument("Executor: block_size == 0");

  // Each caller strip's weight in the row-grid vote (first_block_len): the
  // operands that touch it, inputs first, then outputs.
  strip_refs_.assign(prog_.num_inputs + prog_.num_outputs, 0);
  const auto count = [&](const Operand& o) {
    if (o.space == Space::In) ++strip_refs_[o.index];
    if (o.space == Space::Out) ++strip_refs_[prog_.num_inputs + o.index];
  };
  for (const ExecOp& op : prog_.ops) {
    count(op.dst);
    for (const Operand& s : op.srcs) count(s);
  }

  const kernel::KernelTable& kt = kernel::kernel_table(opt_.isa);
  kernel_ = kt.many;
  isa_ = kt.isa;
  if (opt_.backend == ExecBackend::Lowered)
    lowered_ = std::make_unique<const LoweredProgram>(prog_, kt, opt_.block_size);

  // Pre-warm one freelist entry so the common single-caller case never
  // allocates inside run().
  free_scratch_.push_back(std::make_unique<Scratch>(prog_, opt_, lowered_.get()));
  scratch_allocated_ = 1;
}

std::unique_ptr<Executor::Scratch> Executor::acquire_scratch() const {
  {
    std::lock_guard lk(scratch_mu_);
    ++scratch_in_use_;
    scratch_high_water_ = std::max(scratch_high_water_, scratch_in_use_);
    if (!free_scratch_.empty()) {
      auto s = std::move(free_scratch_.back());
      free_scratch_.pop_back();
      return s;
    }
    ++scratch_allocated_;
  }
  return std::make_unique<Scratch>(prog_, opt_, lowered_.get());
}

void Executor::release_scratch(std::unique_ptr<Scratch> s) const {
  std::lock_guard lk(scratch_mu_);
  --scratch_in_use_;
  // Keep at most high-water arenas parked: a one-off burst of concurrent
  // callers must not pin burst-many arenas for the executor's lifetime.
  if (free_scratch_.size() < std::max<size_t>(scratch_high_water_, 1))
    free_scratch_.push_back(std::move(s));
  else
    ++scratch_dropped_;  // s frees on scope exit
}

ScratchStats Executor::scratch_stats() const {
  std::lock_guard lk(scratch_mu_);
  return {free_scratch_.size(), scratch_high_water_, scratch_allocated_, scratch_dropped_};
}

void Executor::run_blocks(const uint8_t* const* inputs, uint8_t* const* outputs,
                          size_t strip_len, Scratch& scratch) const {
  const size_t B = opt_.block_size;
  const size_t first = first_block_len(B, strip_len, {inputs, prog_.num_inputs},
                                       {outputs, prog_.num_outputs}, strip_refs_);
  if (lowered_) {
    lowered_->run(*scratch.lowered_state, inputs, outputs, scratch.ptrs.data(), strip_len,
                  B, first);
    return;
  }

  uint8_t* const* scr = scratch.ptrs.data();
  const uint8_t** srcs = scratch.srcs.data();

  for (size_t off = 0, len = std::min(first, strip_len); off < strip_len;
       off += len, len = std::min(B, strip_len - off)) {
    for (const ExecOp& op : prog_.ops) {
      for (size_t j = 0; j < op.srcs.size(); ++j) {
        const Operand& s = op.srcs[j];
        switch (s.space) {
          case Space::In: srcs[j] = inputs[s.index] + off; break;
          case Space::Out: srcs[j] = outputs[s.index] + off; break;
          case Space::Scratch: srcs[j] = scr[s.index]; break;
        }
      }
      uint8_t* dst;
      switch (op.dst.space) {
        case Space::Out: dst = outputs[op.dst.index] + off; break;
        case Space::Scratch: dst = scr[op.dst.index]; break;
        case Space::In:
        default:
          throw std::logic_error("Executor: write to input space");
      }
      kernel_(dst, srcs, op.srcs.size(), len);
    }
  }
}

void Executor::run_part(const uint8_t* const* inputs, uint8_t* const* outputs, size_t off,
                        size_t len) const {
  auto s = acquire_scratch();
  try {
    for (size_t i = 0; i < prog_.num_inputs; ++i) s->part_in[i] = inputs[i] + off;
    for (size_t i = 0; i < prog_.num_outputs; ++i) s->part_out[i] = outputs[i] + off;
    run_blocks(s->part_in.data(), s->part_out.data(), len, *s);
  } catch (...) {
    release_scratch(std::move(s));
    throw;
  }
  release_scratch(std::move(s));
}

void Executor::run(const uint8_t* const* inputs, uint8_t* const* outputs,
                   size_t strip_len) const {
  if (strip_len == 0 || prog_.ops.empty()) return;
  if (TaskQueue* const queue = TaskQueue::current()) {
    const size_t B = opt_.block_size;
    const size_t first = first_block_len(B, strip_len, {inputs, prog_.num_inputs},
                                         {outputs, prog_.num_outputs}, strip_refs_);
    const size_t rows = strip_len <= first ? 1 : 1 + (strip_len - first + B - 1) / B;
    const size_t parts = std::min(kMaxSplitParts, rows / kMinSplitRows);
    if (parts >= 2) {
      // Part p runs rows [p·rows/parts, (p+1)·rows/parts). A part past row 0
      // starts on a line-aligned row, so its own first_block_len is B and
      // the grid is the unsplit one.
      const auto row_start = [&](size_t r) {
        return r == 0 ? 0 : std::min(strip_len, first + (r - 1) * B);
      };
      queue->run_parts(parts, [&](size_t p) {
        const size_t lo = row_start(p * rows / parts), hi = row_start((p + 1) * rows / parts);
        run_part(inputs, outputs, lo, hi - lo);
      });
      return;
    }
  }
  run_part(inputs, outputs, 0, strip_len);
}

}  // namespace xorec::runtime
