#include "runtime/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string_view>

#include "runtime/thread_pool.hpp"

namespace xorec::runtime {

namespace {

// XOREC_FORCE_EXEC override state (mirror of kernel/dispatch.cpp's
// ForceState for XOREC_FORCE_ISA): parsed lazily exactly once, replaceable
// by the test hook. Mutex-guarded — Executors are constructed from many
// threads at once (and the test hook can race them), so the lazy parse must
// not be a plain non-atomic flag.
struct ExecForceState {
  std::mutex mu;
  bool parsed = false;
  std::optional<ExecBackend> value;
};

ExecForceState& exec_force_state() {
  static ExecForceState s;
  return s;
}

}  // namespace

const char* exec_backend_name(ExecBackend b) {
  switch (b) {
    case ExecBackend::Interp: return "interp";
    case ExecBackend::Lowered: return "lowered";
    case ExecBackend::Auto: return "auto";
  }
  return "?";
}

std::optional<ExecBackend> parse_exec_backend(const char* name) {
  if (!name) return std::nullopt;
  const std::string_view v = name;
  if (v == "interp") return ExecBackend::Interp;
  if (v == "lowered") return ExecBackend::Lowered;
  if (v == "auto") return ExecBackend::Auto;
  return std::nullopt;
}

std::optional<ExecBackend> forced_exec_backend() {
  ExecForceState& s = exec_force_state();
  std::lock_guard lk(s.mu);
  if (!s.parsed) {
    // Unknown names silently mean "no override", like XOREC_FORCE_ISA.
    s.value = parse_exec_backend(std::getenv("XOREC_FORCE_EXEC"));
    s.parsed = true;
  }
  return s.value;
}

void set_forced_exec_backend_for_testing(std::optional<ExecBackend> b) {
  ExecForceState& s = exec_force_state();
  std::lock_guard lk(s.mu);
  s.parsed = true;
  s.value = b;
}

Executor::Executor(ExecProgram program, ExecOptions opt)
    : prog_(std::move(program)), opt_(opt) {
  if (opt_.block_size == 0) throw std::invalid_argument("Executor: block_size == 0");
  if (opt_.threads == 0) opt_.threads = 1;

  const kernel::KernelTable& kt = kernel::kernel_table(opt_.isa);
  kernel_ = kt.many;
  isa_ = kt.isa;
  backend_ = opt_.backend;
  if (auto f = forced_exec_backend()) backend_ = *f;
  if (backend_ == ExecBackend::Auto) backend_ = ExecBackend::Lowered;

  if (backend_ == ExecBackend::Lowered)
    lowered_ = std::make_unique<const LoweredProgram>(prog_, kt, opt_.block_size,
                                                      opt_.nt_threshold);

  if (opt_.threads > 1) {
    worker_scratch_.reserve(opt_.threads);
    for (size_t w = 0; w < opt_.threads; ++w)
      worker_scratch_.push_back(
          std::make_unique<Scratch>(prog_, opt_, lowered_.get()));
  } else {
    // Pre-warm one freelist entry so the common single-caller case never
    // allocates inside run().
    free_scratch_.push_back(
        std::make_unique<Scratch>(prog_, opt_, lowered_.get()));
    scratch_allocated_ = 1;
  }
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

void Executor::run_range(const uint8_t* const* inputs, uint8_t* const* outputs, size_t begin,
                         size_t end, Scratch& scratch) const {
  if (lowered_) {
    lowered_->run_range(*scratch.lowered_state, inputs, outputs, scratch.ptrs.data(), begin,
                        end, opt_.block_size, opt_.prefetch_next_block);
    return;
  }

  const size_t B = opt_.block_size;
  uint8_t* const* scr = scratch.ptrs.data();
  std::vector<const uint8_t*> srcs(std::max<size_t>(prog_.max_arity(), 1));

  for (size_t off = begin; off < end; off += B) {
    const size_t len = std::min(B, end - off);
    if (opt_.prefetch_next_block && off + B < end) {
      // Pull the next block's input cache lines while this block computes.
      for (uint32_t i = 0; i < prog_.num_inputs; ++i) {
        const uint8_t* next = inputs[i] + off + B;
        for (size_t l = 0; l < len; l += 64) __builtin_prefetch(next + l, 0, 1);
      }
    }
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
      kernel_(dst, srcs.data(), op.srcs.size(), len);
    }
  }
}

void Executor::run(const uint8_t* const* inputs, uint8_t* const* outputs,
                   size_t strip_len) const {
  if (strip_len == 0 || prog_.ops.empty()) return;
  const size_t B = opt_.block_size;

  if (opt_.threads <= 1) {
    auto s = acquire_scratch();
    try {
      run_range(inputs, outputs, 0, strip_len, *s);
    } catch (...) {
      release_scratch(std::move(s));
      throw;
    }
    release_scratch(std::move(s));
    return;
  }

  // Split the strip into per-worker spans of whole blocks. The shared pool
  // serializes overlapping run_on_all calls, so the per-worker arenas are
  // never used by two outer calls at once.
  const size_t n_blocks = (strip_len + B - 1) / B;
  const size_t workers = std::min(opt_.threads, n_blocks);
  const size_t per = (n_blocks + workers - 1) / workers;
  ThreadPool& pool = ThreadPool::shared(workers);
  pool.run_on_all([&](size_t w) {
    if (w >= workers) return;
    const size_t begin = std::min(w * per * B, strip_len);
    const size_t end = std::min((w + 1) * per * B, strip_len);
    if (begin < end) run_range(inputs, outputs, begin, end, *worker_scratch_[w]);
  });
}

}  // namespace xorec::runtime
