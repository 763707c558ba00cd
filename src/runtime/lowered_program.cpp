#include "runtime/lowered_program.hpp"

#include <algorithm>
#include <stdexcept>

namespace xorec::runtime {

namespace {

uint32_t slot_of(const Operand& o, uint32_t num_inputs, uint32_t num_outputs) {
  switch (o.space) {
    case Space::In: return o.index;
    case Space::Out: return num_inputs + o.index;
    case Space::Scratch: return num_inputs + num_outputs + o.index;
  }
  throw std::logic_error("LoweredProgram: bad operand space");
}

}  // namespace

LoweredProgram::LoweredProgram(const ExecProgram& prog, const kernel::KernelTable& kernels,
                               size_t block_size)
    : num_inputs_(prog.num_inputs),
      num_outputs_(prog.num_outputs),
      num_slots_(prog.num_inputs + prog.num_outputs + prog.num_scratch),
      isa_(kernels.isa) {
  ops_.reserve(prog.ops.size());

  std::vector<uint32_t> srcs;
  for (const ExecOp& op : prog.ops) {
    const uint32_t dst = slot_of(op.dst, num_inputs_, num_outputs_);
    srcs.clear();
    for (const Operand& s : op.srcs) srcs.push_back(slot_of(s, num_inputs_, num_outputs_));

    if (srcs.size() == 1 && srcs[0] == dst) continue;  // self-copy: no-op

    const size_t self_refs =
        static_cast<size_t>(std::count(srcs.begin(), srcs.end(), dst));

    // `rest`: the sources with one self-reference removed — what the
    // accumulate forms take. For self_refs == 0 it is just `srcs`.
    const size_t rest = srcs.size() - self_refs;

    if (self_refs <= 1 && rest > kernel::kMaxFixedArity &&
        block_size <= kSegmentedBlockMax) {
      // Wide instruction on a cache-resident block: decompose into a chain
      // of fully unrolled segments. The first overwrites dst (fixed[k])
      // unless dst is also a source; every later segment accumulates.
      bool overwrite = self_refs == 0;
      size_t pos = 0;
      std::vector<uint32_t> pending;
      pending.reserve(rest);
      for (uint32_t s : srcs)
        if (self_refs == 0 || s != dst) pending.push_back(s);
      while (pos < pending.size()) {
        const size_t take = std::min<size_t>(kernel::kMaxFixedArity, pending.size() - pos);
        Op seg;
        seg.dst = dst;
        seg.arg_base = static_cast<uint32_t>(arg_slots_.size());
        arg_slots_.insert(arg_slots_.end(), pending.begin() + static_cast<long>(pos),
                          pending.begin() + static_cast<long>(pos + take));
        seg.arity = static_cast<uint32_t>(take);
        if (overwrite) {
          seg.fn = kernels.fixed[take];
          ++fixed_ops_;
        } else {
          seg.fn = kernels.accum[take];
          ++accum_ops_;
        }
        overwrite = false;
        max_arity_ = std::max<size_t>(max_arity_, seg.arity);
        ops_.push_back(seg);
        pos += take;
      }
      ++segmented_ops_;
      continue;
    }

    Op out;
    out.dst = dst;
    out.arg_base = static_cast<uint32_t>(arg_slots_.size());

    if (self_refs == 1 && srcs.size() >= 2 && rest <= kernel::kMaxFixedArity) {
      // dst = dst ^ rest...  ->  fused accumulate over `rest` (dst becomes
      // the kernel's implicit extra source, read once).
      for (uint32_t s : srcs)
        if (s != dst) arg_slots_.push_back(s);
      out.arity = static_cast<uint32_t>(rest);
      out.fn = kernels.accum[out.arity];
      ++accum_ops_;
    } else if (self_refs == 0 && srcs.size() <= kernel::kMaxFixedArity) {
      arg_slots_.insert(arg_slots_.end(), srcs.begin(), srcs.end());
      out.arity = static_cast<uint32_t>(srcs.size());
      out.fn = kernels.fixed[out.arity];
      ++fixed_ops_;
    } else {
      // Wide-on-huge-blocks or multiply-aliased instruction: the variadic
      // kernel handles exact dst/src aliasing positionally (reads precede
      // the write at every byte), so the original operand list runs
      // unchanged.
      arg_slots_.insert(arg_slots_.end(), srcs.begin(), srcs.end());
      out.arity = static_cast<uint32_t>(srcs.size());
      out.many = kernels.many;
    }

    max_arity_ = std::max<size_t>(max_arity_, out.arity);
    ops_.push_back(out);
  }
}

void LoweredProgram::run(State& st, const uint8_t* const* inputs, uint8_t* const* outputs,
                         uint8_t* const* scratch, size_t strip_len, size_t block_size,
                         size_t first_block) const {
  const size_t B = block_size;
  uint8_t** slots = st.slots.data();
  const uint8_t** args = st.args.data();
  const uint32_t* arg_slots = arg_slots_.data();
  const uint32_t n_moving = num_inputs_ + num_outputs_;

  // Input slots are never written (ExecProgram rejects In destinations); the
  // const_cast only unifies the table type.
  for (uint32_t i = 0; i < num_inputs_; ++i) slots[i] = const_cast<uint8_t*>(inputs[i]);
  for (uint32_t o = 0; o < num_outputs_; ++o) slots[num_inputs_ + o] = outputs[o];
  for (uint32_t s = n_moving; s < num_slots_; ++s) slots[s] = scratch[s - n_moving];

  for (size_t off = 0, len = std::min(first_block, strip_len); off < strip_len;
       off += len, len = std::min(B, strip_len - off)) {
    for (const Op& op : ops_) {
      const uint32_t* as = arg_slots + op.arg_base;
      for (uint32_t j = 0; j < op.arity; ++j) args[j] = slots[as[j]];
      if (op.fn)
        op.fn(slots[op.dst], args, len);
      else
        op.many(slots[op.dst], args, op.arity, len);
    }
    for (uint32_t s = 0; s < n_moving; ++s) slots[s] += len;
  }
}

}  // namespace xorec::runtime
