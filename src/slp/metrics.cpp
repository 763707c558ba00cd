#include "slp/metrics.hpp"

#include <vector>

#include "slp/cache_model.hpp"

namespace xorec::slp {

size_t xor_ops(const Program& p) {
  size_t n = 0;
  for (const Instruction& ins : p.body) n += ins.args.size() - 1;
  return n;
}

size_t mem_accesses(const Program& p, ExecForm form) {
  size_t n = 0;
  for (const Instruction& ins : p.body) {
    if (form == ExecForm::Binary) {
      n += 3 * (ins.args.size() - 1);
      if (ins.args.size() == 1) n += 2;  // unary copy still loads + stores
    } else {
      n += ins.args.size() + 1;
    }
  }
  return n;
}

size_t nvar(const Program& p) {
  std::vector<bool> seen(p.num_vars, false);
  size_t n = 0;
  for (const Instruction& ins : p.body) {
    if (!seen[ins.target]) {
      seen[ins.target] = true;
      ++n;
    }
  }
  return n;
}

StageMetrics measure(const Program& p, ExecForm form) {
  StageMetrics m;
  m.xor_ops = xor_ops(p);
  m.instructions = p.body.size();
  m.mem_accesses = mem_accesses(p, form);
  m.nvar = nvar(p);
  m.ccap = ccap(p, form);
  return m;
}

}  // namespace xorec::slp
