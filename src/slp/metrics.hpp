// Static cost measures of SLPs: #⊕, #M, NVar (§4.1, §5.1, §7.5).
//
// Accounting follows the paper's conventions:
//  - xor_ops(P)   = Σ (arity − 1): real XOR operations.
//  - instructions = |body|. For the fused and scheduled stages the paper's
//    §7.5 #⊕ column counts fused instructions, not XORs, so the stage
//    tables report this measure there.
//  - mem_accesses(P, form):
//      Binary form (Base / (Xor)RePair output, executed as binary chains):
//        3 per XOR — load, load, store (§5).
//      Fused form (SLP®⊕): arity + 1 per instruction (§5.1's #M).
//  - nvar(P) = number of distinct target variables (§4.1's NVar).
#pragma once

#include <cstddef>

#include "slp/program.hpp"

namespace xorec::slp {

enum class ExecForm {
  Binary,  // n-ary instructions run as accumulate chains of binary XORs
  Fused,   // n-ary instructions run as single multi-input XOR kernels
};

size_t xor_ops(const Program& p);

size_t mem_accesses(const Program& p, ExecForm form);

size_t nvar(const Program& p);

struct StageMetrics {
  size_t xor_ops = 0;
  size_t instructions = 0;
  size_t mem_accesses = 0;
  size_t nvar = 0;
  size_t ccap = 0;
};

/// All static measures of one pipeline stage (ccap via the LRU model).
StageMetrics measure(const Program& p, ExecForm form);

}  // namespace xorec::slp
