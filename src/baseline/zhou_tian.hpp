// Comparator in the style of Zhou & Tian [103] (source never released, so
// this is a reimplementation): bitmatrix XOR scheduling *without* SLPs.
//
// Stage (i) — XOR reduction ([48, 82] style): each output row is computed
// either from scratch or incrementally from the nearest previously computed
// output row (minimum Hamming distance), with no recursive pairing and no
// ⊕-cancellation bookkeeping beyond the row diff. This lands in the ≈65%
// reduction-ratio regime the paper quotes for [103].
//
// Stage (ii) — local XOR reordering ([72] style): reorders instructions,
// dependencies permitting, so consecutive instructions share operands.
#pragma once

#include "bitmatrix/bitmatrix.hpp"
#include "slp/program.hpp"

namespace xorec::baseline {

/// Stage (i). Returns a (generally non-flat) SLP: instructions may reference
/// previously computed outputs. Executed in binary form like the Base.
slp::Program incremental_schedule(const bitmatrix::BitMatrix& m, std::string name = {});

/// Stage (ii). Topology-preserving greedy reorder maximizing operand overlap
/// between consecutive instructions.
slp::Program reorder_for_locality(const slp::Program& p);

}  // namespace xorec::baseline
