// RePair grammar compression for SLP⊕ (§4.3) and its cancellation-aware
// extension XorRePair (§4.4).
//
// Input: a *flat* SLP (every instruction's arguments are constants — the
// shape `from_bitmatrix` produces). Output: a binary SLP⊕ whose instructions
// are the generated temporals t1, t2, ... in generation order; every original
// variable has been compressed down to an alias of a temporal (or of a
// constant, which materializes as a unary copy).
//
// Faithfulness notes:
//  - pair choice: most frequent pair across the live original definitions,
//    ties broken by the lexicographic ⊏ over ≺ (temporals-by-generation
//    before constants-by-index), exactly as §4.3;
//  - Pair(x, y) reuses an existing temporal with definition x ⊕ y instead of
//    minting a duplicate, and applies ⊕-cancellation when the temporal is
//    already present in a definition (both no-ops for plain matrix inputs);
//  - Rebuild(v) (§4.4) greedily XORs temporal *values* into the remainder,
//    never picking a temporal already in S (re-picking would silently cancel),
//    ties going to the earlier temporal. Each original keeps its greedy run
//    between passes, and a pass recomputes it only from the first step where
//    a temporal minted since then scores strictly better, which yields the
//    same run as a full rescan;
//  - a final dead-code sweep drops temporals that ended up unreferenced
//    (possible after Rebuild rewrites definitions).
#pragma once

#include "slp/program.hpp"

namespace xorec::slp {

struct CompressOptions {
  /// false = plain RePair; true = XorRePair (RePair + Rebuild).
  bool use_rebuild = false;
};

Program repair_compress(const Program& flat, const CompressOptions& opt = {});

/// Convenience: repair_compress with Rebuild enabled.
Program xor_repair_compress(const Program& flat);

}  // namespace xorec::slp
