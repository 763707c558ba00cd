#include "slp/repair.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "slp/semantics.hpp"

namespace xorec::slp {
namespace {

using bitmatrix::BitRow;

/// Sorted-vector set of terms: the definition of one original variable.
using Def = std::vector<Term>;

bool def_contains(const Def& d, const Term& t) {
  return std::binary_search(d.begin(), d.end(), t);
}
void def_erase(Def& d, const Term& t) {
  auto it = std::lower_bound(d.begin(), d.end(), t);
  assert(it != d.end() && *it == t);
  d.erase(it);
}
void def_insert(Def& d, const Term& t) {
  auto it = std::lower_bound(d.begin(), d.end(), t);
  assert(it == d.end() || !(*it == t));
  d.insert(it, t);
}

class Compressor {
 public:
  Compressor(const Program& flat, const CompressOptions& opt) : opt_(opt) {
    if (!flat.is_flat())
      throw std::invalid_argument("repair_compress: program must be flat (constants only)");
    num_consts_ = flat.num_consts;

    // One definition per *output*; the paper's originals are the returned
    // variables. (Flat programs assign each output var exactly once.)
    std::vector<Def> defs_by_var(flat.num_vars);
    std::vector<BitRow> val_by_var(flat.num_vars, BitRow(num_consts_));
    for (const Instruction& ins : flat.body) {
      Def d;
      BitRow v(num_consts_);
      for (const Term& t : ins.args) {
        // Fold duplicate constants by cancellation.
        if (def_contains(d, t)) def_erase(d, t); else def_insert(d, t);
        v.flip(t.id);
      }
      defs_by_var[ins.target] = std::move(d);
      val_by_var[ins.target] = std::move(v);
    }

    const size_t n = flat.outputs.size();
    defs_.resize(n);
    values_.resize(n);
    alias_.assign(n, Term::var(UINT32_MAX));
    alive_.assign(n, true);
    traces_.resize(n);
    n_alive_ = 0;
    for (size_t i = 0; i < n; ++i) {
      defs_[i] = defs_by_var[flat.outputs[i]];
      values_[i] = val_by_var[flat.outputs[i]];
      if (defs_[i].empty())
        throw std::invalid_argument("repair_compress: output with zero value");
      if (defs_[i].size() == 1) {
        alias_[i] = defs_[i][0];
        alive_[i] = false;
      } else {
        ++n_alive_;
        traces_[i].rem = {values_[i]};
        traces_[i].size = {values_[i].popcount()};
      }
    }
    for (size_t i = 0; i < n; ++i)
      if (alive_[i]) add_all_pairs(defs_[i]);
  }

  Program run() {
    while (n_alive_ > 0) {
      const TermPair p = choose_pair();
      apply_pair(p);
      if (opt_.use_rebuild) rebuild_all();
    }
    return assemble();
  }

 private:
  // ---- pair bookkeeping -------------------------------------------------
  // Every live pair owns one slot: its count and its position inside the
  // bucket of pairs with that count. Buckets are unordered; a removal swaps
  // the bucket's last entry into the hole.
  struct Slot {
    uint32_t count = 0;
    uint32_t pos = 0;
  };
  using PairEntry = std::pair<const TermPair, Slot>;  // node-stable in pairs_

  void bucket_add(PairEntry* e) {
    const uint32_t c = e->second.count;
    if (buckets_.size() <= c) buckets_.resize(c + 1);
    e->second.pos = static_cast<uint32_t>(buckets_[c].size());
    buckets_[c].push_back(e);
    max_count_ = std::max<size_t>(max_count_, c);
  }
  void bucket_remove(PairEntry* e) {
    std::vector<PairEntry*>& b = buckets_[e->second.count];
    PairEntry* last = b.back();
    b[e->second.pos] = last;
    last->second.pos = e->second.pos;
    b.pop_back();
  }
  void inc_pair(const TermPair& p) {
    auto [it, fresh] = pairs_.try_emplace(p);
    PairEntry* e = &*it;
    if (!fresh) bucket_remove(e);
    ++e->second.count;
    bucket_add(e);
  }
  void dec_pair(const TermPair& p) {
    auto it = pairs_.find(p);
    assert(it != pairs_.end() && it->second.count > 0);
    PairEntry* e = &*it;
    bucket_remove(e);
    if (--e->second.count == 0) {
      pairs_.erase(it);
    } else {
      bucket_add(e);
    }
  }
  void add_all_pairs(const Def& d) {
    for (size_t i = 0; i < d.size(); ++i)
      for (size_t j = i + 1; j < d.size(); ++j) inc_pair(TermPair::make(d[i], d[j]));
  }
  void remove_all_pairs(const Def& d) {
    for (size_t i = 0; i < d.size(); ++i)
      for (size_t j = i + 1; j < d.size(); ++j) dec_pair(TermPair::make(d[i], d[j]));
  }

  TermPair choose_pair() {
    while (max_count_ > 0 && buckets_[max_count_].empty()) --max_count_;
    assert(max_count_ > 0 && "alive defs always expose at least one pair");
    const std::vector<PairEntry*>& top = buckets_[max_count_];
    const auto by_pair = [](const PairEntry* a, const PairEntry* b) { return a->first < b->first; };
    return (*std::min_element(top.begin(), top.end(), by_pair))->first;  // ⊏-smallest
  }

  // ---- temporals ---------------------------------------------------------
  const BitRow& term_value(const Term& t) {
    if (t.is_const()) {
      if (const_values_.empty()) {
        const_values_.resize(num_consts_, BitRow(num_consts_));
        for (uint32_t c = 0; c < num_consts_; ++c) const_values_[c].flip(c);
      }
      return const_values_[t.id];
    }
    return temp_values_[t.id];
  }

  Term get_or_make_temporal(const TermPair& p) {
    auto it = temp_lookup_.find(p);
    if (it != temp_lookup_.end()) return Term::var(it->second);
    const uint32_t id = static_cast<uint32_t>(temps_.size());
    temps_.push_back({id, {p.lo, p.hi}});
    BitRow v = term_value(p.lo);
    v ^= term_value(p.hi);
    temp_values_.push_back(std::move(v));
    temp_lookup_.emplace(p, id);
    return Term::var(id);
  }

  // ---- core steps ----------------------------------------------------------
  void apply_pair(const TermPair& p) {
    const Term t = get_or_make_temporal(p);
    // Snapshot: affected defs are those containing both halves.
    for (size_t i = 0; i < defs_.size(); ++i) {
      if (!alive_[i]) continue;
      Def& d = defs_[i];
      if (!def_contains(d, p.lo) || !def_contains(d, p.hi)) continue;

      // Removed terms: the pair, plus t itself when already present
      // (x ⊕ y ⊕ t = 0 — ⊕-cancellation).
      std::vector<Term> removed = {p.lo, p.hi};
      const bool cancel = def_contains(d, t);
      if (cancel) removed.push_back(t);

      // Incremental pair-count update in O(|def|).
      for (const Term& z : d) {
        if (std::find(removed.begin(), removed.end(), z) != removed.end()) continue;
        for (const Term& r : removed) dec_pair(TermPair::make(r, z));
        if (!cancel) inc_pair(TermPair::make(t, z));
      }
      for (size_t a = 0; a < removed.size(); ++a)
        for (size_t b = a + 1; b < removed.size(); ++b)
          dec_pair(TermPair::make(removed[a], removed[b]));

      for (const Term& r : removed) def_erase(d, r);
      if (!cancel) def_insert(d, t);

      assert(!d.empty() && "definition value cannot become zero");
      if (d.size() == 1) retire(i, d[0]);
    }
  }

  void retire(size_t orig, const Term& alias) {
    alias_[orig] = alias;
    alive_[orig] = false;
    --n_alive_;
    defs_[orig].clear();
    traces_[orig] = {};
  }

  /// One original's greedy Rebuild run: rem[k] is the remainder before step
  /// k and size[k] its popcount; step k XORs in temporal pick[k], so
  /// size[k + 1] is that pick's score. rem.back() is where the run stopped.
  /// The run is exact over temporals [0, seen).
  struct Trace {
    std::vector<BitRow> rem;
    std::vector<size_t> size;
    std::vector<uint32_t> pick;
    uint32_t seen = 0;
  };

  void rebuild_all() {
    for (size_t i = 0; i < defs_.size(); ++i) {
      if (!alive_[i]) continue;
      rebuild_one(i);
    }
  }

  /// Rebuild(v) of §4.4: greedily XOR into the remainder the temporal that
  /// shrinks it most (ties keep the lower-index temporal), never re-picking
  /// one, until nothing shrinks it; adopt the result when it is smaller than
  /// the current definition.
  ///
  /// Temporals are append-only and their values never change, so the greedy
  /// run of an earlier pass stays valid up to the first step where a
  /// temporal minted since then scores strictly lower than that step's pick
  /// (or than the remainder, at the step where the run stopped). Only the
  /// run from that step on is recomputed.
  void rebuild_one(size_t orig) {
    Trace& tr = traces_[orig];
    const size_t from = first_divergence(tr);
    if (from <= tr.pick.size()) extend_trace(tr, from);
    tr.seen = static_cast<uint32_t>(temps_.size());

    const size_t new_size = tr.size.back() + tr.pick.size();
    if (new_size >= defs_[orig].size()) return;

    Def nd;
    nd.reserve(new_size);
    for (uint32_t t : tr.pick) nd.push_back(Term::var(t));
    for (uint32_t c : tr.rem.back().ones()) nd.push_back(Term::constant(c));
    std::sort(nd.begin(), nd.end());

    remove_all_pairs(defs_[orig]);
    defs_[orig] = std::move(nd);
    if (defs_[orig].size() == 1) {
      retire(orig, defs_[orig][0]);
    } else {
      add_all_pairs(defs_[orig]);
    }
  }

  /// The first step of `tr` where a temporal minted after the run scores
  /// strictly below that step's pick (at the stop step: below the
  /// remainder); pick.size() + 1 when the run still holds.
  size_t first_divergence(const Trace& tr) const {
    const size_t steps = tr.pick.size();
    for (size_t k = 0; k <= steps; ++k) {
      const size_t bar = tr.size[std::min(k + 1, steps)];
      for (uint32_t t = tr.seen; t < temps_.size(); ++t)
        if (tr.rem[k].xor_popcount(temp_values_[t]) < bar) return k;
    }
    return steps + 1;
  }

  /// Drops the trace's steps from `from` on and reruns the greedy search
  /// over every temporal from there.
  void extend_trace(Trace& tr, size_t from) {
    tr.rem.resize(from + 1);
    tr.size.resize(from + 1);
    tr.pick.resize(from);
    std::vector<bool> in_s(temps_.size(), false);
    for (uint32_t t : tr.pick) in_s[t] = true;
    for (;;) {
      const BitRow& rem = tr.rem.back();
      size_t best_size = tr.size.back();
      uint32_t best = UINT32_MAX;
      for (uint32_t t = 0; t < temps_.size(); ++t) {
        if (in_s[t]) continue;
        const size_t sz = rem.xor_popcount(temp_values_[t]);
        if (sz < best_size) {  // strict: ties keep the earlier (≺-smaller) t
          best_size = sz;
          best = t;
        }
      }
      if (best == UINT32_MAX) return;
      BitRow next = rem ^ temp_values_[best];
      in_s[best] = true;
      tr.pick.push_back(best);
      tr.rem.push_back(std::move(next));
      tr.size.push_back(best_size);
    }
  }

  // ---- final assembly -----------------------------------------------------
  Program assemble() {
    // Liveness from aliases downward (Rebuild can orphan temporals).
    std::vector<bool> live(temps_.size(), false);
    std::vector<uint32_t> work;
    for (const Term& a : alias_)
      if (a.is_var() && !live[a.id]) {
        live[a.id] = true;
        work.push_back(a.id);
      }
    while (!work.empty()) {
      const uint32_t t = work.back();
      work.pop_back();
      for (const Term& arg : temps_[t].args) {
        if (arg.is_var() && !live[arg.id]) {
          live[arg.id] = true;
          work.push_back(arg.id);
        }
      }
    }

    std::vector<uint32_t> new_id(temps_.size(), UINT32_MAX);
    Program out;
    out.num_consts = num_consts_;
    for (uint32_t t = 0; t < temps_.size(); ++t) {
      if (!live[t]) continue;
      new_id[t] = static_cast<uint32_t>(out.body.size());
      Instruction ins;
      ins.target = new_id[t];
      for (const Term& a : temps_[t].args)
        ins.args.push_back(a.is_var() ? Term::var(new_id[a.id]) : a);
      out.body.push_back(std::move(ins));
    }
    out.num_vars = static_cast<uint32_t>(out.body.size());
    for (const Term& a : alias_) {
      if (a.is_var()) {
        out.outputs.push_back(new_id[a.id]);
      } else {
        // Output equals a constant: materialize a unary copy.
        const uint32_t v = out.num_vars++;
        out.body.push_back({v, {a}});
        out.outputs.push_back(v);
      }
    }
    return out;
  }

  CompressOptions opt_;
  uint32_t num_consts_ = 0;

  std::vector<Def> defs_;       // live original definitions, by output index
  std::vector<BitRow> values_;  // fixed semantic values of the originals
  std::vector<Term> alias_;     // final term of each retired original
  std::vector<bool> alive_;
  std::vector<Trace> traces_;   // Rebuild runs of the live originals
  size_t n_alive_ = 0;

  std::vector<Instruction> temps_;   // t_i <- lo ⊕ hi, ids in generation order
  std::vector<BitRow> temp_values_;
  std::unordered_map<TermPair, uint32_t, TermPairHash> temp_lookup_;
  std::vector<BitRow> const_values_;  // lazily built unit vectors

  std::unordered_map<TermPair, Slot, TermPairHash> pairs_;
  std::vector<std::vector<PairEntry*>> buckets_;  // by count, unordered inside
  size_t max_count_ = 0;
};

}  // namespace

Program repair_compress(const Program& flat, const CompressOptions& opt) {
  Program out = Compressor(flat, opt).run();
  out.name = flat.name.empty() ? flat.name : flat.name + (opt.use_rebuild ? "+xorrepair" : "+repair");
  return out;
}

Program xor_repair_compress(const Program& flat) {
  return repair_compress(flat, CompressOptions{.use_rebuild = true});
}

}  // namespace xorec::slp
