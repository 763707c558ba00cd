#include "slp/schedule_greedy.hpp"

#include <algorithm>
#include <cassert>
#include <list>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

namespace xorec::slp {
namespace {

/// Abstract LRU cache over blocks (constants / pebbles) used while
/// constructing the schedule; mirrors the model in §6.2.
class AbstractCache {
 public:
  explicit AbstractCache(size_t capacity) : cap_(capacity) {}

  bool contains(const Term& b) const { return pos_.count(b.key()) > 0; }

  /// Record an access: load the block if absent, refresh it if present.
  void touch(const Term& b) {
    auto it = pos_.find(b.key());
    if (it != pos_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (lru_.size() == cap_) {
      pos_.erase(lru_.back().key());
      lru_.pop_back();
    }
    lru_.push_front(b);
    pos_[b.key()] = lru_.begin();
  }

 private:
  size_t cap_;
  std::list<Term> lru_;  // front = MRU
  std::unordered_map<uint64_t, std::list<Term>::iterator> pos_;
};

}  // namespace

Program schedule_greedy(const CompGraph& g, size_t cache_capacity, const std::string& name) {
  if (cache_capacity < 2)
    throw std::invalid_argument("schedule_greedy: capacity must be at least 2");
  AbstractCache cache(cache_capacity);
  const uint32_t n_nodes = static_cast<uint32_t>(g.nodes.size());

  std::vector<uint32_t> pebble_of(n_nodes, UINT32_MAX);
  std::vector<uint32_t> uses_left(n_nodes);
  std::vector<uint32_t> vkids_left(n_nodes, 0);  // uncomputed variable children
  for (uint32_t i = 0; i < n_nodes; ++i) {
    uses_left[i] = g.nodes[i].n_parents;
    for (const Term& c : g.nodes[i].children)
      if (c.is_var()) ++vkids_left[i];
  }

  std::set<uint32_t> ready;  // computable, uncomputed nodes (ordered = ≺)
  for (uint32_t i = 0; i < n_nodes; ++i)
    if (vkids_left[i] == 0) ready.insert(i);

  std::set<uint32_t> free_pebbles;  // dead non-goal pebbles, ≺-ordered
  uint32_t next_pebble = 0;

  auto block_of = [&](const Term& child) {
    return child.is_const() ? child : Term::var(pebble_of[child.id]);
  };

  Program out;
  out.num_consts = g.num_consts;
  out.name = name;

  size_t emitted = 0;
  while (emitted < n_nodes) {
    // Pick the ready node maximizing |H| / |C|: the share of its children
    // whose block is cached. Strict > keeps the ≺ tie-break of set order.
    assert(!ready.empty());
    uint32_t best = UINT32_MAX;
    double best_score = -1.0;
    for (uint32_t n : ready) {
      const auto& children = g.nodes[n].children;
      size_t hits = 0;
      for (const Term& c : children) hits += cache.contains(block_of(c));
      const double score = children.empty() ? 0.0
                                            : static_cast<double>(hits) /
                                                  static_cast<double>(children.size());
      if (score > best_score) {
        best_score = score;
        best = n;
      }
    }
    ready.erase(best);
    const CompGraph::Node& node = g.nodes[best];

    // Argument order: cached children first, ≺ within each class. Residency
    // is sampled before any touch mutates the cache.
    std::vector<std::pair<bool, Term>> kids;
    kids.reserve(node.children.size());
    for (const Term& c : node.children) kids.emplace_back(cache.contains(block_of(c)), c);
    std::stable_sort(kids.begin(), kids.end(), [&](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first;
      return block_of(a.second) < block_of(b.second);
    });

    Instruction ins;
    for (const auto& [cached, c] : kids) {
      cache.touch(block_of(c));
      ins.args.push_back(block_of(c));
    }

    // Consume uses; dead non-goal pebbles become movable.
    for (const Term& c : node.children) {
      if (!c.is_var()) continue;
      assert(uses_left[c.id] > 0);
      if (--uses_left[c.id] == 0 && !g.nodes[c.id].is_goal)
        free_pebbles.insert(pebble_of[c.id]);
    }

    // Target: the ≺-first cached movable pebble > the ≺-first movable pebble
    // > a fresh pebble.
    uint32_t target = UINT32_MAX;
    for (uint32_t p : free_pebbles) {
      if (target == UINT32_MAX) target = p;
      if (cache.contains(Term::var(p))) {
        target = p;
        break;
      }
    }
    if (target != UINT32_MAX) {
      free_pebbles.erase(target);
    } else {
      target = next_pebble++;
    }
    cache.touch(Term::var(target));

    pebble_of[best] = target;
    ins.target = target;
    out.body.push_back(std::move(ins));
    ++emitted;

    // Newly computable parents. (Parents are found by scanning: graphs are
    // small and this keeps the node structure lean.)
    for (uint32_t i = 0; i < n_nodes; ++i) {
      if (pebble_of[i] != UINT32_MAX || vkids_left[i] == 0) continue;
      for (const Term& c : g.nodes[i].children) {
        if (c.is_var() && c.id == best) {
          if (--vkids_left[i] == 0) ready.insert(i);
        }
      }
    }
  }

  out.num_vars = next_pebble;
  for (uint32_t goal : g.goals) out.outputs.push_back(pebble_of[goal]);
  return out;
}

Program schedule_greedy(const Program& fused_ssa, size_t cache_capacity) {
  return schedule_greedy(build_compgraph(fused_ssa), cache_capacity,
                         fused_ssa.name.empty() ? fused_ssa.name
                                                : fused_ssa.name + "+greedy");
}

}  // namespace xorec::slp
