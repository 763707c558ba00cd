// Pebble-game schedulers (§6.4-6.6): computation-graph construction, DFS and
// greedy schedules preserve semantics, reuse pebbles soundly (goals
// immobile), and improve the cache measures on the paper's example graph.
#include <gtest/gtest.h>

#include "slp/cache_model.hpp"
#include "slp/compgraph.hpp"
#include "slp/fusion.hpp"
#include "slp/metrics.hpp"
#include "slp/repair.hpp"
#include "slp/schedule_dfs.hpp"
#include "slp/schedule_greedy.hpp"
#include "slp/semantics.hpp"
#include "slp_test_helpers.hpp"

using namespace xorec::slp;
using namespace xorec::slp::testing;

TEST(CompGraph, BuildsPegDag) {
  const CompGraph g = build_compgraph(make_peg());
  ASSERT_EQ(g.nodes.size(), 5u);
  EXPECT_EQ(g.goals, (std::vector<uint32_t>{1, 3, 4}));
  EXPECT_TRUE(g.nodes[1].is_goal);
  EXPECT_TRUE(g.nodes[3].is_goal);
  EXPECT_TRUE(g.nodes[4].is_goal);
  EXPECT_FALSE(g.nodes[0].is_goal);
  // v0 feeds v2 and v4; v2 feeds v3 and v4; v3 feeds v4.
  EXPECT_EQ(g.nodes[0].n_parents, 2u);
  EXPECT_EQ(g.nodes[2].n_parents, 2u);
  EXPECT_EQ(g.nodes[3].n_parents, 1u);
  EXPECT_EQ(g.nodes[4].n_parents, 0u);
}

TEST(CompGraph, RejectsNonSsa) {
  EXPECT_THROW(build_compgraph(make_preg()), std::invalid_argument);
}

TEST(ScheduleDfs, PegSemanticsPreserved) {
  const Program q = schedule_dfs(make_peg());
  q.validate();
  EXPECT_TRUE(equivalent(make_peg(), q));
}

TEST(ScheduleDfs, PegUsesFourPebbles) {
  // Matches the paper's NVar(Q_DFS) = 4 (§6.6). Only the count is pinned:
  // our pebble naming differs from the paper's Q_DFS listing, and that
  // listing mis-moves a goal pebble (a typo in the paper).
  const Program q = schedule_dfs(make_peg());
  EXPECT_EQ(nvar(q), 4u);
}

TEST(ScheduleDfs, GoalPebblesAreNeverOverwritten) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const Program fu = fuse(xor_repair_compress(random_flat(32, 12, 300 + seed)));
    const Program q = schedule_dfs(fu);
    q.validate();
    ASSERT_TRUE(equivalent(fu, q)) << "seed " << seed;
    // Each output pebble is assigned exactly once after its final value:
    // equivalence already guarantees values; also check distinct outputs.
    std::vector<uint32_t> outs = q.outputs;
    std::sort(outs.begin(), outs.end());
    EXPECT_EQ(std::adjacent_find(outs.begin(), outs.end()), outs.end())
        << "two goals share a pebble";
  }
}

TEST(ScheduleDfs, PebbleCountNeverExceedsSsaVariables) {
  for (uint32_t seed = 0; seed < 10; ++seed) {
    const Program fu = fuse(xor_repair_compress(random_flat(40, 16, 400 + seed)));
    const Program q = schedule_dfs(fu);
    EXPECT_LE(nvar(q), nvar(fu)) << "seed " << seed;
    EXPECT_EQ(q.body.size(), fu.body.size()) << "one instruction per node";
    EXPECT_EQ(xor_ops(q), xor_ops(fu));
  }
}

TEST(ScheduleGreedy, PegSemanticsPreserved) {
  const Program q = schedule_greedy(make_peg(), 8);
  q.validate();
  EXPECT_TRUE(equivalent(make_peg(), q));
}

TEST(ScheduleGreedy, PegImprovesCacheMeasures) {
  // The paper's Q_greedy achieves NVar 3-4, CCap ~7, IOcost(8) ~9 on G_eg
  // (exact pebble choices differ due to the goal-immobility fix); assert the
  // qualitative improvements over the unscheduled P_eg.
  const Program q = schedule_greedy(make_peg(), 8);
  EXPECT_LE(nvar(q), 4u);
  EXPECT_LE(ccap(q, ExecForm::Fused), 8u);          // P_eg: 10
  EXPECT_LE(io_cost(q, 8, ExecForm::Fused), 11u);   // P_eg: 13
}

TEST(ScheduleDfs, PegImprovesCacheMeasures) {
  const Program q = schedule_dfs(make_peg());
  EXPECT_LE(ccap(q, ExecForm::Fused), 8u);
  EXPECT_LE(io_cost(q, 8, ExecForm::Fused), 11u);
}

TEST(ScheduleGreedy, SemanticsPreservedAcrossCapacities) {
  const Program fu = fuse(xor_repair_compress(random_flat(40, 16, 555)));
  for (size_t cap : {2, 4, 8, 16, 64, 512}) {
    const Program q = schedule_greedy(fu, cap);
    q.validate();
    ASSERT_TRUE(equivalent(fu, q)) << "capacity " << cap;
    EXPECT_EQ(xor_ops(q), xor_ops(fu));
  }
}

TEST(ScheduleGreedy, RejectsDegenerateCapacity) {
  EXPECT_THROW(schedule_greedy(make_peg(), 1), std::invalid_argument);
}

TEST(Schedule, BothHeuristicsHandleUnaryCopies) {
  Program p;
  p.num_consts = 2;
  p.num_vars = 2;
  p.body = {{0, {C(1)}}, {1, {C(0), C(1)}}};
  p.outputs = {0, 1};
  for (const Program& q : {schedule_dfs(p), schedule_greedy(p, 8)}) {
    q.validate();
    EXPECT_TRUE(equivalent(p, q));
  }
}

TEST(Schedule, RealCodecEndToEnd) {
  // Full pipeline on the RS(10,4) encode matrix: scheduling preserves the
  // denotation and reduces NVar and CCap versus the fused stage (§7.5 rows).
  const auto m = xorec::bitmatrix::expand(xorec::gf::rs_parity_matrix(10, 4));
  const Program base = from_bitmatrix(m);
  const Program fu = fuse(xor_repair_compress(base));
  const Program dfs = schedule_dfs(fu);
  const Program greedy = schedule_greedy(fu, 32);
  EXPECT_TRUE(equivalent(base, dfs));
  EXPECT_TRUE(equivalent(base, greedy));
  EXPECT_LT(nvar(dfs), nvar(fu));
  EXPECT_LT(ccap(dfs, ExecForm::Fused), ccap(fu, ExecForm::Fused));
  EXPECT_LT(nvar(greedy), nvar(fu));
}
