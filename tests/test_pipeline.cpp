// Pipeline driver and IOcost at hardware parameters (§6.2's "optimize
// IOcost(P, 512)" remark).
#include <gtest/gtest.h>

#include "slp/cache_model.hpp"
#include "slp/pipeline.hpp"
#include "slp/semantics.hpp"
#include "slp_test_helpers.hpp"

using namespace xorec;
using namespace xorec::slp;
using namespace xorec::slp::testing;

TEST(Pipeline, FinalProgramTracksConfiguredStages) {
  const Program base = random_flat(24, 8, 1);

  PipelineOptions none;
  none.compress = CompressKind::None;
  none.fuse = false;
  none.schedule = ScheduleKind::None;
  auto r0 = optimize_program(base, none);
  EXPECT_EQ(&r0.final_program(), &r0.base);
  EXPECT_EQ(r0.final_form(), ExecForm::Binary);

  PipelineOptions co_only = none;
  co_only.compress = CompressKind::XorRePair;
  auto r1 = optimize_program(base, co_only);
  ASSERT_TRUE(r1.compressed);
  EXPECT_EQ(&r1.final_program(), &*r1.compressed);
  EXPECT_EQ(r1.final_form(), ExecForm::Binary);

  PipelineOptions fuse_only = none;
  fuse_only.fuse = true;
  auto r2 = optimize_program(base, fuse_only);
  ASSERT_TRUE(r2.fused);
  EXPECT_EQ(&r2.final_program(), &*r2.fused);
  EXPECT_EQ(r2.final_form(), ExecForm::Fused);

  PipelineOptions full;  // defaults: XorRePair + fuse + DFS
  auto r3 = optimize_program(base, full);
  ASSERT_TRUE(r3.scheduled);
  EXPECT_EQ(&r3.final_program(), &*r3.scheduled);
  EXPECT_EQ(r3.final_form(), ExecForm::Fused);
}

TEST(Pipeline, GreedyCapacityDefaultsAndPropagates) {
  const Program base = random_flat(24, 8, 2);
  PipelineOptions opt;
  opt.schedule = ScheduleKind::Greedy;
  opt.greedy_capacity = 16;
  auto r = optimize_program(base, opt);
  ASSERT_TRUE(r.scheduled);
  EXPECT_TRUE(equivalent(base, *r.scheduled));
}

TEST(Pipeline, AllStagesKeepDenotationOnPaperMatrix) {
  const auto m = bitmatrix::expand(gf::rs_isal_matrix(9, 3).select_rows({9, 10, 11}));
  PipelineOptions opt;
  opt.schedule = ScheduleKind::Greedy;
  opt.greedy_capacity = 32;
  auto r = optimize(m, opt, "rs93");
  EXPECT_TRUE(equivalent(r.base, *r.compressed));
  EXPECT_TRUE(equivalent(r.base, *r.fused));
  EXPECT_TRUE(equivalent(r.base, *r.scheduled));
  EXPECT_EQ(r.base.name, "rs93");
}

TEST(IoCostHardwareScale, SchedulingHelpsAt512Blocks) {
  // §6.2: "cache size is 32KB and cache block size is 64B ... we optimize
  // IOcost(P, 512)". At 512-block capacity the whole working set of
  // RS(10,4) fits, so IOcost reduces to cold misses for every stage; at the
  // tight L1-per-iteration scale (~64 blocks for 512 B strips... modelled
  // here as 64 and 128) the scheduled program must not lose to the fused.
  const auto m = bitmatrix::expand(gf::rs_isal_matrix(10, 4).select_rows({10, 11, 12, 13}));
  PipelineOptions opt;
  auto r = optimize(m, opt);
  for (size_t cap : {64u, 128u, 512u}) {
    const size_t fused = io_cost(*r.fused, cap, ExecForm::Fused);
    const size_t sched = io_cost(*r.scheduled, cap, ExecForm::Fused);
    EXPECT_LE(sched, fused) << "capacity " << cap;
  }
  // At 512 both are pure cold misses: exactly the 80 input strips.
  EXPECT_EQ(io_cost(*r.scheduled, 512, ExecForm::Fused), 80u);
}
