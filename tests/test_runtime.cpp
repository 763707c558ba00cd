// The blocked executor: compiled programs over real byte strips must match
// the set-semantics oracle for every pipeline stage, block size, ISA,
// concurrent-caller count and stagger setting; plus arena layout checks.
#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "runtime/aligned_buffer.hpp"
#include "runtime/executor.hpp"
#include "slp/fusion.hpp"
#include "slp/repair.hpp"
#include "slp/schedule_dfs.hpp"
#include "slp/schedule_greedy.hpp"
#include "slp/semantics.hpp"
#include "slp_test_helpers.hpp"

using namespace xorec;
using namespace xorec::slp::testing;

namespace {

std::vector<std::vector<uint8_t>> random_strips(size_t n, size_t len, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<uint8_t>> s(n, std::vector<uint8_t>(len));
  for (auto& strip : s)
    for (auto& b : strip) b = static_cast<uint8_t>(rng());
  return s;
}

/// Reference: XOR together the input strips named by each output's value set.
std::vector<std::vector<uint8_t>> oracle_outputs(const slp::Program& p,
                                                 const std::vector<std::vector<uint8_t>>& in,
                                                 size_t len) {
  const auto values = slp::denotation(p);
  std::vector<std::vector<uint8_t>> out(values.size(), std::vector<uint8_t>(len, 0));
  for (size_t o = 0; o < values.size(); ++o)
    for (uint32_t c : values[o].ones())
      for (size_t i = 0; i < len; ++i) out[o][i] ^= in[c][i];
  return out;
}

/// Runs `p` through one Executor from `callers` threads at once, each into
/// its own outputs (the stripe-parallel path: every caller draws private
/// scratch from the freelist), and checks every caller against the oracle.
void run_and_check(const slp::Program& p, const runtime::ExecOptions& opt, size_t len,
                   uint32_t seed, size_t callers = 1) {
  const auto in = random_strips(p.num_consts, len, seed);
  std::vector<const uint8_t*> in_ptrs;
  for (const auto& s : in) in_ptrs.push_back(s.data());
  using Strips = std::vector<std::vector<uint8_t>>;
  std::vector<Strips> out(callers, Strips(p.outputs.size(), std::vector<uint8_t>(len, 0xAB)));

  runtime::Executor exec(runtime::compile(p), opt);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c)
    threads.emplace_back([&, c] {
      std::vector<uint8_t*> out_ptrs;
      for (auto& s : out[c]) out_ptrs.push_back(s.data());
      exec.run(in_ptrs.data(), out_ptrs.data(), len);
    });
  for (auto& t : threads) t.join();
  const Strips expected = oracle_outputs(p, in, len);
  for (size_t c = 0; c < callers; ++c) EXPECT_EQ(out[c], expected) << "caller " << c;
}

}  // namespace

TEST(ExecCompile, SpacesAreResolved) {
  const auto e = runtime::compile(make_peg());
  EXPECT_EQ(e.num_inputs, 7u);
  EXPECT_EQ(e.num_outputs, 3u);
  // v0 and v2 are not returned -> scratch; v1, v3, v4 -> output strips.
  EXPECT_EQ(e.num_scratch, 2u);
  ASSERT_EQ(e.ops.size(), 5u);
  EXPECT_EQ(e.ops[0].dst.space, runtime::Space::Scratch);
  EXPECT_EQ(e.ops[1].dst.space, runtime::Space::Out);
}

TEST(ExecCompile, RejectsDuplicateOutputs) {
  slp::Program p = make_peg();
  p.outputs = {1, 1, 4};
  EXPECT_THROW(runtime::compile(p), std::invalid_argument);
}

TEST(Executor, PegMatchesOracle) {
  run_and_check(make_peg(), {.block_size = 64}, 1000, 1);
}

TEST(Executor, PebbleProgramInPlaceUpdates) {
  // P_reg reuses v0 in place; the executor must read old-value semantics.
  run_and_check(make_preg(), {.block_size = 128}, 777, 2);
}

class ExecutorSweep
    : public ::testing::TestWithParam<std::tuple<size_t /*block*/, kernel::Isa,
                                                 size_t /*callers*/, bool /*stagger*/>> {};

TEST_P(ExecutorSweep, FullPipelineMatchesOracle) {
  const auto [block, isa, callers, stagger] = GetParam();
  const slp::Program base = random_flat(40, 16, 99);
  const slp::Program sched = slp::schedule_dfs(slp::fuse(slp::xor_repair_compress(base)));
  for (auto backend : {runtime::ExecBackend::Interp, runtime::ExecBackend::Lowered}) {
    runtime::ExecOptions opt;
    opt.block_size = block;
    opt.isa = isa;
    opt.stagger_scratch = stagger;
    opt.backend = backend;
    run_and_check(sched, opt, 10240, 7, callers);
    run_and_check(sched, opt, 10000, 8, callers);  // ragged tail (not a block multiple)
    run_and_check(sched, opt, 100, 9, callers);    // shorter than one block
  }
}

// "_tN": N caller threads running the one executor at once.
std::string executor_sweep_name(
    const ::testing::TestParamInfo<std::tuple<size_t, kernel::Isa, size_t, bool>>& info) {
  return "B" + std::to_string(std::get<0>(info.param)) + "_" +
         kernel::isa_name(std::get<1>(info.param)) + "_t" +
         std::to_string(std::get<2>(info.param)) +
         (std::get<3>(info.param) ? "_stagger" : "_plain");
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ExecutorSweep,
    ::testing::Combine(::testing::Values<size_t>(64, 1000, 1024, 4096),
                       ::testing::Values(kernel::Isa::Scalar, kernel::Isa::Avx2),
                       ::testing::Values<size_t>(1, 4), ::testing::Bool()),
    executor_sweep_name);

TEST(Executor, AllPipelineStagesAgree) {
  const slp::Program base = random_flat(48, 24, 123);
  const slp::Program co = slp::xor_repair_compress(base);
  const slp::Program fu = slp::fuse(co);
  const slp::Program dfs = slp::schedule_dfs(fu);
  const slp::Program greedy = slp::schedule_greedy(fu, 32);

  const size_t len = 4096;
  const auto in = random_strips(48, len, 5);
  std::vector<const uint8_t*> in_ptrs;
  for (const auto& s : in) in_ptrs.push_back(s.data());

  auto run = [&](const slp::Program& p) {
    std::vector<std::vector<uint8_t>> out(p.outputs.size(), std::vector<uint8_t>(len));
    std::vector<uint8_t*> out_ptrs;
    for (auto& s : out) out_ptrs.push_back(s.data());
    runtime::Executor exec(runtime::compile(p), {.block_size = 512});
    exec.run(in_ptrs.data(), out_ptrs.data(), len);
    return out;
  };

  const auto want = run(base);
  EXPECT_EQ(run(base.binary_expanded()), want);
  EXPECT_EQ(run(co.binary_expanded()), want);
  EXPECT_EQ(run(fu), want);
  EXPECT_EQ(run(dfs), want);
  EXPECT_EQ(run(greedy), want);
}

TEST(StripArena, StaggeredOffsetsFollowThePaperFormula) {
  const size_t B = 1024;
  runtime::StripArena arena(16, 8192, B, /*stagger=*/true);
  for (size_t i = 0; i < 16; ++i) {
    const uintptr_t addr = reinterpret_cast<uintptr_t>(arena.strip(i));
    EXPECT_EQ(addr % runtime::kCachePage, (i * B) % runtime::kCachePage) << "strip " << i;
  }
}

TEST(StripArena, PacksStripsAtTheSmallestConflictFreeStride) {
  // strip_len = B: the stride is B itself, the smallest s >= B with
  // s ≡ B (mod 4K) — no 4K rounding, no extra stagger page.
  for (size_t B : {64, 512, 1024, 2048, 4096, 8192}) {
    runtime::StripArena arena(6, B, B, /*stagger=*/true);
    for (size_t i = 0; i + 1 < arena.count(); ++i)
      EXPECT_EQ(arena.strip(i + 1) - arena.strip(i), static_cast<ptrdiff_t>(B))
          << "B=" << B << " strip " << i;
  }
  // Otherwise the stride rounds strip_len up to the next value ≡ B (mod 4K).
  runtime::StripArena short_strips(4, 1000, 1024, true);
  EXPECT_EQ(short_strips.strip(1) - short_strips.strip(0), 1024);
  runtime::StripArena long_strips(4, 5000, 1024, true);
  EXPECT_EQ(long_strips.strip(1) - long_strips.strip(0), 5120);
}

TEST(StripArena, UnstaggeredIs4KAligned) {
  runtime::StripArena arena(8, 5000, 2048, /*stagger=*/false);
  for (size_t i = 0; i < 8; ++i)
    EXPECT_EQ(reinterpret_cast<uintptr_t>(arena.strip(i)) % runtime::kCachePage, 0u);
}

TEST(StripArena, StripsDoNotOverlap) {
  runtime::StripArena arena(10, 1000, 512, true);
  for (size_t i = 0; i < 10; ++i) {
    std::fill(arena.strip(i), arena.strip(i) + 1000, static_cast<uint8_t>(i + 1));
  }
  for (size_t i = 0; i < 10; ++i)
    for (size_t b = 0; b < 1000; ++b)
      ASSERT_EQ(arena.strip(i)[b], static_cast<uint8_t>(i + 1)) << i << ":" << b;
}

// ---- lowered backend -------------------------------------------------------

TEST(LoweredProgram, ResolvesBackendAndIsa) {
  runtime::Executor def(runtime::compile(make_peg()), {});
  EXPECT_EQ(def.backend(), runtime::ExecBackend::Lowered);
  EXPECT_NE(def.lowered(), nullptr);
  EXPECT_NE(def.isa(), kernel::Isa::Auto);  // resolved to a real family

  runtime::Executor interp(runtime::compile(make_peg()),
                           {.backend = runtime::ExecBackend::Interp});
  EXPECT_EQ(interp.backend(), runtime::ExecBackend::Interp);
  EXPECT_EQ(interp.lowered(), nullptr);
}

TEST(LoweredProgram, FixedArityBindingAndOracle) {
  // A fused program's instructions all land on fixed-arity or accumulate
  // kernels (arity <= 8 after fusion of a small code) — the variadic
  // fallback should be the exception, not the rule.
  const slp::Program base = random_flat(24, 8, 42);
  const slp::Program fu = slp::fuse(slp::xor_repair_compress(base));
  runtime::Executor exec(runtime::compile(fu), {.block_size = 512});
  ASSERT_NE(exec.lowered(), nullptr);
  const auto& lp = *exec.lowered();
  EXPECT_GT(lp.fixed_ops() + lp.accum_ops(), 0u);
  EXPECT_LE(lp.fixed_ops() + lp.accum_ops(), lp.ops().size());
  run_and_check(fu, {.block_size = 512}, 10000, 11);
}

TEST(LoweredProgram, InPlacePebbleAccumulatesViaFusedKernels) {
  // P_reg updates registers in place (dst appears in its own sources); the
  // lowering must fold those into accumulate kernels and stay correct.
  runtime::Executor exec(runtime::compile(make_preg()), {.block_size = 256});
  ASSERT_NE(exec.lowered(), nullptr);
  run_and_check(make_preg(), {.block_size = 256}, 4096, 12);
}

TEST(Executor, ScratchFreelistStaysBounded) {
  const slp::Program p = random_flat(16, 6, 5);
  runtime::Executor exec(runtime::compile(p), {.block_size = 256});

  const auto in = random_strips(16, 1024, 6);
  std::vector<const uint8_t*> in_ptrs;
  for (const auto& s : in) in_ptrs.push_back(s.data());
  std::vector<std::vector<uint8_t>> out(p.outputs.size(), std::vector<uint8_t>(1024));
  std::vector<uint8_t*> out_ptrs;
  for (auto& s : out) out_ptrs.push_back(s.data());

  // Sequential callers never grow anything: one arena, round-tripped.
  for (int i = 0; i < 50; ++i) exec.run(in_ptrs.data(), out_ptrs.data(), 1024);
  auto st = exec.scratch_stats();
  EXPECT_EQ(st.high_water, 1u);
  EXPECT_EQ(st.free, 1u);
  EXPECT_EQ(st.allocated, 1u);
  EXPECT_EQ(st.dropped, 0u);

  // A concurrent burst may allocate up to burst-many arenas, but the
  // freelist afterwards holds at most the high-water count — the rest are
  // dropped, not pinned forever.
  constexpr size_t kBurst = 8;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kBurst; ++t)
    threads.emplace_back([&] {
      std::vector<std::vector<uint8_t>> my_out(p.outputs.size(),
                                               std::vector<uint8_t>(1024));
      std::vector<uint8_t*> my_ptrs;
      for (auto& s : my_out) my_ptrs.push_back(s.data());
      for (int i = 0; i < 20; ++i) exec.run(in_ptrs.data(), my_ptrs.data(), 1024);
    });
  for (auto& t : threads) t.join();

  st = exec.scratch_stats();
  EXPECT_GE(st.high_water, 1u);
  EXPECT_LE(st.high_water, kBurst);
  EXPECT_LE(st.free, st.high_water);
  EXPECT_EQ(st.free, st.allocated - st.dropped);  // nothing in use, none leaked
}

TEST(Executor, RejectsZeroBlockSize) {
  EXPECT_THROW(runtime::Executor(runtime::compile(make_peg()), {.block_size = 0}),
               std::invalid_argument);
}

TEST(Executor, ZeroLengthRunIsNoop) {
  runtime::Executor exec(runtime::compile(make_peg()), {});
  exec.run(nullptr, nullptr, 0);  // must not crash
}
