// RePair / XorRePair (§4.3-4.4): the paper's P0 walkthrough, semantic
// preservation on random matrices, the structural invariants of the
// compressed output (binary temporals, no dead code), the ⊏ tie-break, and
// golden digests that pin every output program instruction for instruction.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "api/xorec.hpp"
#include "slp/fusion.hpp"
#include "slp/metrics.hpp"
#include "slp/repair.hpp"
#include "slp/schedule_dfs.hpp"
#include "slp/schedule_greedy.hpp"
#include "slp/semantics.hpp"
#include "slp_test_helpers.hpp"

using namespace xorec::slp;
using namespace xorec::slp::testing;

TEST(RePair, PaperP0CompressesTo5Xors) {
  // §4.3 walks P0 (8 XORs) to P1 (5 XORs) without cancellation.
  const Program p0 = make_p0();
  EXPECT_EQ(xor_ops(p0), 8u);
  const Program q = repair_compress(p0);
  q.validate();
  EXPECT_TRUE(equivalent(p0, q));
  EXPECT_EQ(xor_ops(q), 5u);
}

TEST(XorRePair, PaperP0CompressesTo4Xors) {
  // §4.4: Rebuild finds v4 = a ^ t3; the optimum is 4 XORs (§4.2).
  const Program p0 = make_p0();
  const Program q = xor_repair_compress(p0);
  q.validate();
  EXPECT_TRUE(equivalent(p0, q));
  EXPECT_EQ(xor_ops(q), 4u);
}

TEST(RePair, OutputIsBinarySsa) {
  const Program q = repair_compress(random_flat(30, 12, 3));
  EXPECT_TRUE(q.is_ssa());
  for (const Instruction& ins : q.body) EXPECT_LE(ins.args.size(), 2u);
}

TEST(XorRePair, OutputIsBinarySsa) {
  const Program q = xor_repair_compress(random_flat(30, 12, 4));
  EXPECT_TRUE(q.is_ssa());
  for (const Instruction& ins : q.body) EXPECT_LE(ins.args.size(), 2u);
}

TEST(RePair, NoDeadCode) {
  // Every instruction must be reachable from the outputs.
  const Program q = xor_repair_compress(random_flat(40, 16, 9));
  std::vector<bool> live(q.num_vars, false);
  for (uint32_t o : q.outputs) live[o] = true;
  for (auto it = q.body.rbegin(); it != q.body.rend(); ++it) {
    if (!live[it->target]) ADD_FAILURE() << "dead instruction v" << it->target;
    for (const Term& t : it->args)
      if (t.is_var()) live[t.id] = true;
  }
}

struct RepairParam {
  uint32_t consts, rows, seed;
};

class RepairProperty : public ::testing::TestWithParam<RepairParam> {};

TEST_P(RepairProperty, SemanticsPreservedAndNeverLarger) {
  const auto [consts, rows, seed] = GetParam();
  const Program flat = random_flat(consts, rows, seed);
  for (bool rebuild : {false, true}) {
    const Program q = repair_compress(flat, {.use_rebuild = rebuild});
    q.validate();
    ASSERT_TRUE(equivalent(flat, q)) << "rebuild=" << rebuild;
    EXPECT_LE(xor_ops(q), xor_ops(flat)) << "rebuild=" << rebuild;
  }
}

TEST_P(RepairProperty, RebuildNeverWorseThanPlainRePair) {
  const auto [consts, rows, seed] = GetParam();
  const Program flat = random_flat(consts, rows, seed);
  // Not a theorem in general (different pair orders), but holds on this
  // corpus and guards against regressions that break Rebuild's accounting.
  const size_t plain = xor_ops(repair_compress(flat));
  const size_t with_rebuild = xor_ops(xor_repair_compress(flat));
  EXPECT_LE(with_rebuild, plain + plain / 10 + 1);
}

INSTANTIATE_TEST_SUITE_P(Corpus, RepairProperty,
                         ::testing::Values(RepairParam{8, 4, 1}, RepairParam{8, 4, 2},
                                           RepairParam{16, 8, 3}, RepairParam{16, 8, 4},
                                           RepairParam{24, 8, 5}, RepairParam{32, 16, 6},
                                           RepairParam{40, 16, 7}, RepairParam{48, 24, 8},
                                           RepairParam{64, 32, 9}, RepairParam{80, 32, 10},
                                           RepairParam{80, 32, 11}, RepairParam{13, 5, 12}));

TEST(RePair, HandlesUnaryAndDuplicateRows) {
  Program p;
  p.num_consts = 4;
  p.num_vars = 3;
  p.body = {
      {0, {C(2)}},              // alias of a constant
      {1, {C(0), C(1)}},        //
      {2, {C(0), C(1)}},        // duplicate of row 1
  };
  p.outputs = {0, 1, 2};
  const Program q = xor_repair_compress(p);
  q.validate();
  EXPECT_TRUE(equivalent(p, q));
  // The duplicate rows share one temporal; the constant row is a copy.
  EXPECT_EQ(xor_ops(q), 1u);
  EXPECT_EQ(q.outputs[1], q.outputs[2]);
}

TEST(RePair, DuplicateConstantsInARowCancel) {
  Program p;
  p.num_consts = 3;
  p.num_vars = 1;
  p.body = {{0, {C(0), C(1), C(0), C(2)}}};  // a^b^a^c = b^c
  p.outputs = {0};
  const Program q = xor_repair_compress(p);
  EXPECT_TRUE(equivalent(p, q));
  EXPECT_EQ(xor_ops(q), 1u);
}

TEST(RePair, RejectsNonFlatInput) {
  Program p;
  p.num_consts = 2;
  p.num_vars = 2;
  p.body = {{0, {C(0), C(1)}}, {1, {V(0), C(1)}}};
  p.outputs = {1};
  EXPECT_THROW(repair_compress(p), std::invalid_argument);
}

TEST(RePair, RejectsZeroValueOutput) {
  Program p;
  p.num_consts = 2;
  p.num_vars = 1;
  p.body = {{0, {C(0), C(0)}}};  // value cancels to the empty set
  p.outputs = {0};
  EXPECT_THROW(repair_compress(p), std::invalid_argument);
}

TEST(XorRePair, CancellationBeatsPlainRePairOnTheMotivatingShape) {
  // §4.2's essence: v3 = a^b^c^d computed, then v4 = b^c^d is v3 ^ a.
  Program p;
  p.num_consts = 8;
  p.num_vars = 4;
  p.body = {
      {0, {C(0), C(1), C(2), C(3), C(4), C(5), C(6), C(7)}},
      {1, {C(1), C(2), C(3), C(4), C(5), C(6), C(7)}},  // row0 minus c0
      {2, {C(0), C(2), C(3), C(4), C(5), C(6), C(7)}},  // row0 minus c1
      {3, {C(0), C(1), C(3), C(4), C(5), C(6), C(7)}},  // row0 minus c2
  };
  p.outputs = {0, 1, 2, 3};
  const size_t plain = xor_ops(repair_compress(p));
  const size_t xr = xor_ops(xor_repair_compress(p));
  // Dense overlapping rows compress heavily either way; cancellation must
  // never lose (the strict win is pinned down by the P0 test above).
  EXPECT_LE(xr, plain);
  EXPECT_LE(xr, 11u);  // base has 27 XORs
  EXPECT_TRUE(equivalent(p, xor_repair_compress(p)));
}

TEST(RePair, RealCodingMatrixReductionRatioIsInPaperRegime) {
  // §7.3 reports ~42% average for RS(10,4); any healthy implementation lands
  // well under the 65% of the non-SLP heuristics on the encode matrix.
  const auto m = xorec::bitmatrix::expand(
      xorec::gf::rs_isal_matrix(10, 4).select_rows({10, 11, 12, 13}));
  const Program base = from_bitmatrix(m);
  const Program co = xor_repair_compress(base);
  EXPECT_TRUE(equivalent(base, co));
  const double ratio = static_cast<double>(xor_ops(co)) / static_cast<double>(xor_ops(base));
  EXPECT_LT(ratio, 0.60) << "xor ratio " << ratio;
  EXPECT_GT(ratio, 0.25) << "xor ratio " << ratio;
}

TEST(RePair, TiedTopPairsReplaceTheSmallestFirst) {
  // Pairs {c0,c1}, {c2,c3} and {c4,c5} each occur in two rows and no pair
  // occurs more often; §4.3 breaks the tie by ⊏, so t0 = c0 ⊕ c1. The
  // later temporals follow the same rule: {c2,c3} before {c4,c5}.
  Program p;
  p.num_consts = 6;
  p.num_vars = 4;
  p.body = {
      {0, {C(4), C(5), C(2), C(3)}},
      {1, {C(4), C(5)}},
      {2, {C(2), C(3), C(0), C(1)}},
      {3, {C(0), C(1)}},
  };
  p.outputs = {0, 1, 2, 3};
  for (bool rebuild : {false, true}) {
    const Program q = repair_compress(p, {.use_rebuild = rebuild});
    EXPECT_TRUE(equivalent(p, q));
    ASSERT_GE(q.body.size(), 3u);
    EXPECT_EQ(q.body[0].args, (std::vector<Term>{C(0), C(1)})) << "rebuild=" << rebuild;
    EXPECT_EQ(q.body[1].args, (std::vector<Term>{C(2), C(3)})) << "rebuild=" << rebuild;
    EXPECT_EQ(q.body[2].args, (std::vector<Term>{C(4), C(5)})) << "rebuild=" << rebuild;
  }
}

namespace {

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Flat programs of real codes (the registry's own matrices, taken before
/// any pass runs) plus seeded random shapes.
std::vector<std::pair<std::string, Program>> golden_corpus() {
  std::vector<std::pair<std::string, Program>> out;
  const auto encoder = [&](const std::string& spec) {
    out.emplace_back(spec + "/enc",
                     xorec::make_codec(spec + "@passes=base")->encode_pipeline()->base);
  };
  encoder("rs(10,4)");
  encoder("cauchy(6,3)");
  encoder("lrc(6,2,2)");

  const auto rs = xorec::make_codec("rs(10,4)@passes=base");
  const std::vector<std::vector<uint32_t>> patterns = {
      {2, 4, 5, 6}, {0}, {3, 10}, {1, 10, 11}, {0, 5, 11}, {6, 7, 8, 9}, {0, 3, 10, 13}};
  for (const auto& erased : patterns) {
    std::vector<uint32_t> available;
    std::string name = "rs(10,4)/dec";
    for (uint32_t id = 0; id < 14; ++id)
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) available.push_back(id);
    for (uint32_t id : erased) name += "-" + std::to_string(id);
    out.emplace_back(name, rs->plan_reconstruct(available, erased)->decode_pipeline()->base);
  }

  for (const auto& [consts, rows, seed] : std::vector<RepairParam>{
           {8, 4, 1}, {16, 8, 2}, {13, 5, 3}, {32, 16, 4}, {48, 24, 5}, {80, 32, 6}, {64, 48, 7}})
    out.emplace_back("random_flat(" + std::to_string(consts) + "," + std::to_string(rows) + "," +
                         std::to_string(seed) + ")",
                     random_flat(consts, rows, seed));
  return out;
}

struct Golden {
  const char* name;
  uint64_t repair, xor_repair;  // FNV-1a of Program::to_string()
};

// Captured from the full-rescan Rebuild that the incremental one replaced:
// any change to any output program, however small, fails the test.
const Golden kGolden[] = {
    {"rs(10,4)/enc", 0xe6219cfd041efdd0ull, 0xa839ef28a16b7f65ull},
    {"cauchy(6,3)/enc", 0xdc15a0eebf53e7faull, 0x35feeee632e50f82ull},
    {"lrc(6,2,2)/enc", 0xae8a48becb1cb590ull, 0xf37087e6b0f26cebull},
    {"rs(10,4)/dec-2-4-5-6", 0xf0efb4e11244e2cdull, 0x3f62d6e6ab3165d9ull},
    {"rs(10,4)/dec-0", 0xc61183b5e298e79dull, 0xc61183b5e298e79dull},
    {"rs(10,4)/dec-3-10", 0xba3d3fb1c27e071full, 0xba3d3fb1c27e071full},
    {"rs(10,4)/dec-1-10-11", 0xacd256156d4db104ull, 0xacd256156d4db104ull},
    {"rs(10,4)/dec-0-5-11", 0xded0caa5fe6d1451ull, 0x60702e3317cfa6e1ull},
    {"rs(10,4)/dec-6-7-8-9", 0xe17bc423dabd6704ull, 0x0fff356afdfef9f3ull},
    {"rs(10,4)/dec-0-3-10-13", 0xdd7f6e8f168b7952ull, 0x33dee9ae1dee3c1full},
    {"random_flat(8,4,1)", 0x73fb0f8b0edec151ull, 0x73fb0f8b0edec151ull},
    {"random_flat(16,8,2)", 0xd737dcb0746fb9edull, 0xd737dcb0746fb9edull},
    {"random_flat(13,5,3)", 0x4c71b4cf01d3650full, 0x4c71b4cf01d3650full},
    {"random_flat(32,16,4)", 0xe7caef71c2b90f89ull, 0x72027544dc3a40efull},
    {"random_flat(48,24,5)", 0x90371a22223d9aecull, 0x42b514c674173f3eull},
    {"random_flat(80,32,6)", 0xa1ebd71b7e3eeb5full, 0xec7ef9db98daec4cull},
    {"random_flat(64,48,7)", 0xa9a7ae58f784e6e0ull, 0xd9cd95e9dc8b9a4full},
};

struct ScheduleGolden {
  const char* name;
  uint64_t dfs, greedy8, greedy32;  // FNV-1a of Program::to_string()
};

// The §6 schedules of each corpus program's fused XorRePair output,
// captured before the greedy pebbling loop was folded into
// schedule_greedy.cpp: any change to a schedule's instruction order,
// argument order or pebble assignment fails the test.
const ScheduleGolden kScheduleGolden[] = {
    {"rs(10,4)/enc", 0xe9a84428461f2a60ull, 0x27f89bdb7d3814d9ull,
     0xe7331d6c03fd8babull},
    {"cauchy(6,3)/enc", 0xf3fb99526f958badull, 0xe909a186181254e4ull,
     0x139c5e0061cd76f8ull},
    {"lrc(6,2,2)/enc", 0xdd1661ea0e2ce737ull, 0xf8c59057ba6a13aeull,
     0x7dc0dacd48683dddull},
    {"rs(10,4)/dec-2-4-5-6", 0xf2025edcaf55f470ull, 0x13dde7f56271b2aeull,
     0xd5bb125f7e37503dull},
    {"rs(10,4)/dec-0", 0x107310a7aa7ece8full, 0x107310a7aa7ece8full,
     0x107310a7aa7ece8full},
    {"rs(10,4)/dec-3-10", 0x5352df2ae4a2cc6aull, 0x2e51619bd7bd41dcull,
     0x5f2339943c903702ull},
    {"rs(10,4)/dec-1-10-11", 0x39f4bee2844b4e14ull, 0x437be1540d773b65ull,
     0x8116b36f8e65717aull},
    {"rs(10,4)/dec-0-5-11", 0x346400577aecc428ull, 0x1a71495b8c18cff3ull,
     0x77b56d6dc0329969ull},
    {"rs(10,4)/dec-6-7-8-9", 0xbeb9b80f7063f718ull, 0x45566b816f2867fdull,
     0xcd4b55f5bd22e5baull},
    {"rs(10,4)/dec-0-3-10-13", 0x0e0b8018108f4c3eull, 0xcd363510e1becab3ull,
     0x548c26a74fcc639dull},
    {"random_flat(8,4,1)", 0x1cb7cea14d2a8efdull, 0x05b629368a5faeccull,
     0x05b629368a5faeccull},
    {"random_flat(16,8,2)", 0xe043b8594bcce291ull, 0xcef1de74ade61055ull,
     0xbdaac187b4a58a56ull},
    {"random_flat(13,5,3)", 0x3f8b6e4489611b48ull, 0x055f69727976739full,
     0x662819d18ddc74fcull},
    {"random_flat(32,16,4)", 0xd9765e32b118c396ull, 0x9345b018eb7bfc12ull,
     0xc376322fe9e3a16cull},
    {"random_flat(48,24,5)", 0xc2ef9b59c0975b41ull, 0xf80afc9e622d69a9ull,
     0xae6b8148221d2101ull},
    {"random_flat(80,32,6)", 0x331cd506d07bdb84ull, 0x2760121d7fcd3154ull,
     0xf1bdf92d5ac99801ull},
    {"random_flat(64,48,7)", 0xab8fdc8f1e634719ull, 0xb5f6ee42ae4113ecull,
     0xccd78fc8da2d2ff0ull},
};

}  // namespace

TEST(RePair, OutputsMatchGoldenDigests) {
  const auto corpus = golden_corpus();
  ASSERT_EQ(corpus.size(), std::size(kGolden));
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [name, flat] = corpus[i];
    const uint64_t plain = fnv1a(repair_compress(flat).to_string());
    const uint64_t xr = fnv1a(xor_repair_compress(flat).to_string());
    EXPECT_EQ(name, kGolden[i].name);
    EXPECT_EQ(plain, kGolden[i].repair) << name << " (repair)";
    EXPECT_EQ(xr, kGolden[i].xor_repair) << name << " (xor_repair)";
  }
}

TEST(Schedule, OutputsMatchGoldenDigests) {
  const auto corpus = golden_corpus();
  ASSERT_EQ(corpus.size(), std::size(kScheduleGolden));
  for (size_t i = 0; i < corpus.size(); ++i) {
    const auto& [name, flat] = corpus[i];
    const Program fused = fuse(xor_repair_compress(flat));
    EXPECT_EQ(name, kScheduleGolden[i].name);
    EXPECT_EQ(fnv1a(schedule_dfs(fused).to_string()), kScheduleGolden[i].dfs)
        << name << " (dfs)";
    EXPECT_EQ(fnv1a(schedule_greedy(fused, 8).to_string()), kScheduleGolden[i].greedy8)
        << name << " (greedy cap 8)";
    EXPECT_EQ(fnv1a(schedule_greedy(fused, 32).to_string()), kScheduleGolden[i].greedy32)
        << name << " (greedy cap 32)";
  }
}
