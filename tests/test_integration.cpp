// Cross-module integration: the paper's pipeline invariants on the real
// RS(10,4) matrices (§7.5 stage monotonicity), full encode->fail->decode
// flows, and agreement between every independent computation path.
#include <gtest/gtest.h>

#include <random>

#include "baseline/isal_style.hpp"
#include "ec/layout.hpp"
#include "ec/rs_codec.hpp"
#include "slp/cache_model.hpp"
#include "slp/metrics.hpp"
#include "slp/semantics.hpp"

using namespace xorec;

namespace {

slp::PipelineResult rs_encode_pipeline(size_t n, size_t p, slp::ScheduleKind sched) {
  slp::PipelineOptions opt;
  opt.compress = slp::CompressKind::XorRePair;
  opt.fuse = true;
  opt.schedule = sched;
  opt.greedy_capacity = 32;
  std::vector<size_t> parity_rows(p);
  for (size_t i = 0; i < p; ++i) parity_rows[i] = n + i;
  const gf::Matrix parity = gf::rs_isal_matrix(n, p).select_rows(parity_rows);
  return slp::optimize(bitmatrix::expand(parity), opt, "enc");
}

}  // namespace

TEST(Integration, Rs10_4EncodeStageInvariants) {
  // The §7.5 table's qualitative structure:
  //   #⊕:   base > compressed         (RePair reduces XORs)
  //   #M:   base > compressed > fused (each stage reduces accesses)
  //   NVar: compression explodes it, fusion shrinks it, scheduling shrinks
  //         it further; CCap follows the same arc.
  const auto r = rs_encode_pipeline(10, 4, slp::ScheduleKind::Dfs);
  ASSERT_TRUE(r.compressed && r.fused && r.scheduled);

  const auto base = slp::measure(r.base, slp::ExecForm::Binary);
  const auto co = slp::measure(*r.compressed, slp::ExecForm::Binary);
  const auto fu = slp::measure(*r.fused, slp::ExecForm::Fused);
  const auto sc = slp::measure(*r.scheduled, slp::ExecForm::Fused);

  EXPECT_EQ(base.nvar, 32u);  // 4 parities x 8 strips
  EXPECT_GT(base.xor_ops, co.xor_ops);
  EXPECT_EQ(co.xor_ops, fu.xor_ops);
  EXPECT_EQ(fu.xor_ops, sc.xor_ops);

  EXPECT_GT(base.mem_accesses, co.mem_accesses);
  EXPECT_GT(co.mem_accesses, fu.mem_accesses);
  EXPECT_EQ(fu.mem_accesses, sc.mem_accesses);

  EXPECT_GT(co.nvar, base.nvar);   // §7.3: compression costs ~15x NVar
  EXPECT_LT(fu.nvar, co.nvar);
  EXPECT_LT(sc.nvar, fu.nvar);
  EXPECT_LT(sc.ccap, fu.ccap);

  // Semantics preserved through the whole flow.
  EXPECT_TRUE(slp::equivalent(r.base, *r.scheduled));
}

TEST(Integration, Rs10_4DecodeStageReproducesPaperBaseNumbers) {
  // The paper's P_dec: fragments {2,4,5,6} erased. §7.5's base column:
  // #⊕ = 1368, #M = 4104, NVar = 32 — we reproduce all three exactly.
  ec::RsCodec codec(10, 4);
  const auto dec = codec.decode_program({2, 4, 5, 6});
  const auto& r = dec->pipeline;
  ASSERT_TRUE(r.compressed && r.fused && r.scheduled);

  const auto base = slp::measure(r.base, slp::ExecForm::Binary);
  EXPECT_EQ(base.xor_ops, 1368u);
  EXPECT_EQ(base.mem_accesses, 4104u);
  EXPECT_EQ(base.nvar, 32u);  // 4 lost fragments x 8 strips
  EXPECT_EQ(r.base.num_consts, 80u);

  const auto sc = slp::measure(*r.scheduled, slp::ExecForm::Fused);
  EXPECT_GT(base.xor_ops, sc.xor_ops);
  // Decode SLPs carry more XORs than encode (§7.5: inverse matrices are
  // denser).
  const auto enc = rs_encode_pipeline(10, 4, slp::ScheduleKind::Dfs);
  EXPECT_GT(base.xor_ops, slp::xor_ops(enc.base));
}

TEST(Integration, GreedyAndDfsBothValidOnAllRsCodecsOfFig1) {
  // Figure 1's grid: RS(8..10, 2..4) encode, both schedulers.
  for (size_t d : {8, 9, 10}) {
    for (size_t par : {2, 3, 4}) {
      for (auto sched : {slp::ScheduleKind::Dfs, slp::ScheduleKind::Greedy}) {
        const auto r = rs_encode_pipeline(d, par, sched);
        ASSERT_TRUE(r.scheduled);
        ASSERT_TRUE(slp::equivalent(r.base, *r.scheduled))
            << "RS(" << d << "," << par << ")";
      }
    }
  }
}

TEST(Integration, EncodeDecodeStorySurvivesMaxFailure) {
  // Full story: 10 MB object, RS(10,4), lose 4 nodes, recover, byte-compare.
  const size_t n = 10, p = 4;
  const size_t frag_len = 1 << 16;
  ec::RsCodec codec(n, p);

  std::mt19937 rng(2024);
  std::vector<std::vector<uint8_t>> frags(n + p, std::vector<uint8_t>(frag_len));
  for (size_t i = 0; i < n; ++i)
    for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());

  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < n; ++i) data.push_back(frags[i].data());
  for (size_t i = 0; i < p; ++i) parity.push_back(frags[n + i].data());
  codec.encode(data.data(), parity.data(), frag_len);

  const std::vector<uint32_t> erased{0, 3, 11, 13};
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail;
  for (uint32_t id = 0; id < n + p; ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
      available.push_back(id);
      avail.push_back(frags[id].data());
    }
  std::vector<std::vector<uint8_t>> rebuilt(4, std::vector<uint8_t>(frag_len));
  std::vector<uint8_t*> outs;
  for (auto& r : rebuilt) outs.push_back(r.data());
  codec.reconstruct(available, avail.data(), erased, outs.data(), frag_len);
  for (size_t i = 0; i < erased.size(); ++i) EXPECT_EQ(rebuilt[i], frags[erased[i]]);
}

TEST(Integration, XorSlpAndGfTableDecodersAgree) {
  // Decode the same failure through both engines. The ISA-L-style engine
  // sees the symbol view of every fragment (ec/layout.hpp); reconstruction
  // must commute with the layout transform.
  const size_t n = 8, p = 3, frag_len = 4096;
  ec::RsCodec slp_codec(n, p);
  baseline::IsalStyleCodec isal(n, p);

  std::mt19937 rng(7);
  std::vector<std::vector<uint8_t>> frags(n + p, std::vector<uint8_t>(frag_len));
  for (size_t i = 0; i < n; ++i)
    for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < n; ++i) data.push_back(frags[i].data());
  for (size_t i = 0; i < p; ++i) parity.push_back(frags[n + i].data());
  slp_codec.encode(data.data(), parity.data(), frag_len);

  const std::vector<uint32_t> erased{2, 5, 9};
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail;
  std::vector<std::vector<uint8_t>> avail_sym;
  for (uint32_t id = 0; id < n + p; ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
      available.push_back(id);
      avail.push_back(frags[id].data());
      avail_sym.push_back(ec::fragment_to_symbols(frags[id].data(), frag_len));
    }
  std::vector<const uint8_t*> avail_sym_ptrs;
  for (const auto& s : avail_sym) avail_sym_ptrs.push_back(s.data());

  std::vector<std::vector<uint8_t>> out_a(3, std::vector<uint8_t>(frag_len)),
      out_b(3, std::vector<uint8_t>(frag_len));
  std::vector<uint8_t*> pa, pb;
  for (auto& r : out_a) pa.push_back(r.data());
  for (auto& r : out_b) pb.push_back(r.data());
  slp_codec.reconstruct(available, avail.data(), erased, pa.data(), frag_len);
  isal.reconstruct(available, avail_sym_ptrs.data(), erased, pb.data(), frag_len);
  for (size_t i = 0; i < erased.size(); ++i) {
    EXPECT_EQ(out_a[i], frags[erased[i]]);
    EXPECT_EQ(ec::fragment_to_symbols(out_a[i].data(), frag_len), out_b[i])
        << "fragment " << erased[i];
  }
}

TEST(Integration, Rs10_4EncodeReproducesPaperBaseNumbers) {
  // §7.5's base column for P_enc: #⊕ = 755, #M = 2265, NVar = 32 — exact.
  // (Our CCap lands at 96 vs the paper's 92: a touch-order convention
  // difference in the abstract accumulate expansion, hence the ±6 below.)
  const auto r = rs_encode_pipeline(10, 4, slp::ScheduleKind::Dfs);
  const auto base = slp::measure(r.base, slp::ExecForm::Binary);
  EXPECT_EQ(base.xor_ops, 755u);
  EXPECT_EQ(base.mem_accesses, 2265u);
  EXPECT_EQ(base.nvar, 32u);
  EXPECT_NEAR(static_cast<double>(base.ccap), 92.0, 6.0);

  // Compressed stage: the paper reports 385 (51% of base); tie-breaking
  // details shift the exact count slightly — pin the regime.
  const size_t co_x = slp::xor_ops(*r.compressed);
  const double ratio = static_cast<double>(co_x) / static_cast<double>(base.xor_ops);
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
  EXPECT_LT(slp::measure(*r.scheduled, slp::ExecForm::Fused).nvar, 140u);
}
