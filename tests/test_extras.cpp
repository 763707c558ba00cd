// Remaining extension surfaces: Graphviz export, the "good" Cauchy matrix,
// and the LRU inclusion property backing every cache argument in §6.
#include <gtest/gtest.h>

#include <random>

#include "ec/rs_codec.hpp"
#include "gf/gfmat.hpp"
#include "slp/cache_model.hpp"
#include "slp/dump.hpp"
#include "slp_test_helpers.hpp"

using namespace xorec;
using namespace xorec::slp::testing;

TEST(Dot, ExportsPegGraph) {
  const auto g = slp::build_compgraph(make_peg());
  const std::string dot = slp::to_dot(g, "peg");
  EXPECT_NE(dot.find("digraph peg {"), std::string::npos);
  // Goals double-circled, inner nodes circles, constants boxes.
  EXPECT_NE(dot.find("v4 [shape=doublecircle"), std::string::npos);
  EXPECT_NE(dot.find("v0 [shape=circle"), std::string::npos);
  EXPECT_NE(dot.find("c0 [shape=box"), std::string::npos);
  // Dependencies: c0 -> v0 and v0 -> v2 and v2 -> v4.
  EXPECT_NE(dot.find("c0 -> v0;"), std::string::npos);
  EXPECT_NE(dot.find("v0 -> v2;"), std::string::npos);
  EXPECT_NE(dot.find("v2 -> v4;"), std::string::npos);
}

TEST(CauchyGood, ReducesBitmatrixOnes) {
  for (auto [n, p] : {std::pair<size_t, size_t>{10, 4}, {8, 2}, {6, 3}}) {
    const auto plain = bitmatrix::expand(gf::rs_cauchy_matrix(n, p));
    const auto good = bitmatrix::expand(gf::rs_cauchy_good_matrix(n, p));
    EXPECT_LT(good.total_ones(), plain.total_ones()) << n << "," << p;
  }
}

TEST(CauchyGood, StaysMds) {
  const gf::Matrix m = gf::rs_cauchy_good_matrix(8, 3);
  for (size_t a = 0; a < 11; ++a)
    for (size_t b = a + 1; b < 11; ++b)
      for (size_t c = b + 1; c < 11; ++c) {
        std::vector<size_t> survivors;
        for (size_t r = 0; r < 11; ++r)
          if (r != a && r != b && r != c) survivors.push_back(r);
        ASSERT_TRUE(gf::decode_matrix(m, survivors).has_value())
            << a << "," << b << "," << c;
      }
}

TEST(CauchyGood, SystematicTopPreserved) {
  const gf::Matrix m = gf::rs_cauchy_good_matrix(6, 2);
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) EXPECT_EQ(m.at(i, j), i == j ? 1 : 0);
}

TEST(LruInclusion, CacheContentsNestAcrossCapacities) {
  // The stack property justifying the CCap-by-reuse-distance computation:
  // after any touch prefix, the capacity-c cache content is a subset of the
  // capacity-(c+1) content. Verify by replaying prefixes of a real program.
  const slp::Program p = random_flat(24, 10, 33);
  const auto seq = slp::touch_sequence(p, slp::ExecForm::Fused);

  auto contents_after = [&](size_t capacity, size_t prefix) {
    std::vector<uint64_t> lru;  // front = MRU
    for (size_t i = 0; i < prefix; ++i) {
      const uint64_t k = seq[i].key();
      auto it = std::find(lru.begin(), lru.end(), k);
      if (it != lru.end()) lru.erase(it);
      lru.insert(lru.begin(), k);
      if (lru.size() > capacity) lru.pop_back();
    }
    std::sort(lru.begin(), lru.end());
    return lru;
  };

  for (size_t prefix : {5u, 10u, 20u, static_cast<unsigned>(seq.size())}) {
    for (size_t cap = 2; cap < 12; ++cap) {
      const auto small = contents_after(cap, prefix);
      const auto big = contents_after(cap + 1, prefix);
      EXPECT_TRUE(std::includes(big.begin(), big.end(), small.begin(), small.end()))
          << "cap " << cap << " prefix " << prefix;
    }
  }
}

TEST(MatrixFamilies, XorDensityOrdering) {
  // The reason IsalVandermonde is the default: it is by far the bit-sparsest
  // family at the paper's parameters.
  const size_t n = 10, p = 4;
  std::vector<size_t> rows{10, 11, 12, 13};
  const auto isal = bitmatrix::expand(gf::rs_isal_matrix(n, p).select_rows(rows));
  const auto vand = bitmatrix::expand(gf::rs_systematic_matrix(n, p).select_rows(rows));
  const auto cauchy = bitmatrix::expand(gf::rs_cauchy_matrix(n, p).select_rows(rows));
  const auto good = bitmatrix::expand(gf::rs_cauchy_good_matrix(n, p).select_rows(rows));
  EXPECT_LT(isal.total_ones(), good.total_ones());
  EXPECT_LT(good.total_ones(), cauchy.total_ones());
  EXPECT_EQ(isal.xor_cost(), 755u);  // the paper's P_enc
}

TEST(MatrixFamilies, AllFamiliesDecodeIdenticalData) {
  for (auto family : {ec::MatrixFamily::IsalVandermonde, ec::MatrixFamily::ReducedVandermonde,
                      ec::MatrixFamily::Cauchy}) {
    ec::CodecOptions opt;
    opt.family = family;
    ec::RsCodec codec(6, 3, opt);
    const size_t frag_len = 480;
    std::mt19937_64 rng(11);
    std::vector<std::vector<uint8_t>> frags(9, std::vector<uint8_t>(frag_len));
    for (size_t i = 0; i < 6; ++i)
      for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());
    std::vector<const uint8_t*> d;
    std::vector<uint8_t*> par;
    for (size_t i = 0; i < 6; ++i) d.push_back(frags[i].data());
    for (size_t i = 0; i < 3; ++i) par.push_back(frags[6 + i].data());
    codec.encode(d.data(), par.data(), frag_len);

    const std::vector<uint32_t> erased{0, 2, 5};
    std::vector<uint32_t> available;
    std::vector<const uint8_t*> avail;
    for (uint32_t id = 0; id < 9; ++id)
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
        available.push_back(id);
        avail.push_back(frags[id].data());
      }
    std::vector<std::vector<uint8_t>> out(3, std::vector<uint8_t>(frag_len));
    std::vector<uint8_t*> outs{out[0].data(), out[1].data(), out[2].data()};
    codec.reconstruct(available, avail.data(), erased, outs.data(), frag_len);
    for (size_t i = 0; i < 3; ++i) EXPECT_EQ(out[i], frags[erased[i]]);
  }
}
