// RsCodec end-to-end: encode/reconstruct round-trips across codecs, every
// erasure pattern up to p failures for RS(10,4)-sized codes, pipeline
// configuration sweeps, and API error handling.
#include <gtest/gtest.h>

#include <random>

#include "ec/layout.hpp"
#include "ec/rs_codec.hpp"

using namespace xorec;

namespace {

struct Cluster {
  std::vector<std::vector<uint8_t>> frags;  // n data + p parity
  size_t n, p, frag_len;

  Cluster(const ec::RsCodec& codec, size_t frag_len_, uint32_t seed)
      : n(codec.data_fragments()), p(codec.parity_fragments()), frag_len(frag_len_) {
    std::mt19937 rng(seed);
    frags.assign(n + p, std::vector<uint8_t>(frag_len));
    for (size_t i = 0; i < n; ++i)
      for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());
    std::vector<const uint8_t*> data;
    std::vector<uint8_t*> parity;
    for (size_t i = 0; i < n; ++i) data.push_back(frags[i].data());
    for (size_t i = 0; i < p; ++i) parity.push_back(frags[n + i].data());
    codec.encode(data.data(), parity.data(), frag_len);
  }

  /// Erase `erased`, reconstruct through the codec, compare to the originals.
  void check_reconstruct(const ec::RsCodec& codec, const std::vector<uint32_t>& erased) const {
    std::vector<uint32_t> available;
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id = 0; id < n + p; ++id) {
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
        available.push_back(id);
        avail_ptrs.push_back(frags[id].data());
      }
    }
    std::vector<std::vector<uint8_t>> rebuilt(erased.size(),
                                              std::vector<uint8_t>(frag_len, 0xCD));
    std::vector<uint8_t*> out_ptrs;
    for (auto& r : rebuilt) out_ptrs.push_back(r.data());
    codec.reconstruct(available, avail_ptrs.data(), erased, out_ptrs.data(), frag_len);
    for (size_t i = 0; i < erased.size(); ++i)
      ASSERT_EQ(rebuilt[i], frags[erased[i]]) << "fragment " << erased[i];
  }
};

void all_patterns(size_t total, size_t k, const std::function<void(std::vector<uint32_t>&)>& f) {
  std::vector<uint32_t> pattern(k);
  std::function<void(size_t, size_t)> rec = [&](size_t start, size_t depth) {
    if (depth == k) {
      f(pattern);
      return;
    }
    for (size_t v = start; v < total; ++v) {
      pattern[depth] = static_cast<uint32_t>(v);
      rec(v + 1, depth + 1);
    }
  };
  rec(0, 0);
}

}  // namespace

TEST(RsCodec, ConstructionValidation) {
  EXPECT_THROW(ec::RsCodec(0, 4), std::invalid_argument);
  EXPECT_THROW(ec::RsCodec(10, 0), std::invalid_argument);
  EXPECT_THROW(ec::RsCodec(200, 100), std::invalid_argument);
  EXPECT_NO_THROW(ec::RsCodec(10, 4));
}

TEST(RsCodec, FragLenValidation) {
  ec::RsCodec codec(4, 2);
  std::vector<std::vector<uint8_t>> bufs(6, std::vector<uint8_t>(64));
  std::vector<const uint8_t*> data{bufs[0].data(), bufs[1].data(), bufs[2].data(),
                                   bufs[3].data()};
  std::vector<uint8_t*> parity{bufs[4].data(), bufs[5].data()};
  EXPECT_THROW(codec.encode(data.data(), parity.data(), 0), std::invalid_argument);
  EXPECT_THROW(codec.encode(data.data(), parity.data(), 13), std::invalid_argument);
  EXPECT_NO_THROW(codec.encode(data.data(), parity.data(), 64));
}

TEST(RsCodec, EncodeMatchesGfMatrixOracleInSymbolDomain) {
  // Fragments live in bit-plane layout (ec/layout.hpp): GF symbol t is
  // spread across the 8 strips. Per symbol, parity must equal the plain
  // GF(2^8) matrix application.
  const size_t n = 6, p = 3, frag_len = 40;
  ec::RsCodec codec(n, p);
  Cluster c(codec, frag_len, 42);
  const gf::Matrix parity = codec.code_matrix().select_rows({6, 7, 8});
  std::vector<std::vector<uint8_t>> sym(n + p);
  for (size_t i = 0; i < n + p; ++i)
    sym[i] = ec::fragment_to_symbols(c.frags[i].data(), frag_len);
  for (size_t t = 0; t < frag_len; ++t) {
    std::vector<uint8_t> col(n);
    for (size_t i = 0; i < n; ++i) col[i] = sym[i][t];
    const auto want = parity.apply(col);
    for (size_t i = 0; i < p; ++i)
      ASSERT_EQ(sym[n + i][t], want[i]) << "parity " << i << " symbol " << t;
  }
}

TEST(RsCodec, LayoutTransformRoundTrips) {
  std::mt19937 rng(5);
  std::vector<uint8_t> frag(128);
  for (auto& b : frag) b = static_cast<uint8_t>(rng());
  const auto sym = ec::fragment_to_symbols(frag.data(), frag.size());
  EXPECT_EQ(ec::symbols_to_fragment(sym), frag);
  EXPECT_THROW(ec::fragment_to_symbols(frag.data(), 13), std::invalid_argument);
}

TEST(RsCodec, Rs10_4AllSingleAndDoubleErasures) {
  ec::RsCodec codec(10, 4);
  Cluster c(codec, 800, 7);
  all_patterns(14, 1, [&](std::vector<uint32_t>& e) { c.check_reconstruct(codec, e); });
  all_patterns(14, 2, [&](std::vector<uint32_t>& e) { c.check_reconstruct(codec, e); });
}

TEST(RsCodec, Rs10_4SampledQuadErasures) {
  ec::RsCodec codec(10, 4);
  Cluster c(codec, 400, 8);
  // All-data, mixed, all-parity quads, incl. the paper's P_dec pattern
  // {2,4,5,6} (§7.5 — its SLP has 1368 XORs, the most of any decode).
  for (const std::vector<uint32_t>& e :
       {std::vector<uint32_t>{2, 4, 5, 6}, {0, 1, 2, 3}, {6, 7, 8, 9}, {0, 5, 10, 13},
        {10, 11, 12, 13}, {9, 10, 11, 12}, {0, 1, 12, 13}}) {
    c.check_reconstruct(codec, e);
  }
}

class RsCodecParams : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(RsCodecParams, AllMaxErasurePatterns) {
  const auto [n, p] = GetParam();
  ec::RsCodec codec(n, p);
  Cluster c(codec, 240, static_cast<uint32_t>(n * 100 + p));
  all_patterns(n + p, p, [&](std::vector<uint32_t>& e) { c.check_reconstruct(codec, e); });
}

std::string rs_param_name(const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
  return "rs" + std::to_string(std::get<0>(info.param)) + "_" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(Grid, RsCodecParams,
                         ::testing::Values(std::make_tuple<size_t, size_t>(4, 2),
                                           std::make_tuple<size_t, size_t>(5, 2),
                                           std::make_tuple<size_t, size_t>(6, 3),
                                           std::make_tuple<size_t, size_t>(8, 2),
                                           std::make_tuple<size_t, size_t>(8, 3),
                                           std::make_tuple<size_t, size_t>(3, 3),
                                           std::make_tuple<size_t, size_t>(2, 2),
                                           std::make_tuple<size_t, size_t>(1, 1),
                                           std::make_tuple<size_t, size_t>(7, 1)),
                         rs_param_name);

TEST(RsCodec, PipelineConfigurationsAllDecode) {
  // Every optimizer configuration must produce identical bytes.
  std::vector<ec::CodecOptions> configs;
  for (auto compress :
       {slp::CompressKind::None, slp::CompressKind::RePair, slp::CompressKind::XorRePair}) {
    for (bool fuse : {false, true}) {
      for (auto sched : {slp::ScheduleKind::None, slp::ScheduleKind::Dfs,
                         slp::ScheduleKind::Greedy}) {
        if (sched != slp::ScheduleKind::None && !fuse) continue;  // schedule needs SSA fused
        ec::CodecOptions o;
        o.pipeline = {compress, fuse, sched, 32};
        o.exec.block_size = 1024;
        configs.push_back(o);
      }
    }
  }
  ASSERT_GE(configs.size(), 9u);

  std::vector<std::vector<uint8_t>> golden;
  for (const auto& cfg : configs) {
    ec::RsCodec codec(6, 3, cfg);
    Cluster c(codec, 480, 99);  // same seed => same data
    if (golden.empty()) {
      golden = c.frags;
    } else {
      ASSERT_EQ(c.frags, golden) << "parity differs across pipeline configs";
    }
    c.check_reconstruct(codec, {0, 7, 8});
    c.check_reconstruct(codec, {1, 2, 3});
  }
}

TEST(RsCodec, CauchyFamilyWorks) {
  ec::CodecOptions opt;
  opt.family = ec::MatrixFamily::Cauchy;
  ec::RsCodec codec(8, 3, opt);
  Cluster c(codec, 320, 5);
  c.check_reconstruct(codec, {0, 4, 10});
  c.check_reconstruct(codec, {8, 9, 10});
}

TEST(RsCodec, ReconstructValidation) {
  ec::RsCodec codec(4, 2);
  Cluster c(codec, 80, 3);
  std::vector<const uint8_t*> few{c.frags[0].data(), c.frags[1].data(),
                                  c.frags[2].data()};
  std::vector<uint8_t> out(80);
  uint8_t* outp = out.data();
  // Not enough survivors.
  EXPECT_THROW(codec.reconstruct({0, 1, 2}, few.data(), {3}, &outp, 80),
               std::invalid_argument);
  // Id out of range.
  EXPECT_THROW(codec.reconstruct({0, 1, 2}, few.data(), {99}, &outp, 80), std::out_of_range);
  // Fragment both available and erased.
  std::vector<const uint8_t*> four{c.frags[0].data(), c.frags[1].data(), c.frags[2].data(),
                                   c.frags[3].data()};
  EXPECT_THROW(codec.reconstruct({0, 1, 2, 3}, four.data(), {3}, &outp, 80),
               std::invalid_argument);
}

TEST(RsCodec, DecodeProgramIsCached) {
  ec::RsCodec codec(10, 4);
  const auto a = codec.decode_program({2, 4, 5, 6});
  const auto b = codec.decode_program({2, 4, 5, 6});
  EXPECT_EQ(a.get(), b.get()) << "second lookup must hit the cache";
  const auto other = codec.decode_program({0, 1, 2, 3});
  EXPECT_NE(a.get(), other.get());
}

TEST(RsCodec, ChooseSurvivorsPrefersDataRows) {
  ec::RsCodec codec(6, 3);
  const auto s = codec.choose_survivors({0, 1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(s, (std::vector<uint32_t>{0, 1, 2, 3, 4, 5}));
  const auto s2 = codec.choose_survivors({1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(s2, (std::vector<uint32_t>{1, 2, 3, 4, 5, 6}));
}

