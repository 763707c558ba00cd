// XOR kernels: every ISA flavor against a byte-wise oracle, across arity,
// length (including ragged tails), misalignment and exact-alias dst==src.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "kernel/xor_kernel.hpp"
#include "kernel/xor_loops.hpp"

namespace k = xorec::kernel;

namespace {

std::vector<uint8_t> random_bytes(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<uint8_t> v(n);
  for (auto& b : v) b = static_cast<uint8_t>(rng());
  return v;
}

std::vector<uint8_t> oracle(const std::vector<std::vector<uint8_t>>& srcs, size_t len) {
  std::vector<uint8_t> out(len, 0);
  for (const auto& s : srcs)
    for (size_t i = 0; i < len; ++i) out[i] ^= s[i];
  return out;
}

/// The NEON family's instantiation (xor_neon.cpp) without its aarch64 gate:
/// 16-byte words, four accumulators, byte tail. Off ARM, Isa::Neon degrades
/// to word64, so this is the only run of the NEON loop shape there.
const k::KernelTable& neon_shape_table() {
  typedef uint8_t V __attribute__((vector_size(16)));
  static constexpr k::KernelTable t = k::make_table<V, 4>(k::Isa::Neon);
  return t;
}

/// fixed[arity], accum[arity] and many over `arity` random sources of `len`.
void expect_table_matches_oracle(const k::KernelTable& kt, size_t arity, size_t len) {
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (size_t j = 0; j < arity; ++j) {
    srcs.push_back(random_bytes(len, static_cast<uint32_t>(2000 + j)));
    ptrs.push_back(srcs.back().data());
  }
  const auto expected = oracle(srcs, len);

  ASSERT_NE(kt.fixed[arity], nullptr) << k::isa_name(kt.isa);
  std::vector<uint8_t> dst(len, 0xEE);
  kt.fixed[arity](dst.data(), ptrs.data(), len);
  EXPECT_EQ(dst, expected) << "fixed[" << arity << "] " << k::isa_name(kt.isa);

  // accum[arity]: dst ^= srcs...  (dst pre-seeded, folded into the oracle).
  ASSERT_NE(kt.accum[arity], nullptr) << k::isa_name(kt.isa);
  auto acc = random_bytes(len, 999);
  std::vector<uint8_t> acc_expected(len);
  for (size_t i = 0; i < len; ++i) acc_expected[i] = static_cast<uint8_t>(acc[i] ^ expected[i]);
  kt.accum[arity](acc.data(), ptrs.data(), len);
  EXPECT_EQ(acc, acc_expected) << "accum[" << arity << "] " << k::isa_name(kt.isa);

  // many: the variadic form over the same sources. (The suite name keeps
  // its "Nt" so test IDs stay stable; the table has no streaming-store form.)
  ASSERT_NE(kt.many, nullptr) << k::isa_name(kt.isa);
  std::vector<uint8_t> var(len, 0xEE);
  kt.many(var.data(), ptrs.data(), arity, len);
  EXPECT_EQ(var, expected) << "many " << k::isa_name(kt.isa);
}

}  // namespace

class KernelSweep : public ::testing::TestWithParam<std::tuple<k::Isa, size_t, size_t>> {};

TEST_P(KernelSweep, MatchesOracle) {
  const auto [isa, arity, len] = GetParam();
  std::vector<std::vector<uint8_t>> srcs;
  std::vector<const uint8_t*> ptrs;
  for (size_t j = 0; j < arity; ++j) {
    srcs.push_back(random_bytes(len, static_cast<uint32_t>(1000 + j)));
    ptrs.push_back(srcs.back().data());
  }
  std::vector<uint8_t> dst(len, 0xEE);
  k::xor_many(dst.data(), ptrs.data(), arity, len, isa);
  EXPECT_EQ(dst, oracle(srcs, len));
}

std::string kernel_sweep_name(
    const ::testing::TestParamInfo<std::tuple<k::Isa, size_t, size_t>>& info) {
  return std::string(k::isa_name(std::get<0>(info.param))) + "_k" +
         std::to_string(std::get<1>(info.param)) + "_len" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelSweep,
    ::testing::Combine(::testing::Values(k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2,
                                         k::Isa::Avx512, k::Isa::Neon),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 7, 8, 9, 13, 24),
                       ::testing::Values<size_t>(1, 7, 31, 32, 33, 63, 64, 65, 127, 128,
                                                 129, 255, 1024, 4096, 10000)),
    kernel_sweep_name);

// ---- KernelTable: fixed-arity, accumulate and variadic forms ---------------

class KernelTableSweep : public ::testing::TestWithParam<std::tuple<k::Isa, size_t, size_t>> {
};

TEST_P(KernelTableSweep, FixedAccumNtMatchOracle) {
  const auto [isa, arity, len] = GetParam();
  expect_table_matches_oracle(k::kernel_table(isa), arity, len);
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KernelTableSweep,
    ::testing::Combine(::testing::Values(k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2,
                                         k::Isa::Avx512, k::Isa::Neon, k::Isa::Auto),
                       ::testing::Values<size_t>(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values<size_t>(1, 31, 63, 64, 65, 96, 127, 129, 1000,
                                                 4096)),
    kernel_sweep_name);

class NeonShapeTableSweep : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(NeonShapeTableSweep, FixedAccumManyMatchOracle) {
  const auto [arity, len] = GetParam();
  expect_table_matches_oracle(neon_shape_table(), arity, len);
}

INSTANTIATE_TEST_SUITE_P(
    Vec16x4, NeonShapeTableSweep,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Values<size_t>(1, 31, 63, 64, 65, 96, 127, 129, 1000,
                                                 4096)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_len" +
             std::to_string(std::get<1>(info.param));
    });

// ---- Tails: every residue of every loop step, misaligned, guarded ----------

struct TailCase {
  const char* name;
  const k::KernelTable& (*table)();
};

template <k::Isa I>
const k::KernelTable& table_of() {
  return k::kernel_table(I);
}

class KernelTailResidue : public ::testing::TestWithParam<TailCase> {};

TEST_P(KernelTailResidue, EveryLengthArityAndOffset) {
  // Lengths 1..257 leave every residue of a 128-byte iteration and of each
  // word step; a write past dst + len lands in the guard bytes. dst sits at
  // offset 1 with the sources at 3, then the reverse. Arities 9 and 10 take
  // many's run-time-count loop.
  const k::KernelTable& kt = GetParam().table();
  constexpr size_t kMaxLen = 257, kGuard = 64, kMaxArity = 10;
  std::vector<std::vector<uint8_t>> srcs;
  for (size_t j = 0; j < kMaxArity; ++j)
    srcs.push_back(random_bytes(kMaxLen + 3, static_cast<uint32_t>(3000 + j)));
  const auto dst_init = random_bytes(kMaxLen + 3, 3999);
  enum Form { Fixed, Accum, Many };
  for (size_t off : {1, 3}) {
    for (size_t arity = 1; arity <= kMaxArity; ++arity) {
      std::vector<const uint8_t*> ptrs;
      for (size_t j = 0; j < arity; ++j) ptrs.push_back(srcs[j].data() + (off ^ 2));
      for (size_t len = 1; len <= kMaxLen; ++len) {
        for (Form form : {Fixed, Accum, Many}) {
          if (form != Many && arity > k::kMaxFixedArity) continue;
          std::vector<uint8_t> buf(off + len + kGuard, 0xA5);
          std::copy(dst_init.begin(), dst_init.begin() + len, buf.begin() + off);
          std::vector<uint8_t> want = buf;
          for (size_t i = 0; i < len; ++i) {
            uint8_t x = form == Accum ? want[off + i] : 0;
            for (const uint8_t* p : ptrs) x ^= p[i];
            want[off + i] = x;
          }
          uint8_t* dst = buf.data() + off;
          if (form == Fixed) kt.fixed[arity](dst, ptrs.data(), len);
          if (form == Accum) kt.accum[arity](dst, ptrs.data(), len);
          if (form == Many) kt.many(dst, ptrs.data(), arity, len);
          ASSERT_EQ(buf, want) << k::isa_name(kt.isa) << " form " << form << " k" << arity
                               << " len" << len << " dst offset " << off;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    HostIsas, KernelTailResidue,
    ::testing::Values(
        TailCase{"scalar", &table_of<k::Isa::Scalar>},
        TailCase{"word64", &table_of<k::Isa::Word64>},
        TailCase{"avx2", &table_of<k::Isa::Avx2>},
        TailCase{"avx512", &table_of<k::Isa::Avx512>},
        TailCase{"neon_shape", &neon_shape_table}),
    [](const ::testing::TestParamInfo<TailCase>& info) { return std::string(info.param.name); });

TEST(KernelTable, DegradesToHostSupport) {
  // Requesting a family the host lacks lands on a runnable fallback, and
  // the table says which one it picked.
  for (k::Isa isa : {k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon, k::Isa::Auto}) {
    const k::KernelTable& kt = k::kernel_table(isa);
    EXPECT_NE(kt.many, nullptr);
    switch (kt.isa) {
      case k::Isa::Avx2: EXPECT_TRUE(k::cpu_has_avx2()); break;
      case k::Isa::Avx512: EXPECT_TRUE(k::cpu_has_avx512()); break;
      case k::Isa::Neon: EXPECT_TRUE(k::cpu_has_neon()); break;
      case k::Isa::Scalar:
      case k::Isa::Word64: break;
      case k::Isa::Auto: FAIL() << "kernel_table returned unresolved Auto";
    }
  }
}

TEST(Kernel, InPlaceAccumulationIsSafe) {
  // dst aliases srcs[0] exactly: v ^= x ^ y.
  for (k::Isa isa :
       {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon}) {
    auto a = random_bytes(777, 1);
    const auto a_copy = a;
    const auto b = random_bytes(777, 2);
    const auto c = random_bytes(777, 3);
    const uint8_t* srcs[3] = {a.data(), b.data(), c.data()};
    k::xor_many(a.data(), srcs, 3, 777, isa);
    for (size_t i = 0; i < 777; ++i)
      ASSERT_EQ(a[i], static_cast<uint8_t>(a_copy[i] ^ b[i] ^ c[i])) << k::isa_name(isa);
  }
}

TEST(Kernel, InPlaceAliasingLastSource) {
  for (k::Isa isa :
       {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon}) {
    const auto a = random_bytes(321, 4);
    auto b = random_bytes(321, 5);
    const auto b_copy = b;
    const uint8_t* srcs[2] = {a.data(), b.data()};
    k::xor_many(b.data(), srcs, 2, 321, isa);
    for (size_t i = 0; i < 321; ++i)
      ASSERT_EQ(b[i], static_cast<uint8_t>(a[i] ^ b_copy[i])) << k::isa_name(isa);
  }
}

TEST(Kernel, MisalignedPointers) {
  // Strips in real fragments land at arbitrary offsets; all ISAs use
  // unaligned loads.
  const size_t len = 512;
  for (k::Isa isa :
       {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512, k::Isa::Neon}) {
    for (size_t shift : {1, 3, 7, 17}) {
      auto a = random_bytes(len + 64, 10);
      auto b = random_bytes(len + 64, 11);
      std::vector<uint8_t> dst(len + 64, 0);
      const uint8_t* srcs[2] = {a.data() + shift, b.data() + 2 * shift};
      k::xor_many(dst.data() + shift, srcs, 2, len, isa);
      for (size_t i = 0; i < len; ++i)
        ASSERT_EQ(dst[shift + i], static_cast<uint8_t>(a[shift + i] ^ b[2 * shift + i]));
    }
  }
}

TEST(Kernel, SingleSourceIsCopy) {
  const auto a = random_bytes(100, 20);
  std::vector<uint8_t> dst(100, 0);
  const uint8_t* srcs[1] = {a.data()};
  k::xor_many(dst.data(), srcs, 1, 100, k::Isa::Auto);
  EXPECT_EQ(dst, a);
}

TEST(Kernel, ZeroLengthIsNoop) {
  std::vector<uint8_t> dst{42};
  const uint8_t* srcs[2] = {dst.data(), dst.data()};
  k::xor_many(dst.data(), srcs, 2, 0, k::Isa::Auto);
  EXPECT_EQ(dst[0], 42);
}

TEST(Kernel, ResolveNeverReturnsNull) {
  for (k::Isa isa : {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512,
                     k::Isa::Neon, k::Isa::Auto})
    EXPECT_NE(k::resolve(isa), nullptr);
}

TEST(Kernel, IsaNamesRoundTrip) {
  for (k::Isa isa : {k::Isa::Scalar, k::Isa::Word64, k::Isa::Avx2, k::Isa::Avx512,
                     k::Isa::Neon, k::Isa::Auto}) {
    const auto parsed = k::parse_isa(k::isa_name(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_FALSE(k::parse_isa("sse2").has_value());
  EXPECT_FALSE(k::parse_isa("").has_value());
  EXPECT_FALSE(k::parse_isa(nullptr).has_value());
}

TEST(Kernel, SelfXorEvenTimesIsZero) {
  // Property: x ^ x ^ x ^ x = 0 regardless of kernel.
  const auto a = random_bytes(2048, 30);
  const uint8_t* srcs[4] = {a.data(), a.data(), a.data(), a.data()};
  std::vector<uint8_t> dst(2048, 0xFF);
  k::xor_many(dst.data(), srcs, 4, 2048, k::Isa::Auto);
  for (uint8_t b : dst) ASSERT_EQ(b, 0);
}
