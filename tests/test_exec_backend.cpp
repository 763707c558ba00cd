// Differential suite for the execution-backend layer: every exec= backend x
// isa= kernel family must be byte-identical to the scalar interpreter (and
// to the original payload) across the conformance harness's erasure
// patterns, at strip lengths chosen to stress the kernels' tail paths —
// odd lengths far from any SIMD width, and a short final block.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/codec.hpp"
#include "api/registry.hpp"
#include "api/service.hpp"
#include "conformance/codec_conformance.hpp"
#include "ec/plan_cache.hpp"
#include "ec/rs_codec.hpp"
#include "kernel/xor_kernel.hpp"
#include "runtime/executor.hpp"

namespace xorec {
namespace {

struct Stripe {
  std::vector<std::vector<uint8_t>> frags;  // data then parity, encoded
  size_t frag_len = 0;
};

Stripe encoded_stripe(const Codec& c, size_t frag_len, uint32_t seed) {
  Stripe s;
  s.frag_len = frag_len;
  s.frags.resize(c.total_fragments());
  std::mt19937 rng(seed);
  for (size_t f = 0; f < c.total_fragments(); ++f) s.frags[f].resize(frag_len);
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t f = 0; f < c.data_fragments(); ++f) {
    for (uint8_t& b : s.frags[f]) b = static_cast<uint8_t>(rng());
    data.push_back(s.frags[f].data());
  }
  for (size_t f = c.data_fragments(); f < c.total_fragments(); ++f)
    parity.push_back(s.frags[f].data());
  c.encode(data.data(), parity.data(), frag_len);
  return s;
}

/// Encode + every C(n, <= m) reconstruct of `spec` must be byte-identical
/// to `ref` (the scalar interpreter codec over the same family/geometry).
void expect_identical(const std::string& spec, const Codec& ref, const Stripe& ref_stripe,
                      size_t max_erased, uint32_t seed) {
  SCOPED_TRACE(spec);
  const auto codec = make_codec(spec);
  ASSERT_EQ(codec->total_fragments(), ref.total_fragments());

  const Stripe st = encoded_stripe(*codec, ref_stripe.frag_len, seed);
  for (size_t f = 0; f < ref.total_fragments(); ++f)
    ASSERT_EQ(st.frags[f], ref_stripe.frags[f]) << "encode mismatch, fragment " << f;

  for (const auto& erased :
       conformance::erasure_patterns(codec->total_fragments(), max_erased)) {
    SCOPED_TRACE(::testing::Message() << "erased n=" << erased.size()
                                      << " first=" << erased.front());
    const auto available = conformance::all_but(*codec, erased);
    std::vector<const uint8_t*> in;
    for (uint32_t id : available) in.push_back(st.frags[id].data());

    std::shared_ptr<const ReconstructPlan> ref_plan, plan;
    try {
      ref_plan = ref.plan_reconstruct(available, erased);
    } catch (const std::invalid_argument&) {
      // Unrecoverable under the reference (non-MDS families): every backend
      // must agree.
      EXPECT_THROW(codec->plan_reconstruct(available, erased), std::invalid_argument);
      continue;
    }
    ASSERT_NO_THROW(plan = codec->plan_reconstruct(available, erased));

    std::vector<std::vector<uint8_t>> rebuilt(erased.size());
    std::vector<uint8_t*> out;
    for (auto& b : rebuilt) {
      b.assign(st.frag_len, 0xCD);  // poison: a skipped write must fail
      out.push_back(b.data());
    }
    plan->execute(in.data(), out.data(), st.frag_len);
    for (size_t e = 0; e < erased.size(); ++e)
      ASSERT_EQ(rebuilt[e], st.frags[erased[e]]) << "fragment " << erased[e];
  }
}

// Strip lengths exercising the kernels' tails. The conformance families use
// small geometries, so a fragment is fragment_multiple() strips; 49-byte
// strips sit below every SIMD width and are no multiple of 8, and block=384
// against 1000-byte strips leaves a 232-byte final block.
constexpr size_t kOddStrip = 49;
constexpr size_t kLongStrip = 1000;

class ExecBackendDifferential : public ::testing::Test {};

TEST(ExecBackendDifferential, RsFullSweepOddStrips) {
  const auto ref = make_codec("rs(6,3)@isa=scalar,exec=interp");
  const size_t frag_len = ref->fragment_multiple() * kOddStrip;
  const Stripe st = encoded_stripe(*ref, frag_len, /*seed=*/1);
  for (const char* isa : {"scalar", "word64", "avx2", "avx512", "neon", "auto"})
    for (const char* exec : {"interp", "lowered"})
      expect_identical("rs(6,3)@isa=" + std::string(isa) + ",exec=" + exec, *ref, st,
                       ref->parity_fragments(), /*seed=*/1);
}

TEST(ExecBackendDifferential, RsShortFinalBlock) {
  const auto ref = make_codec("rs(6,3)@isa=scalar,exec=interp,block=384");
  const size_t frag_len = ref->fragment_multiple() * kLongStrip;
  const Stripe st = encoded_stripe(*ref, frag_len, /*seed=*/2);
  for (const char* exec : {"interp", "lowered"})
    expect_identical("rs(6,3)@block=384,exec=" + std::string(exec), *ref, st,
                     ref->parity_fragments(), /*seed=*/2);
}

TEST(ExecBackendDifferential, OtherFamiliesBestIsaBothBackends) {
  struct Fam {
    const char* spec;
    size_t max_erased;
  };
  for (const Fam& fam : {Fam{"cauchy(5,3)", 3}, Fam{"lrc(6,2,2)", 4}, Fam{"evenodd(4)", 2}}) {
    const std::string base(fam.spec);
    const auto ref = make_codec(base + "@isa=scalar,exec=interp");
    const size_t frag_len = ref->fragment_multiple() * kOddStrip;
    const Stripe st = encoded_stripe(*ref, frag_len, /*seed=*/3);
    for (const char* exec : {"interp", "lowered"})
      expect_identical(base + "@exec=" + exec, *ref, st, fam.max_erased, /*seed=*/3);
  }
}

TEST(ExecBackendGrammar, SpecKeysRoundTrip) {
  // Canonical form keeps the backend token that differs from the default:
  // exec=interp survives, exec=lowered is the default and drops.
  EXPECT_EQ(canonical_spec("rs(6,3)@exec=interp"), "rs(6,3)@exec=interp");
  EXPECT_EQ(canonical_spec("rs(6,3)@exec=lowered"), "rs(6,3)");
  EXPECT_EQ(canonical_spec("rs(6,3)@isa=avx512"), "rs(6,3)@isa=avx512");
  EXPECT_EQ(canonical_spec("rs(6,3)@isa=neon,exec=interp"), "rs(6,3)@isa=neon,exec=interp");
  EXPECT_THROW(make_codec("rs(6,3)@exec=bogus"), std::invalid_argument);
  EXPECT_THROW(make_codec("rs(6,3)@isa=sse2"), std::invalid_argument);
}

TEST(ExecBackendGrammar, ExecInfoReportsResolvedBackend) {
  const auto lowered = make_codec("rs(6,3)");
  EXPECT_EQ(lowered->exec_info().backend, "lowered");
  EXPECT_FALSE(lowered->exec_info().isa.empty());
  EXPECT_NE(lowered->exec_info().isa, "auto");  // resolved, not requested

  const auto interp = make_codec("rs(6,3)@exec=interp");
  EXPECT_EQ(interp->exec_info().backend, "interp");

  // Explicit isa= requests resolve verbatim — unless the process runs under
  // XOREC_FORCE_ISA (the CI force-isa legs), which clamps every resolution.
  const auto scalar = make_codec("rs(6,3)@isa=scalar");
  if (const auto forced = kernel::forced_isa())
    EXPECT_EQ(scalar->exec_info().isa, kernel::isa_name(kernel::kernel_table(*forced).isa));
  else
    EXPECT_EQ(scalar->exec_info().isa, "scalar");
}

TEST(ExecBackendGrammar, FingerprintSeparatesBackends) {
  const slp::PipelineOptions pl;
  runtime::ExecOptions interp, lowered;
  interp.backend = runtime::ExecBackend::Interp;
  lowered.backend = runtime::ExecBackend::Lowered;
  // interp and lowered must never collide in the shared plan cache.
  EXPECT_NE(ec::PlanCache::fingerprint_config(pl, interp),
            ec::PlanCache::fingerprint_config(pl, lowered));
}

// The exec= name of the removed runtime-compiled backend.
constexpr char kRemovedBackend[] = "jit";

/// parse_spec(spec) must throw std::invalid_argument whose message contains
/// `expected`.
void expect_spec_error(const std::string& spec, const std::string& expected) {
  try {
    (void)parse_spec(spec);
    ADD_FAILURE() << spec << " parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

TEST(ExecBackendGrammar, RemovedBackendIsASpecError) {
  // A bad exec= value like any other: the error names the accepted values.
  EXPECT_EQ(runtime::parse_exec_backend(kRemovedBackend), std::nullopt);
  expect_spec_error(std::string("rs(6,3)@exec=") + kRemovedBackend, "interp|lowered");
}

TEST(ExecBackendGrammar, RemovedExecutorKnobsAreSpecErrors) {
  // The deleted executor knobs fail loudly instead of being ignored: exec=auto
  // is a bad exec= value, threads= and prefetch= are unknown keys whose error
  // lists the valid ones.
  expect_spec_error("rs(6,3)@exec=auto", "exec must be interp|lowered, got \"auto\"");
  std::string valid;
  for (const std::string& k : spec_option_keys()) valid += (valid.empty() ? "" : ", ") + k;
  for (const char* spec : {"rs(6,3)@threads=2", "rs(6,3)@prefetch=1"}) {
    expect_spec_error(spec, "unknown option");
    expect_spec_error(spec, "(valid: " + valid + ")");
    EXPECT_THROW(make_codec(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(spec_option_keys().size(), 10u);
}

TEST(ExecBackendGrammar, RemovedSchedulerAndCalibrationKeysAreSpecErrors) {
  // The multilevel scheduler and the measured block=auto sweep are gone:
  // sched=multilevel is a bad sched= value, levels= an unknown key whose
  // error lists the 10 valid ones, and block= takes only a byte count.
  expect_spec_error("rs(6,3)@sched=multilevel",
                    "sched must be none|dfs|greedy, got \"multilevel\"");
  std::string valid;
  for (const std::string& k : spec_option_keys()) valid += (valid.empty() ? "" : ", ") + k;
  EXPECT_EQ(valid, "block, isa, exec, passes, sched, cap, cache, matrix, batch, warmup");
  expect_spec_error("rs(6,3)@levels=32:512", "unknown option \"levels\"");
  expect_spec_error("rs(6,3)@levels=32:512", "(valid: " + valid + ")");
  expect_spec_error("rs(6,3)@block=auto", "\"auto\" is not a non-negative integer");
  for (const char* spec : {"rs(6,3)@sched=multilevel", "rs(6,3)@levels=32:512",
                           "rs(6,3)@block=auto", "rs(6,3)@sched=multilevel,levels=32:512"})
    EXPECT_THROW(make_codec(spec), std::invalid_argument) << spec;
}

TEST(ExecBackendGrammar, ProfileNamingRemovedBackendIsSkippedAsOptionDrift) {
  // A profile saved while the removed backend (or the removed threads=,
  // sched=multilevel or block=auto spellings) existed still loads: those
  // codec records no longer parse, so warmup skips them like any other
  // stale option and the rest of the profile replays — the path is not
  // poisoned.
  const std::string path = ::testing::TempDir() + "xorec_exec_removed_backend.profile";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "xorec-plan-profile v1\n"
        << "codec rs(6,3)@exec=" << kRemovedBackend << " fp 1 2 3\n"
        << "pattern 0 | 1 2 3 4 5 6\n"
        << "codec rs(6,3)@threads=2 fp 1 2 3\n"
        << "pattern 0 | 1 2 3 4 5 6\n"
        << "codec rs(6,3)@sched=multilevel fp 1 2 3\n"
        << "pattern 0 | 1 2 3 4 5 6\n"
        << "codec rs(6,3)@block=auto fp 1 2 3\n"
        << "pattern 0 | 1 2 3 4 5 6\n"
        << "codec rs(6,3) fp 1 2 3\n"
        << "pattern 0 | 1 2 3 4 5 6\n";
  }
  const auto isolated = [] {
    CodecService::Options opt;
    opt.shards = 1;
    opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
    return opt;
  };
  {
    CodecService service(isolated());
    const CodecService::WarmupReport report = service.warmup(path);
    EXPECT_EQ(report.codecs, 1u);
    EXPECT_EQ(report.skipped, 4u);
  }
  CodecService service(isolated());
  ServiceHandle h = service.acquire("rs(6,3)@warmup=" + path);
  (void)h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_misses, 0u);
  std::remove(path.c_str());
}

TEST(ExecBackendForceIsa, OverrideClampsEveryResolution) {
  kernel::set_forced_isa_for_testing(kernel::Isa::Scalar);
  struct Restore {
    ~Restore() { kernel::set_forced_isa_for_testing(std::nullopt); }
  } restore;

  EXPECT_EQ(kernel::kernel_table(kernel::Isa::Auto).isa, kernel::Isa::Scalar);
  EXPECT_EQ(kernel::kernel_table(kernel::Isa::Avx2).isa, kernel::Isa::Scalar);

  // A codec built under the override runs (and reports) the forced kernels,
  // and stays byte-identical.
  const auto forced = make_codec("rs(6,3)@isa=avx2");
  EXPECT_EQ(forced->exec_info().isa, "scalar");
  const Stripe st = encoded_stripe(*forced, forced->fragment_multiple() * kOddStrip,
                                   /*seed=*/5);
  kernel::set_forced_isa_for_testing(std::nullopt);
  const auto ref = make_codec("rs(6,3)@isa=scalar,exec=interp");
  const Stripe ref_st = encoded_stripe(*ref, st.frag_len, /*seed=*/5);
  for (size_t f = 0; f < ref->total_fragments(); ++f)
    EXPECT_EQ(st.frags[f], ref_st.frags[f]) << "fragment " << f;
}

TEST(ExecBackendForceIsa, CacheKeyedOnResolvedIsa) {
  // rs(6,3)@isa=avx2 built first unforced, then under a forced ISA, over one
  // plan cache: the second codec must not be handed the encoder compiled
  // (and kernel-bound) for the first. The cache is fresh so no earlier test
  // can have filled it.
  ec::CodecOptions opt;
  opt.exec.isa = kernel::Isa::Avx2;
  opt.plan_cache = std::make_shared<ec::PlanCache>(64);
  const ec::RsCodec unforced(6, 3, opt);
  const Stripe ref = encoded_stripe(unforced, unforced.fragment_multiple() * kOddStrip,
                                    /*seed=*/9);

  kernel::set_forced_isa_for_testing(kernel::Isa::Scalar);
  struct Restore {
    ~Restore() { kernel::set_forced_isa_for_testing(std::nullopt); }
  } restore;
  const ec::RsCodec forced(6, 3, opt);
  EXPECT_EQ(forced.exec_info().isa, "scalar");
  const Stripe st = encoded_stripe(forced, ref.frag_len, /*seed=*/9);
  for (size_t f = 0; f < forced.total_fragments(); ++f)
    EXPECT_EQ(st.frags[f], ref.frags[f]) << "fragment " << f;
}

TEST(ExecBackendForceIsa, ForcedIsaDegradesToHost) {
  // Forcing an ISA the host cannot run degrades instead of crashing (the CI
  // force matrix relies on this to be host-agnostic).
  kernel::set_forced_isa_for_testing(kernel::Isa::Neon);
  struct Restore {
    ~Restore() { kernel::set_forced_isa_for_testing(std::nullopt); }
  } restore;
  const kernel::KernelTable& kt = kernel::kernel_table(kernel::Isa::Auto);
  if (kernel::cpu_has_neon())
    EXPECT_EQ(kt.isa, kernel::Isa::Neon);
  else
    EXPECT_EQ(kt.isa, kernel::Isa::Word64);
  // And the kernels still compute XOR.
  const uint8_t a[3] = {1, 2, 3}, b[3] = {4, 5, 6};
  uint8_t d[3] = {0, 0, 0};
  const uint8_t* srcs[2] = {a, b};
  kt.many(d, srcs, 2, 3);
  EXPECT_EQ(d[0], 5);
  EXPECT_EQ(d[1], 7);
  EXPECT_EQ(d[2], 5);
}

}  // namespace
}  // namespace xorec
