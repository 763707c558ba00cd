// The plan/execute data plane: Codec::plan_reconstruct over every
// registered family — byte-identity with one-shot reconstruct() across
// multiple erasure patterns, plan reuse across >= 100 stripes,
// introspection (xor_count / schedule_stats / decode_pipeline), plan-time
// validation, and codec-independent plan lifetime.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "api/xorec.hpp"
#include "slp/pipeline.hpp"

using namespace xorec;

namespace {

std::vector<std::vector<uint8_t>> random_cluster(const Codec& codec, size_t frag_len,
                                                 uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<std::vector<uint8_t>> frags(codec.total_fragments(),
                                          std::vector<uint8_t>(frag_len));
  for (size_t i = 0; i < codec.data_fragments(); ++i)
    for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < codec.data_fragments(); ++i) data.push_back(frags[i].data());
  for (size_t i = 0; i < codec.parity_fragments(); ++i)
    parity.push_back(frags[codec.data_fragments() + i].data());
  codec.encode(data.data(), parity.data(), frag_len);
  return frags;
}

std::vector<uint32_t> survivors_of(const Codec& codec, const std::vector<uint32_t>& erased) {
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec.total_fragments(); ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end())
      available.push_back(id);
  return available;
}

/// One-shot reconstruct and plan execute must both rebuild `erased`
/// byte-identically from the same survivors.
void check_plan_matches_oneshot(const Codec& codec,
                                const std::vector<std::vector<uint8_t>>& frags,
                                const std::vector<uint32_t>& erased) {
  const size_t frag_len = frags[0].size();
  const std::vector<uint32_t> available = survivors_of(codec, erased);
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());

  std::vector<std::vector<uint8_t>> direct(erased.size(),
                                           std::vector<uint8_t>(frag_len, 0xAA));
  std::vector<uint8_t*> direct_ptrs;
  for (auto& d : direct) direct_ptrs.push_back(d.data());
  codec.reconstruct(available, avail_ptrs.data(), erased, direct_ptrs.data(), frag_len);

  const auto plan = codec.plan_reconstruct(available, erased);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->available(), available);
  EXPECT_EQ(plan->erased(), erased);
  std::vector<std::vector<uint8_t>> planned(erased.size(),
                                            std::vector<uint8_t>(frag_len, 0x55));
  std::vector<uint8_t*> planned_ptrs;
  for (auto& p : planned) planned_ptrs.push_back(p.data());
  plan->execute(avail_ptrs.data(), planned_ptrs.data(), frag_len);

  for (size_t i = 0; i < erased.size(); ++i) {
    ASSERT_EQ(direct[i], frags[erased[i]]) << "one-shot fragment " << erased[i];
    ASSERT_EQ(planned[i], frags[erased[i]]) << "planned fragment " << erased[i];
  }
}

std::string sanitize_spec_name(const std::string& spec) {
  std::string name;
  for (char c : spec)
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

}  // namespace

class PlanEveryFamily : public ::testing::TestWithParam<const char*> {};

TEST_P(PlanEveryFamily, PlanMatchesOneShotAcrossPatterns) {
  const auto codec = make_codec(GetParam());
  const size_t n = codec->data_fragments(), p = codec->parity_fragments();
  const size_t frag_len = codec->fragment_multiple() * 24;
  const auto frags = random_cluster(*codec, frag_len, 0xF00D);

  // >= 3 erasure patterns per family: lone data, lone parity, maximum
  // data-only loss, and (p >= 2) a data + parity mix.
  check_plan_matches_oneshot(*codec, frags, {0});
  check_plan_matches_oneshot(*codec, frags, {static_cast<uint32_t>(n)});
  std::vector<uint32_t> data_loss;
  for (uint32_t i = 0; i < std::min(p, n); ++i) data_loss.push_back(i);
  check_plan_matches_oneshot(*codec, frags, data_loss);
  if (p >= 2) {
    check_plan_matches_oneshot(*codec, frags,
                               {1, static_cast<uint32_t>(n + p - 1)});
  }
}

TEST_P(PlanEveryFamily, OnePlanServes128Stripes) {
  const auto codec = make_codec(GetParam());
  const size_t n = codec->data_fragments(), p = codec->parity_fragments();
  const size_t frag_len = codec->fragment_multiple() * 16;
  const std::vector<uint32_t> erased =
      p >= 2 ? std::vector<uint32_t>{0, static_cast<uint32_t>(n)}
             : std::vector<uint32_t>{0};
  const std::vector<uint32_t> available = survivors_of(*codec, erased);

  std::shared_ptr<const ReconstructPlan> plan;  // solved once, reused 128x
  for (uint32_t stripe = 0; stripe < 128; ++stripe) {
    const auto frags = random_cluster(*codec, frag_len, 0xBEEF + stripe);
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());

    if (!plan) plan = codec->plan_reconstruct(available, erased);
    std::vector<std::vector<uint8_t>> planned(erased.size(),
                                              std::vector<uint8_t>(frag_len));
    std::vector<uint8_t*> planned_ptrs;
    for (auto& x : planned) planned_ptrs.push_back(x.data());
    plan->execute(avail_ptrs.data(), planned_ptrs.data(), frag_len);

    std::vector<std::vector<uint8_t>> direct(erased.size(),
                                             std::vector<uint8_t>(frag_len));
    std::vector<uint8_t*> direct_ptrs;
    for (auto& x : direct) direct_ptrs.push_back(x.data());
    codec->reconstruct(available, avail_ptrs.data(), erased, direct_ptrs.data(), frag_len);

    for (size_t i = 0; i < erased.size(); ++i) {
      ASSERT_EQ(planned[i], frags[erased[i]]) << "stripe " << stripe;
      ASSERT_EQ(planned[i], direct[i]) << "stripe " << stripe;
    }
  }
}

TEST_P(PlanEveryFamily, IntrospectionMatchesEngineKind) {
  const auto codec = make_codec(GetParam());
  const std::vector<uint32_t> erased{0};
  const auto plan = codec->plan_reconstruct(survivors_of(*codec, erased), erased);
  const bool slp_engine = codec->encode_pipeline() != nullptr;
  if (slp_engine) {
    // Bitmatrix codecs report real XOR counts and expose the decode pipeline.
    EXPECT_GT(plan->xor_count(), 0u) << codec->name();
    EXPECT_EQ(plan->schedule_stats().steps, 1u);
    EXPECT_NE(plan->decode_pipeline(), nullptr);
  } else {
    // The GF-table baseline is not an XOR SLP: stats stay zero by contract.
    EXPECT_EQ(plan->xor_count(), 0u) << codec->name();
    EXPECT_EQ(plan->decode_pipeline(), nullptr);
  }

  // A parity-only pattern has no data-decode pipeline.
  const std::vector<uint32_t> parity_only{
      static_cast<uint32_t>(codec->data_fragments())};
  const auto pplan =
      codec->plan_reconstruct(survivors_of(*codec, parity_only), parity_only);
  EXPECT_EQ(pplan->decode_pipeline(), nullptr);
  if (slp_engine) EXPECT_GT(pplan->xor_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Specs, PlanEveryFamily,
                         ::testing::Values("rs(6,3)", "vand(6,2)", "cauchy(6,3)",
                                           "rs16(5,2)", "evenodd(6,2)", "rdp(6)",
                                           "star(7)", "naive_xor(6,2)", "isal(6,3)"),
                         [](const auto& info) { return sanitize_spec_name(info.param); });

// ---- lifetime --------------------------------------------------------------

TEST(Plan, OutlivesItsCodec) {
  // Built-in plans are self-contained: co-own the compiled programs, copy
  // the maps — destroying the codec must not invalidate them.
  for (const char* spec : {"rs(5,2)", "evenodd(5,2)", "isal(5,2)"}) {
    auto codec = std::shared_ptr<const Codec>(make_codec(spec));
    const size_t frag_len = codec->fragment_multiple() * 8;
    const auto frags = random_cluster(*codec, frag_len, 31);
    const std::vector<uint32_t> erased{0};
    const auto available = survivors_of(*codec, erased);
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());

    auto plan = codec->plan_reconstruct(available, erased);
    codec.reset();  // the plan is now the only thing left

    std::vector<uint8_t> out(frag_len, 0);
    uint8_t* outp = out.data();
    plan->execute(avail_ptrs.data(), &outp, frag_len);
    EXPECT_EQ(out, frags[0]) << spec;
  }
}

// ---- plan-time validation --------------------------------------------------

TEST(Plan, ValidationHappensAtPlanTime) {
  const auto codec = make_codec("rs(4,2)");
  // Unrecoverable pattern: fewer than n survivors.
  EXPECT_THROW(codec->plan_reconstruct({0, 1, 2}, {3}), std::invalid_argument);
  // Overlapping / out-of-range ids.
  EXPECT_THROW(codec->plan_reconstruct({0, 1, 2, 3}, {3}), std::invalid_argument);
  EXPECT_THROW(codec->plan_reconstruct({0, 1, 2, 99}, {4}), std::out_of_range);
  // Parity repair with a data fragment neither available nor erased.
  EXPECT_THROW(codec->plan_reconstruct({1, 2, 3, 5}, {4}), std::invalid_argument);
  // Same contract for the GF-table engine.
  const auto isal = make_codec("isal(4,2)");
  EXPECT_THROW(isal->plan_reconstruct({0, 1, 2}, {3}), std::invalid_argument);
  EXPECT_THROW(isal->plan_reconstruct({1, 2, 3, 5}, {4}), std::invalid_argument);
}

TEST(Plan, ExecuteValidatesFragLenAndEmptyErasedIsNoop) {
  const auto codec = make_codec("rs(4,2)");
  const size_t frag_len = codec->fragment_multiple() * 8;
  const auto frags = random_cluster(*codec, frag_len, 7);
  const std::vector<uint32_t> erased{4};
  const auto available = survivors_of(*codec, erased);
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());
  const auto plan = codec->plan_reconstruct(available, erased);

  std::vector<uint8_t> out(frag_len, 0);
  uint8_t* outp = out.data();
  EXPECT_THROW(plan->execute(avail_ptrs.data(), &outp, 0), std::invalid_argument);
  EXPECT_THROW(plan->execute(avail_ptrs.data(), &outp, frag_len + 3),
               std::invalid_argument);
  // frag_len may legitimately vary call to call (geometry-, not
  // length-bound): half the length must still match a direct reconstruct.
  const size_t half = frag_len / 2;
  if (half > 0 && half % codec->fragment_multiple() == 0) {
    plan->execute(avail_ptrs.data(), &outp, half);
    std::vector<uint8_t> direct(half);
    uint8_t* directp = direct.data();
    codec->reconstruct(available, avail_ptrs.data(), erased, &directp, half);
    EXPECT_TRUE(std::equal(direct.begin(), direct.end(), out.begin()));
  }

  // Empty erased: legal plan, execute is a no-op.
  const auto noop = codec->plan_reconstruct(available, {});
  EXPECT_NO_THROW(noop->execute(avail_ptrs.data(), nullptr, frag_len));
}

// ---- base-class fallback ---------------------------------------------------

namespace {

/// A deliberately plan-less codec: 2+1 XOR mirror that only implements the
/// one-shot hooks, to exercise the ReconstructPlan fallback path.
class TinyMirrorCodec : public Codec {
 public:
  size_t data_fragments() const override { return 2; }
  size_t parity_fragments() const override { return 1; }
  size_t fragment_multiple() const override { return 1; }
  std::string name() const override { return "tiny_mirror"; }

 protected:
  void encode_impl(const uint8_t* const* data, uint8_t* const* parity,
                   size_t frag_len) const override {
    for (size_t b = 0; b < frag_len; ++b) parity[0][b] = data[0][b] ^ data[1][b];
  }
  void reconstruct_impl(const std::vector<uint32_t>& available,
                        const uint8_t* const* available_frags,
                        const std::vector<uint32_t>& erased, uint8_t* const* out,
                        size_t frag_len) const override {
    if (erased.size() != 1 || available.size() != 2)
      throw std::invalid_argument("tiny_mirror: exactly one erasure supported");
    for (size_t b = 0; b < frag_len; ++b)
      out[0][b] = available_frags[0][b] ^ available_frags[1][b];
  }
};

}  // namespace

TEST(Plan, FallbackPlanCoversPlanlessCodecs) {
  TinyMirrorCodec codec;
  std::vector<uint8_t> a(32, 0x5A), b(32, 0x33), parity(32, 0);
  const uint8_t* data[] = {a.data(), b.data()};
  uint8_t* pptr = parity.data();
  codec.encode(data, &pptr, 32);

  const auto plan = codec.plan_reconstruct({1, 2}, {0});
  EXPECT_EQ(plan->xor_count(), 0u);  // fallback: no compiled program
  std::vector<uint8_t> out(32, 0);
  uint8_t* outp = out.data();
  const uint8_t* avail[] = {b.data(), parity.data()};
  plan->execute(avail, &outp, 32);
  EXPECT_EQ(out, a);
}

// ---- read sets (repair traffic) --------------------------------------------

TEST(PlanReadSet, RsSingleRepairReadsKFullFragments) {
  const auto codec = make_codec("rs(6,3)");
  const uint32_t w = static_cast<uint32_t>(codec->fragment_multiple());
  const auto plan = codec->plan_reconstruct(survivors_of(*codec, {0}), {0});
  const PlanReadSet& reads = plan->read_set();
  // Plain RS decodes from exactly k survivors, every strip of each.
  EXPECT_EQ(reads.fragments.size(), codec->data_fragments());
  EXPECT_TRUE(std::is_sorted(reads.fragments.begin(), reads.fragments.end()));
  ASSERT_EQ(reads.fragment_strips.size(), reads.fragments.size());
  for (uint32_t strips : reads.fragment_strips) EXPECT_EQ(strips, w);
  EXPECT_EQ(reads.strips, codec->data_fragments() * w);
  // Every read fragment is one of the plan's survivors.
  for (uint32_t f : reads.fragments)
    EXPECT_TRUE(std::find(plan->available().begin(), plan->available().end(), f) !=
                plan->available().end());
}

TEST(PlanReadSet, ParityRepairReadsTheDataFragments) {
  const auto codec = make_codec("rs(6,3)");
  const uint32_t parity_id = 6;
  const auto plan =
      codec->plan_reconstruct(survivors_of(*codec, {parity_id}), {parity_id});
  const PlanReadSet& reads = plan->read_set();
  // Re-encoding a parity reads exactly the k data fragments, never itself.
  const std::vector<uint32_t> expect{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(reads.fragments, expect);
  EXPECT_EQ(reads.strips, codec->data_fragments() * codec->fragment_multiple());
}

TEST(PlanReadSet, LrcSingleRepairStaysInsideTheGroup) {
  // lrc(6,2,2): 6 data in 2 groups of 3, one local parity each + 2 globals.
  // Repairing one data block must read only its group (2 siblings + local),
  // not the k fragments plain RS would.
  const auto lrc = make_codec("lrc(6,2,2)");
  const uint32_t w = static_cast<uint32_t>(lrc->fragment_multiple());
  const auto plan = lrc->plan_reconstruct(survivors_of(*lrc, {0}), {0});
  const PlanReadSet& reads = plan->read_set();
  EXPECT_LE(reads.fragments.size(), 3u);
  EXPECT_LT(reads.strips, lrc->data_fragments() * w);
  EXPECT_GT(reads.strips, 0u);
}

TEST(PlanReadSet, PiggybackSingleRepairReadsFewerStripsThanRs) {
  // piggyback(6,4,2) embeds sub-stripe piggybacks: single-block repair reads
  // strictly fewer strips than the k full fragments an MDS decode needs.
  const auto pb = make_codec("piggyback(6,4,2)");
  const uint32_t w = static_cast<uint32_t>(pb->fragment_multiple());
  const auto plan = pb->plan_reconstruct(survivors_of(*pb, {0}), {0});
  const PlanReadSet& reads = plan->read_set();
  EXPECT_LT(reads.strips, pb->data_fragments() * w);
  EXPECT_GT(reads.strips, 0u);
  // Partial-fragment reads are the point: at least one survivor contributes
  // fewer than all of its strips.
  EXPECT_TRUE(std::any_of(reads.fragment_strips.begin(), reads.fragment_strips.end(),
                          [&](uint32_t s) { return s < w; }));
}

TEST(PlanReadSet, FallbackChargesEverySurvivorInFull) {
  TinyMirrorCodec codec;
  const auto plan = codec.plan_reconstruct({1, 2}, {0});
  const PlanReadSet& reads = plan->read_set();
  const std::vector<uint32_t> expect{1, 2};
  EXPECT_EQ(reads.fragments, expect);  // no compiled program: assume all reads
  EXPECT_EQ(reads.strips, 2u);
  EXPECT_EQ(plan->fragment_multiple(), 1u);
}

TEST(PlanReadSet, EmptyErasedReadsNothing) {
  const auto codec = make_codec("rs(4,2)");
  const auto plan = codec->plan_reconstruct({0, 1, 2, 3}, {});
  EXPECT_TRUE(plan->read_set().fragments.empty());
  EXPECT_EQ(plan->read_set().strips, 0u);
}

// ---- read sets, pinned ------------------------------------------------------

namespace {

/// Every nonempty erasure set of at most `max_erased` of `n` fragments, in
/// bitmask order.
std::vector<std::vector<uint32_t>> erasure_sets(uint32_t n, size_t max_erased) {
  std::vector<std::vector<uint32_t>> sets;
  for (uint32_t mask = 1; mask < (1u << n); ++mask) {
    std::vector<uint32_t> erased;
    for (uint32_t id = 0; id < n; ++id)
      if (mask >> id & 1) erased.push_back(id);
    if (erased.size() <= max_erased) sets.push_back(std::move(erased));
  }
  return sets;
}

/// The 16 Zipf-ranked rs(10,4) erasure patterns of the ledger's
/// degraded_read_64k workload (ledger/workload.cpp make_patterns): rank 0 is
/// the paper's {2,4,5,6}, rank r >= 1 erases 1 + (r-1) % 4 of the 14.
std::vector<std::vector<uint32_t>> ledger_patterns() {
  constexpr uint32_t kN = 14, kM = 4;
  std::mt19937_64 rng(0x7061747465726e73ull);
  std::vector<std::vector<uint32_t>> sets = {{2, 4, 5, 6}};
  while (sets.size() < 16) {
    std::vector<uint32_t> ids(kN);
    for (uint32_t i = 0; i < kN; ++i) ids[i] = i;
    for (uint32_t i = kN - 1; i > 0; --i) std::swap(ids[i], ids[rng() % (i + 1)]);
    ids.resize(1 + (sets.size() - 1) % kM);
    std::sort(ids.begin(), ids.end());
    if (std::find(sets.begin(), sets.end(), ids) == sets.end()) sets.push_back(ids);
  }
  return sets;
}

uint64_t fnv_word(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ull; }

struct ReadSetDigest {
  uint64_t digest = 0xcbf29ce484222325ull;
  size_t decodable = 0;
};

/// Plans every pattern on `codec` and hashes each read set's (fragments,
/// fragment_strips, strips); a pattern the codec cannot plan hashes as a
/// marker, so the decodable set is pinned too.
ReadSetDigest digest_read_sets(const Codec& codec,
                               const std::vector<std::vector<uint32_t>>& patterns) {
  ReadSetDigest d;
  for (const auto& erased : patterns) {
    for (uint32_t id : erased) d.digest = fnv_word(d.digest, id);
    std::shared_ptr<const ReconstructPlan> plan;
    try {
      plan = codec.plan_reconstruct(survivors_of(codec, erased), erased);
    } catch (const std::exception&) {
      d.digest = fnv_word(d.digest, ~uint64_t{0});
      continue;
    }
    ++d.decodable;
    const PlanReadSet& reads = plan->read_set();
    for (uint32_t f : reads.fragments) d.digest = fnv_word(d.digest, f);
    for (uint32_t s : reads.fragment_strips) d.digest = fnv_word(d.digest, s);
    d.digest = fnv_word(d.digest, reads.strips);
  }
  return d;
}

}  // namespace

TEST(PlanReadSet, UnchangedOnEveryPattern) {
  // Digests of the read sets computed by the full scan of each flat base
  // SLP, before read sets came from CompiledProgram::const_reads. A change
  // here changes repair-traffic counters and the cluster's plan choice.
  struct Case {
    const char* spec;
    bool ledger;  // the ledger's 16 patterns instead of every erasure set
    size_t decodable;
    uint64_t digest;
  };
  // Read sets come from the flat base SLP and the recovery plan alone, not
  // from the optimizer passes: piggyback(6,4,2) runs passes=base, since its
  // 385 full-pipeline compiles take seconds (its digest under the default
  // passes is the same).
  const Case cases[] = {
      {"rs(6,3)", false, 129, 0x29bf111b8bef74f2ull},
      {"lrc(6,2,2)", false, 355, 0x8388fc6781f91498ull},
      {"piggyback(6,4,2)@passes=base", false, 385, 0xbee52f424ad973caull},
      {"rs(10,4)@block=1024", true, 16, 0xb434299b9aa8dff8ull},
  };
  for (const Case& c : cases) {
    CodecSpec spec = parse_spec(c.spec);
    spec.options.plan_cache = std::make_shared<ec::PlanCache>(0, 1);
    const auto codec = make_codec(spec);
    const auto patterns = c.ledger ? ledger_patterns()
                                   : erasure_sets(static_cast<uint32_t>(
                                                      codec->total_fragments()),
                                                  codec->parity_fragments());
    const ReadSetDigest d = digest_read_sets(*codec, patterns);
    EXPECT_EQ(d.decodable, c.decodable) << c.spec;
    EXPECT_EQ(d.digest, c.digest) << c.spec << std::hex << " digest 0x" << d.digest;

    // Every program the codec compiled carries the constant set of its
    // base SLP, recomputed here by a full scan.
    const PlanFootprint fp = codec->plan_footprint();
    EXPECT_GT(fp.patterns.size(), 0u) << c.spec;
    for (const auto& pattern : fp.patterns) {
      const auto prog = spec.options.plan_cache->get_or_build(
          {fp.matrix_fp, fp.matrix_fp2, fp.config_fp, pattern},
          []() -> std::shared_ptr<ec::CompiledProgram> {
            ADD_FAILURE() << "footprint pattern missing from the cache";
            return nullptr;
          });
      ASSERT_NE(prog, nullptr) << c.spec;
      std::vector<uint32_t> expect;
      for (const slp::Instruction& ins : prog->pipeline.base.body)
        for (const slp::Term& t : ins.args)
          if (t.is_const()) expect.push_back(t.id);
      std::sort(expect.begin(), expect.end());
      expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
      EXPECT_EQ(prog->const_reads, expect) << c.spec;
    }
  }
}
