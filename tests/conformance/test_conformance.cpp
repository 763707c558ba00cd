// The registry-wide conformance suite (the [test] tentpole): every
// registered family is enumerated from the registry, every C(k+m, <= m)
// erasure pattern of its conformance shapes is checked differentially
// against the naive empirical reference, the locality/reduced-read claims
// (lrc, piggyback) are asserted on real compiled plans, and the new
// families are proven to serve warm plan-cache hits through CodecService.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "conformance/codec_conformance.hpp"
#include "ec/plan_cache.hpp"

using namespace xorec;
using namespace xorec::conformance;

namespace {

std::string tmp_path(const std::string& tag) {
  return ::testing::TempDir() + "xorec_conformance_" + tag + ".profile";
}

}  // namespace

// Every registered family must have conformance shapes, and every table
// entry must still name a registered family. Registering a new family
// without teaching the harness about it fails HERE, by name.
TEST(conformance, EveryRegisteredFamilyHasShapes) {
  const auto& table = conformance_table();
  for (const std::string& family : registered_families()) {
    if (test_fixture_family(family)) continue;  // runtime fixtures of other suites
    ASSERT_TRUE(table.count(family))
        << "family \"" << family << "\" is registered but has no conformance shapes — "
        << "add it to conformance_table() in tests/conformance/codec_conformance.hpp";
    ASSERT_FALSE(table.at(family).shapes.empty())
        << "family \"" << family << "\" has an empty shape list";
  }
  for (const auto& [family, fc] : table) {
    const auto families = registered_families();
    EXPECT_NE(std::find(families.begin(), families.end(), family), families.end())
        << "conformance_table() names unregistered family \"" << family << "\"";
    for (const ShapeCase& shape : fc.shapes)
      EXPECT_EQ(parse_spec(shape.spec).family, family)
          << "shape \"" << shape.spec << "\" filed under the wrong family";
  }
}

// The headline check: for every family the registry knows, every erasure
// pattern of up to m fragments either round-trips byte-identically (plan
// output == original payload == naive reference decode) or is rejected by
// BOTH the codec and the reference — and patterns within the family's
// guaranteed tolerance must round-trip unconditionally.
TEST(conformance, AllErasurePatternsRoundTripEveryFamily) {
  const auto& table = conformance_table();
  uint32_t seed = 0xC0FFEE;
  for (const std::string& family : registered_families()) {
    if (test_fixture_family(family)) continue;  // runtime fixtures of other suites
    ASSERT_TRUE(table.count(family)) << family;
    for (const ShapeCase& shape : table.at(family).shapes) {
      SCOPED_TRACE(shape.spec);
      const auto codec = make_codec(shape.spec);
      check_all_patterns(*codec, shape.guaranteed, seed++);
    }
  }
}

// MDS families guarantee tolerance == parity count; the harness data must
// say so, or the suite above would silently under-assert.
TEST(conformance, GuaranteedToleranceMatchesFamilyClaims) {
  const auto& table = conformance_table();
  for (const char* family : {"vand", "cauchy", "rs16", "evenodd", "rdp", "star",
                             "piggyback"}) {
    for (const ShapeCase& shape : table.at(family).shapes) {
      const auto codec = make_codec(shape.spec);
      EXPECT_EQ(shape.guaranteed, codec->parity_fragments())
          << shape.spec << " is MDS; the table must demand full tolerance";
    }
  }
  // The sparse shapes carry exactly what the rank checks certified.
  for (const ShapeCase& shape : table.at("sparse").shapes) {
    const auto args = parse_spec(shape.spec).args;
    EXPECT_EQ(shape.guaranteed,
              altcodes::sparse_certified_tolerance(args[0], args[1], args[2], args[3]))
        << shape.spec;
  }
}

// Locality claim (lrc): one lost data block repairs from its declared group
// alone — strictly fewer fragments than an MDS repair reads.
TEST(conformance, LocalityFamiliesRepairFromTheirGroup) {
  const auto& table = conformance_table();
  size_t claims = 0;
  for (const auto& [family, fc] : table) {
    if (!fc.local_group) continue;
    ++claims;
    for (const ShapeCase& shape : fc.shapes) {
      const auto codec = make_codec(shape.spec);
      const Stripe st = encoded_stripe(*codec, 0xBADA55);
      for (uint32_t b = 0; b < codec->data_fragments(); ++b) {
        SCOPED_TRACE(::testing::Message() << shape.spec << " block " << b);
        std::vector<uint32_t> group = fc.local_group(*codec, b);
        ASSERT_LT(group.size(), codec->data_fragments())
            << "locality group is not smaller than an MDS read";
        std::sort(group.begin(), group.end());
        std::vector<const uint8_t*> avail_ptrs;
        for (uint32_t id : group) avail_ptrs.push_back(st.frags[id].data());
        std::vector<uint8_t> out(st.frag_len, 0xCD);
        uint8_t* out_ptr = out.data();
        const auto plan = codec->plan_reconstruct(group, {b});
        plan->execute(avail_ptrs.data(), &out_ptr, st.frag_len);
        EXPECT_EQ(out, st.frags[b]);
      }
    }
  }
  EXPECT_GE(claims, 1u) << "lrc must carry a locality claim";
}

// Reduced-read claim (piggyback): with every other fragment available, the
// compiled single-block repair plan touches no more input strips than the
// design's read set — strictly fewer than the k*w a plain RS repair reads
// (the piggybacking win) whenever the shape has spare carrier parities.
TEST(conformance, ReducedReadFamiliesTouchFewerStrips) {
  const auto& table = conformance_table();
  size_t claims = 0;
  for (const auto& [family, fc] : table) {
    if (!fc.repair_read_bound) continue;
    ++claims;
    for (const ShapeCase& shape : fc.shapes) {
      const auto codec = make_codec(shape.spec);
      const size_t naive_reads = codec->data_fragments() * codec->fragment_multiple();
      for (uint32_t b = 0; b < codec->data_fragments(); ++b) {
        SCOPED_TRACE(::testing::Message() << shape.spec << " block " << b);
        const auto plan = codec->plan_reconstruct(all_but(*codec, {b}), {b});
        const size_t touched = plan_touched_input_strips(*plan);
        const size_t bound = fc.repair_read_bound(*codec, b);
        EXPECT_GT(touched, 0u);
        EXPECT_LE(touched, bound) << "plan reads beyond the designed repair set";
        EXPECT_LT(bound, naive_reads) << "designed repair set is not reduced-read";
      }
    }
  }
  EXPECT_GE(claims, 1u) << "piggyback must carry a reduced-read claim";
}

// Acceptance: both new families serve warm plan-cache hits through
// CodecService — profile save -> fresh service -> warmup replay -> every
// serving-window lookup is a hit.
TEST(conformance, NewFamiliesServeWarmPlanCacheHitsThroughService) {
  for (const std::string spec : {"piggyback(6,3,2)", "sparse(6,3,90,1)"}) {
    SCOPED_TRACE(spec);
    const std::string path = tmp_path(spec.substr(0, spec.find('(')));
    std::remove(path.c_str());

    const std::vector<std::vector<uint32_t>> patterns{{0}, {1, 2}, {0, 7}};
    {
      CodecService::Options opt;
      opt.shards = 2;
      opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
      CodecService cold(opt);
      const ServiceHandle h = cold.acquire(spec);
      for (const auto& erased : patterns)
        EXPECT_NO_THROW((void)h.plan_reconstruct(all_but(h.codec(), erased), erased));
      EXPECT_GT(cold.save_profile(path), 0u);
      const ServiceStats s = cold.stats();
      EXPECT_GT(s.warm_misses, 0u) << "cold service should have compiled in-window";
    }
    {
      CodecService::Options opt;
      opt.shards = 2;
      opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
      CodecService warmed(opt);
      const auto report = warmed.warmup(path);
      EXPECT_EQ(report.codecs, 1u);
      EXPECT_GE(report.patterns, patterns.size());
      EXPECT_GT(report.compiled, 0u) << "warmup should precompile the saved patterns";
      EXPECT_EQ(report.skipped, 0u);

      const ServiceHandle h = warmed.acquire(spec);
      for (const auto& erased : patterns)
        (void)h.plan_reconstruct(all_but(h.codec(), erased), erased);
      const ServiceStats s = warmed.stats();
      EXPECT_GT(s.warm_hits, 0u);
      EXPECT_EQ(s.warm_misses, 0u) << "a warmed service must not compile while serving";
      EXPECT_EQ(s.warm_hit_rate(), 1.0);
      EXPECT_GT(h.codec().cached_program_count(), 0u);
    }
    std::remove(path.c_str());
  }
}

// Canonical-spec normalization of the new families: default-able trailing
// args are filled, spellings pool together, names round-trip.
TEST(conformance, NewFamilySpecsNormalizeAndRoundTrip) {
  EXPECT_EQ(canonical_spec("piggyback(10,3)"), "piggyback(10,3,2)");
  EXPECT_EQ(canonical_spec("piggyback(6,3,2)@block=2048"), "piggyback(6,3,2)");
  EXPECT_EQ(canonical_spec("sparse(8,3,30)"), "sparse(8,3,30,1)");
  EXPECT_EQ(canonical_spec("sparse(6,3,90,1)@exec=lowered"), "sparse(6,3,90,1)");

  for (const char* spec : {"piggyback(6,3,2)", "sparse(6,3,90,1)"}) {
    const auto codec = make_codec(spec);
    EXPECT_EQ(codec->name(), spec);
    EXPECT_NO_THROW((void)make_codec(codec->name()));
  }

  EXPECT_THROW((void)make_codec("piggyback(6)"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("piggyback(6,1,2)"), std::invalid_argument);  // m < 2
  EXPECT_THROW((void)make_codec("piggyback(6,3,4)"), std::invalid_argument);  // sub > m
  EXPECT_THROW((void)make_codec("piggyback(6,3,1)"), std::invalid_argument);  // sub < 2
  EXPECT_THROW((void)make_codec("piggyback(200,60,2)"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("piggyback(6,3,2)@matrix=cauchy"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("sparse(6,3)"), std::invalid_argument);  // arity
  EXPECT_THROW((void)make_codec("sparse(6,3,0)"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("sparse(6,3,101)"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("sparse(0,3,50)"), std::invalid_argument);
  EXPECT_THROW((void)make_codec("sparse(6,3,50,1)@matrix=vand"), std::invalid_argument);
}

// The empirical reference model itself: it must detect the strip-XOR
// structure of the bitmatrix codecs and the byte-GF structure of isal.
TEST(conformance, ReferenceModelDetectsCodecStructure) {
  EXPECT_TRUE(ReferenceModel(*make_codec("rs(5,2)")).strip_model());
  EXPECT_TRUE(ReferenceModel(*make_codec("evenodd(4)")).strip_model());
  EXPECT_TRUE(ReferenceModel(*make_codec("piggyback(5,3,2)")).strip_model());
  EXPECT_FALSE(ReferenceModel(*make_codec("isal(5,2)")).strip_model());
}
