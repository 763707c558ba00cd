// The unified public API: spec parsing, the codec registry, the generic
// round-trip driver every family must pass, boundary validation, and
// ObjectCodec over non-RS codecs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "altcodes/xor_code.hpp"
#include "api/xorec.hpp"
#include "ec/object_codec.hpp"
#include "ec/rs_codec.hpp"

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

/// Erase `erased`, reconstruct through the generic interface, byte-compare.
void check_reconstruct(const Codec& codec, const std::vector<std::vector<uint8_t>>& frags,
                       const std::vector<uint32_t>& erased) {
  const size_t frag_len = frags[0].size();
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id = 0; id < codec.total_fragments(); ++id) {
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

std::string sanitize_spec_name(const std::string& spec) {
  std::string name;
  for (char c : spec)
    name += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  return name;
}

}  // namespace

// ---- the generic round-trip suite: every registered spec must pass --------

class RegistryRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(RegistryRoundTrip, EncodeEraseReconstruct) {
  const auto codec = make_codec(GetParam());
  const size_t n = codec->data_fragments(), p = codec->parity_fragments();
  const size_t frag_len = codec->fragment_multiple() * 24;
  const auto frags = random_cluster(*codec, frag_len, 0xC0DEC);

  // Single data loss, single parity loss.
  check_reconstruct(*codec, frags, {0});
  check_reconstruct(*codec, frags, {static_cast<uint32_t>(n)});

  // Maximum data-only loss.
  std::vector<uint32_t> data_loss;
  for (uint32_t i = 0; i < std::min(p, n); ++i) data_loss.push_back(i);
  check_reconstruct(*codec, frags, data_loss);

  // Parity-only loss (every parity).
  std::vector<uint32_t> parity_loss;
  for (uint32_t i = 0; i < p; ++i) parity_loss.push_back(static_cast<uint32_t>(n + i));
  check_reconstruct(*codec, frags, parity_loss);

  // Mixed data + parity loss.
  if (p >= 2) {
    std::vector<uint32_t> mixed{1, static_cast<uint32_t>(n + p - 1)};
    for (uint32_t i = 2; mixed.size() < p; ++i) mixed.push_back(i);
    std::sort(mixed.begin(), mixed.end());
    check_reconstruct(*codec, frags, mixed);
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, RegistryRoundTrip,
                         ::testing::Values("rs(6,3)", "rs(10,4)", "cauchy(12,3)",
                                           "vand(8,2)", "evenodd(6,2)", "evenodd(11)",
                                           "rdp(8)", "star(9)", "naive_xor(8)",
                                           "isal(10,4)", "rs16(6,3)",
                                           "rs(6,3)@block=512,isa=word64,passes=fuse",
                                           "rs(5,2)@block=1024,sched=greedy",
                                           "rs(10,4)@sched=greedy,cap=24",
                                           "rs(6,3)@sched=greedy,cap=24",
                                           "rs(6,3)@sched=greedy,cap=16",
                                           "rs(6,3)@cache=private",
                                           "cauchy(8,3)@sched=greedy,cap=24"),
                         [](const auto& info) { return sanitize_spec_name(info.param); });

// ---- spec parsing ----------------------------------------------------------

TEST(SpecParsing, ParsesFamilyArgsAndOptions) {
  const CodecSpec cs = parse_spec(" cauchy ( 12 , 3 ) @ block = 512 , isa = word64 ");
  EXPECT_EQ(cs.family, "cauchy");
  ASSERT_EQ(cs.args.size(), 2u);
  EXPECT_EQ(cs.args[0], 12u);
  EXPECT_EQ(cs.args[1], 3u);
  EXPECT_EQ(cs.options.exec.block_size, 512u);
  EXPECT_EQ(cs.options.exec.isa, kernel::Isa::Word64);
  EXPECT_EQ(cs.spec, "cauchy(12,3)@block=512,isa=word64");
}

TEST(SpecParsing, DefaultsAreUntouched) {
  const CodecSpec cs = parse_spec("rs(10,4)");
  const ec::CodecOptions defaults;
  EXPECT_EQ(cs.options.exec.block_size, defaults.exec.block_size);
  EXPECT_EQ(cs.options.pipeline.fuse, defaults.pipeline.fuse);
  EXPECT_EQ(cs.options.decode_cache_capacity, defaults.decode_cache_capacity);
}

TEST(SpecParsing, MalformedSpecsThrow) {
  for (const char* bad :
       {"", "(10,4)", "rs(", "rs(10,4", "rs(10,4))", "rs(10,4)x", "rs(ten,4)",
        "rs(10,4)@", "rs(10,4)@block", "rs(10,4)@=5", "rs(10,4)@bogus=1",
        "rs(10,4)@block=0", "rs(10,4)@isa=quantum", "rs(10,4)@passes=mystery",
        "rs(-1,4)", "rs(99999999999999999999,4)"}) {
    EXPECT_THROW(parse_spec(bad), std::invalid_argument) << "spec: " << bad;
  }
}

TEST(SpecParsing, SchedulerAndCacheKeyErrorsQuoteTheSpec) {
  // Every bad sched=/cap=/cache= value must throw AND name the offending
  // spec in the message (the documented fail() contract).
  for (const char* bad :
       {"rs(10,4)@sched=pebble",                       // unknown scheduler
        "rs(10,4)@sched=greedy,cap=1",                 // cap below the minimum
        "rs(10,4)@sched=greedy,cap=zero",              // cap not a number
        "rs(10,4)@cap=64",                             // cap without greedy
        "rs(10,4)@cap=32",                             // default cap without greedy
        "rs(10,4)@sched=dfs,cap=64",                   // cap with the wrong scheduler
        "rs(10,4)@sched=greedy,cap=32,passes=full",    // a later preset drops greedy
        "rs(10,4)@cache=maybe",                        // bad cache mode
        "naive_xor(8,4)@sched=greedy",                 // pipeline-less family
        "naive_xor(8,4)@cap=32"}) {
    try {
      make_codec(bad);
      FAIL() << "spec accepted: " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      // The message quotes the (whitespace-stripped) offending spec.
      EXPECT_NE(what.find(bad), std::string::npos) << "spec not quoted: " << what;
    }
  }
}

TEST(SpecParsing, SchedulerKeysLandInPipelineOptions) {
  const CodecSpec cs = parse_spec("rs(10,4)@sched=greedy,cap=24");
  EXPECT_EQ(cs.options.pipeline.schedule, slp::ScheduleKind::Greedy);
  EXPECT_EQ(cs.options.pipeline.greedy_capacity, 24u);

  const CodecSpec shared = parse_spec("rs(10,4)@cache=shared");
  EXPECT_TRUE(shared.options.shared_cache);
  const CodecSpec priv = parse_spec("rs(10,4)@cache=private");
  EXPECT_FALSE(priv.options.shared_cache);
  const CodecSpec sized = parse_spec("rs(10,4)@cache=64");
  EXPECT_FALSE(sized.options.shared_cache);
  EXPECT_EQ(sized.options.decode_cache_capacity, 64u);
}

TEST(Registry, UnknownFamilyAndBadArityThrow) {
  EXPECT_THROW(make_codec("bogus(3,2)"), std::invalid_argument);
  EXPECT_THROW(make_codec("rs()"), std::invalid_argument);
  EXPECT_THROW(make_codec("rs(1,2,3)"), std::invalid_argument);
  EXPECT_THROW(make_codec("rs(0,4)"), std::invalid_argument);
  EXPECT_THROW(make_codec("evenodd(6,3)"), std::invalid_argument);  // EVENODD has 2 parities
  EXPECT_THROW(make_codec("star(9,2)"), std::invalid_argument);     // STAR has 3
  EXPECT_THROW(make_codec("evenodd(0)"), std::invalid_argument);
  // isal has no SLP pipeline/executor: execution options must not silently
  // parse into nothing.
  EXPECT_THROW(make_codec("isal(10,4)@isa=avx2"), std::invalid_argument);
  EXPECT_THROW(make_codec("isal(10,4)@block=1024"), std::invalid_argument);
  EXPECT_NO_THROW(make_codec("isal(10,4)@matrix=cauchy"));
  // Registry geometry caps: fail fast instead of compiling astronomically
  // large SLPs / exhausting memory.
  EXPECT_THROW(make_codec("evenodd(100000)"), std::invalid_argument);
  EXPECT_THROW(make_codec("star(129)"), std::invalid_argument);
  EXPECT_THROW(make_codec("rs16(200,56)"), std::invalid_argument);
  // Inapplicable options are rejected, never silently ignored.
  EXPECT_THROW(make_codec("naive_xor(8,4)@passes=full"), std::invalid_argument);
  EXPECT_THROW(make_codec("naive_xor(8,4)@sched=dfs"), std::invalid_argument);
  EXPECT_THROW(make_codec("evenodd(6,2)@matrix=cauchy"), std::invalid_argument);
}

TEST(Registry, ListsBuiltinFamilies) {
  const auto families = registered_families();
  for (const char* want : {"rs", "vand", "cauchy", "evenodd", "rdp", "star", "rs16",
                           "naive_xor", "isal", "lrc"}) {
    EXPECT_NE(std::find(families.begin(), families.end(), want), families.end())
        << "missing family " << want;
  }
}

TEST(Registry, NamesRoundTripToEquivalentSpecs) {
  // matrix= is honored as an override, and naive_xor identifies itself as
  // the disabled-pipeline base — name() must not rebuild a different codec.
  EXPECT_EQ(make_codec("rs(10,4)")->name(), "rs(10,4)");
  EXPECT_EQ(make_codec("rs(6,3)@matrix=cauchy")->name(), "cauchy(6,3)");
  EXPECT_EQ(make_codec("naive_xor(8,4)")->name(), "rs(8,4)@passes=base");
  EXPECT_EQ(make_codec("rs(8,4)@passes=base")->name(), "rs(8,4)@passes=base");
  EXPECT_EQ(make_codec("rs(8,4)@passes=compress")->name(), "rs(8,4)@passes=compress");
  EXPECT_EQ(make_codec("rs(8,4)@passes=fuse")->name(), "rs(8,4)@passes=fuse");
  EXPECT_EQ(make_codec("rs(8,4)@sched=greedy")->name(), "rs(8,4)@sched=greedy");
  EXPECT_EQ(make_codec("rs(8,4)@sched=greedy,cap=64")->name(), "rs(8,4)@sched=greedy,cap=64");
  EXPECT_EQ(make_codec("rs(8,4)@sched=greedy,cap=32")->name(), "rs(8,4)@sched=greedy");
  EXPECT_EQ(make_codec("isal(10,4)@matrix=cauchy")->name(), "isal(10,4)@matrix=cauchy");
  EXPECT_EQ(make_codec("isal(10,4)")->name(), "isal(10,4)");
  EXPECT_THROW(make_codec("rs16(6,3)@matrix=vand"), std::invalid_argument);
}

TEST(Registry, ParityRepairWithAbsentDataThrowsInvalidArgument) {
  // Data fragment 0 is absent but not listed as erased: the parity-repair
  // path must reject with invalid_argument (the documented contract), not
  // logic_error, for both SLP and GF-table codecs.
  for (const char* spec : {"rs(4,2)", "isal(4,2)"}) {
    const auto codec = make_codec(spec);
    const size_t frag_len = codec->fragment_multiple() * 8;
    const auto frags = random_cluster(*codec, frag_len, 5);
    const std::vector<uint32_t> available{1, 2, 3, 5};
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id : available) avail_ptrs.push_back(frags[id].data());
    std::vector<uint8_t> out(frag_len);
    uint8_t* outp = out.data();
    EXPECT_THROW(codec->reconstruct(available, avail_ptrs.data(), {4}, &outp, frag_len),
                 std::invalid_argument)
        << spec;
  }
}

TEST(ObjectCodecGenericExtra, OversizedObjectSizeHeaderYieldsNullopt) {
  ec::ObjectCodec blobs(4, 2);
  std::vector<uint8_t> blob(1000, 0x11);
  auto enc = blobs.encode(blob.data(), blob.size());
  // Corrupt every header's object_size (bytes 12..19) to an absurd value.
  const uint64_t huge = uint64_t(1) << 40;
  for (auto& f : enc.fragments) std::memcpy(f.data() + 12, &huge, 8);
  std::optional<std::vector<uint8_t>> dec;
  EXPECT_NO_THROW(dec = blobs.decode(enc.fragments));
  EXPECT_FALSE(dec.has_value());
}

TEST(Registry, GeometryMatchesSpec) {
  EXPECT_EQ(make_codec("evenodd(11)")->data_fragments(), 11u);  // native prime layout
  EXPECT_EQ(make_codec("evenodd(6,2)")->data_fragments(), 6u);  // shortened
  EXPECT_EQ(make_codec("rdp(8)")->parity_fragments(), 2u);
  EXPECT_EQ(make_codec("star(9)")->parity_fragments(), 3u);
  EXPECT_EQ(make_codec("rs(7)")->parity_fragments(), 4u);   // p defaults to 4
  EXPECT_EQ(make_codec("rs16(6,3)")->fragment_multiple(), 16u);
  EXPECT_EQ(make_codec("isal(10,4)")->fragment_multiple(), 1u);
}

TEST(Registry, NaiveXorDisablesEveryPass) {
  const auto codec = make_codec("naive_xor(6,2)");
  const slp::PipelineResult* pipe = codec->encode_pipeline();
  ASSERT_NE(pipe, nullptr);
  EXPECT_FALSE(pipe->compressed.has_value());
  EXPECT_FALSE(pipe->fused.has_value());
}

TEST(Registry, CustomFamilyRegistration) {
  register_codec_family("test_mirror", [](const CodecSpec& cs) -> std::unique_ptr<Codec> {
    // A 2+1 flat XOR code: parity = a ^ b.
    altcodes::XorCodeSpec spec;
    spec.name = "test_mirror";
    spec.data_blocks = 2;
    spec.parity_blocks = 1;
    spec.strips_per_block = 1;
    spec.code = bitmatrix::BitMatrix(3, 2);
    spec.code.set(0, 0, true);
    spec.code.set(1, 1, true);
    spec.code.set(2, 0, true);
    spec.code.set(2, 1, true);
    return std::make_unique<altcodes::XorCodec>(std::move(spec), cs.options);
  });
  const auto codec = make_codec("test_mirror()");
  const auto frags = random_cluster(*codec, 64, 9);
  check_reconstruct(*codec, frags, {0});
  check_reconstruct(*codec, frags, {1});
  check_reconstruct(*codec, frags, {2});
}

TEST(Registry, SurvivorPolicyIsTheCodecsAuthority) {
  // The generic boundary checks ids, not survivor counts: whether a pattern
  // is recoverable is the codec's call (MDS codecs demand k survivors; XOR
  // codes defer to their F2 solver; future locally-repairable codes may
  // accept fewer). A 2+1 code whose single parity mirrors block 0:
  altcodes::XorCodeSpec spec;
  spec.name = "mirror0";
  spec.data_blocks = 2;
  spec.parity_blocks = 1;
  spec.strips_per_block = 1;
  spec.code = bitmatrix::BitMatrix(3, 2);
  spec.code.set(0, 0, true);
  spec.code.set(1, 1, true);
  spec.code.set(2, 0, true);  // parity = a
  const altcodes::XorCodec codec(std::move(spec));

  std::vector<uint8_t> a(64, 0x5A), b(64, 0x33), parity(64, 0);
  const uint8_t* data[] = {a.data(), b.data()};
  uint8_t* pptr = parity.data();
  codec.encode(data, &pptr, 64);
  ASSERT_EQ(parity, a);

  // Block 0 from its mirror (plus block 1, which the solver requires to be
  // present for any non-erased data block): recoverable.
  std::vector<uint8_t> rebuilt(64, 0);
  uint8_t* out = rebuilt.data();
  const std::vector<const uint8_t*> avail{b.data(), parity.data()};
  codec.reconstruct({1, 2}, avail.data(), {0}, &out, 64);
  EXPECT_EQ(rebuilt, a);

  // Block 1 has no parity coverage: the *solver* rejects the pattern with
  // invalid_argument — not a generic survivor-count gate.
  std::vector<uint8_t> rebuilt2(64, 0);
  uint8_t* outs2[] = {out, rebuilt2.data()};
  const uint8_t* just_parity = parity.data();
  EXPECT_THROW(codec.reconstruct({2}, &just_parity, {0, 1}, outs2, 64),
               std::invalid_argument);
}

// ---- boundary validation ---------------------------------------------------

class ApiValidation : public ::testing::Test {
 protected:
  void SetUp() override {
    codec_ = std::shared_ptr<const Codec>(make_codec("rs(4,2)"));
    frag_len_ = codec_->fragment_multiple() * 10;
    frags_ = random_cluster(*codec_, frag_len_, 77);
    for (const auto& f : frags_) ptrs_.push_back(f.data());
    out_.assign(frag_len_, 0);
    outp_ = out_.data();
  }

  std::shared_ptr<const Codec> codec_;
  size_t frag_len_ = 0;
  std::vector<std::vector<uint8_t>> frags_;
  std::vector<const uint8_t*> ptrs_;
  std::vector<uint8_t> out_;
  uint8_t* outp_ = nullptr;
};

TEST_F(ApiValidation, RejectsBadFragLen) {
  std::vector<const uint8_t*> data(ptrs_.begin(), ptrs_.begin() + 4);
  std::vector<uint8_t> p0(frag_len_), p1(frag_len_);
  std::vector<uint8_t*> parity{p0.data(), p1.data()};
  EXPECT_THROW(codec_->encode(data.data(), parity.data(), 0), std::invalid_argument);
  EXPECT_THROW(codec_->encode(data.data(), parity.data(), frag_len_ + 3),
               std::invalid_argument);
  EXPECT_THROW(codec_->reconstruct({0, 1, 2, 3}, ptrs_.data(), {4}, &outp_, 13),
               std::invalid_argument);
}

TEST_F(ApiValidation, RejectsOutOfRangeIds) {
  EXPECT_THROW(codec_->reconstruct({0, 1, 2, 99}, ptrs_.data(), {4}, &outp_, frag_len_),
               std::out_of_range);
  EXPECT_THROW(codec_->reconstruct({0, 1, 2, 3}, ptrs_.data(), {17}, &outp_, frag_len_),
               std::out_of_range);
}

TEST_F(ApiValidation, RejectsDuplicateAndOverlappingIds) {
  EXPECT_THROW(codec_->reconstruct({0, 1, 1, 3}, ptrs_.data(), {4}, &outp_, frag_len_),
               std::invalid_argument);
  std::vector<uint8_t> out2(frag_len_);
  std::vector<uint8_t*> outs{outp_, out2.data()};
  EXPECT_THROW(
      codec_->reconstruct({0, 1, 2, 3}, ptrs_.data(), {4, 4}, outs.data(), frag_len_),
      std::invalid_argument);
  EXPECT_THROW(codec_->reconstruct({0, 1, 2, 3}, ptrs_.data(), {3}, &outp_, frag_len_),
               std::invalid_argument);
}

TEST_F(ApiValidation, RejectsTooFewSurvivors) {
  EXPECT_THROW(codec_->reconstruct({0, 1, 2}, ptrs_.data(), {3}, &outp_, frag_len_),
               std::invalid_argument);
}

TEST_F(ApiValidation, SpanOverloadsCheckExtents) {
  std::vector<const uint8_t*> data(ptrs_.begin(), ptrs_.begin() + 4);
  std::vector<uint8_t> p0(frag_len_), p1(frag_len_);
  std::vector<uint8_t*> parity{p0.data(), p1.data()};
  EXPECT_NO_THROW(codec_->encode(std::span(data), std::span(parity), frag_len_));

  std::vector<const uint8_t*> short_data(data.begin(), data.begin() + 3);
  EXPECT_THROW(codec_->encode(std::span(short_data), std::span(parity), frag_len_),
               std::invalid_argument);

  const std::vector<uint32_t> available{0, 1, 2, 3};
  const std::vector<uint32_t> erased{4};
  std::vector<uint8_t*> outs{outp_};
  std::vector<const uint8_t*> avail(ptrs_.begin(), ptrs_.begin() + 3);  // too short
  EXPECT_THROW(codec_->reconstruct(std::span(available), std::span(avail),
                                   std::span(erased), std::span(outs), frag_len_),
               std::invalid_argument);
}

// ---- blob storage over non-RS codecs ---------------------------------------

class ObjectCodecGeneric : public ::testing::TestWithParam<const char*> {};

TEST_P(ObjectCodecGeneric, BlobRoundTripsThroughErasures) {
  ec::ObjectCodec blobs{std::shared_ptr<const Codec>(make_codec(GetParam()))};
  const size_t n = blobs.data_fragments(), p = blobs.parity_fragments();

  std::mt19937 rng(123);
  for (size_t size : {0u, 1u, 1000u, 100000u}) {
    std::vector<uint8_t> blob(size);
    for (auto& b : blob) b = static_cast<uint8_t>(rng());
    auto enc = blobs.encode(blob.data(), blob.size());
    ASSERT_EQ(enc.fragments.size(), n + p);

    // Lose the last data fragment and all but the first parity (p total
    // would also work; keep one data + one parity loss for every family).
    std::vector<std::vector<uint8_t>> survivors;
    for (size_t id = 0; id < n + p; ++id)
      if (id != n - 1 && id != n + p - 1) survivors.push_back(enc.fragments[id]);
    const auto dec = blobs.decode(survivors);
    ASSERT_TRUE(dec.has_value()) << "size " << size;
    EXPECT_EQ(*dec, blob) << "size " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(NonRsCodecs, ObjectCodecGeneric,
                         ::testing::Values("evenodd(6,2)", "rdp(8)", "star(9)",
                                           "rs16(6,3)"),
                         [](const auto& info) { return sanitize_spec_name(info.param); });

TEST(ObjectCodecGenericExtra, UnrecoverablePatternYieldsNulloptNotThrow) {
  // A non-MDS codec can reject a pattern even with >= n survivors; decode's
  // failure channel must stay nullopt. 2+1 code whose parity mirrors block 0:
  altcodes::XorCodeSpec spec;
  spec.name = "mirror0";
  spec.data_blocks = 2;
  spec.parity_blocks = 1;
  spec.strips_per_block = 1;
  spec.code = bitmatrix::BitMatrix(3, 2);
  spec.code.set(0, 0, true);
  spec.code.set(1, 1, true);
  spec.code.set(2, 0, true);  // parity = a; block 1 has no coverage
  ec::ObjectCodec blobs{std::make_shared<altcodes::XorCodec>(std::move(spec))};

  std::vector<uint8_t> blob(100, 0x42);
  auto enc = blobs.encode(blob.data(), blob.size());
  enc.fragments.erase(enc.fragments.begin() + 1);  // lose the uncovered block
  std::optional<std::vector<uint8_t>> dec;
  EXPECT_NO_THROW(dec = blobs.decode(enc.fragments));
  EXPECT_FALSE(dec.has_value());
}

TEST(ObjectCodecGenericExtra, RebuildAllOverEvenodd) {
  ec::ObjectCodec blobs{std::shared_ptr<const Codec>(make_codec("evenodd(6,2)"))};
  std::vector<uint8_t> blob(5000, 0xA5);
  auto enc = blobs.encode(blob.data(), blob.size());
  enc.fragments.erase(enc.fragments.begin() + 2);  // drop a data fragment
  const auto rebuilt = blobs.rebuild_all(enc.fragments);
  ASSERT_TRUE(rebuilt.has_value());
  EXPECT_EQ(rebuilt->fragments.size(), 8u);
  const auto dec = blobs.decode(rebuilt->fragments);
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, blob);
}

TEST(Autotune, MarginComparesAgainstTheIncumbentsOwnTime) {
  // Five candidates: each step is under 5% faster than the last, but the
  // fifth is 14% faster than the second. A rule that lowers the bar on every
  // near-miss keeps the first here, which is 16% slower than the fifth.
  EXPECT_EQ(pick_with_margin({10, 9.6, 9.2, 8.8, 8.6}, 0.05), 4u);
  // The worker-count sweep's 10% margin, same shape.
  EXPECT_EQ(pick_with_margin({10, 9.5, 9.0, 8.5}, 0.10), 3u);
  // Near-misses alone never displace the first candidate.
  EXPECT_EQ(pick_with_margin({10, 9.6, 9.7}, 0.05), 0u);
  EXPECT_EQ(pick_with_margin({10}, 0.05), 0u);
  // A clear win is kept even when later candidates are slower.
  EXPECT_EQ(pick_with_margin({10, 8, 9, 12}, 0.05), 1u);
}
