// The wire protocol's attacker-facing boundary: every header field must
// round-trip bit-exactly, and every malformed input — truncated, garbled,
// oversized lengths, corrupt CRCs, wrong magic — must be REJECTED by
// decode_* without sizing any allocation from attacker-controlled bytes
// (decode is allocation-free by contract; these tests run under ASan+UBSan
// in the sanitizer CI job, so any over-read of the hostile buffers is
// caught, not just wrong answers). A seeded deterministic fuzz loop flips
// bytes at every position and accepts any verdict except a crash or a
// false Ok.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "kernel/xor_kernel.hpp"
#include "net/frame.hpp"

using namespace xorec::net;

namespace {

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A fully-populated valid frame (2 payloads of 16 bytes) for mutation.
std::vector<uint8_t> sample_frame(FrameHeader* header_out = nullptr) {
  FrameHeader h;
  h.type = FrameType::ReconstructRequest;
  h.request_id = 0x0123456789abcdefull;
  h.k = 6;
  h.m = 4;
  h.frag_len = 16;
  h.present_bitmap = 0b0000110;  // ids 1, 2
  h.erased_bitmap = 0b0001000;   // id 3
  h.spec_len = 7;
  h.payload_count = 2;
  std::vector<uint8_t> a(16, 0xAA), b(16, 0xBB);
  const uint8_t* payloads[] = {a.data(), b.data()};
  if (header_out) *header_out = h;
  return build_frame(h, "rs(6,4)", payloads);
}

}  // namespace

// ---- round trips -------------------------------------------------------------

TEST(NetFrame, HeaderRoundTripsEveryField) {
  FrameHeader h;
  h.version = wire::kVersion;
  h.type = FrameType::Response;
  h.request_id = 0xfeedfacecafebeefull;
  h.k = 12;
  h.m = 4;
  h.frag_len = 4096;
  h.erased_bitmap = 0x8001;
  h.present_bitmap = 0x7ffe;
  h.spec_len = 9;
  h.payload_count = 14;
  h.body_crc = 0xdeadbeef;

  uint8_t buf[wire::kFrameHeaderSize];
  encode_frame_header(h, buf);
  FrameHeader d;
  ASSERT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Ok);
  EXPECT_EQ(d.version, h.version);
  EXPECT_EQ(d.type, h.type);
  EXPECT_EQ(d.request_id, h.request_id);
  EXPECT_EQ(d.k, h.k);
  EXPECT_EQ(d.m, h.m);
  EXPECT_EQ(d.frag_len, h.frag_len);
  EXPECT_EQ(d.erased_bitmap, h.erased_bitmap);
  EXPECT_EQ(d.present_bitmap, h.present_bitmap);
  EXPECT_EQ(d.spec_len, h.spec_len);
  EXPECT_EQ(d.payload_count, h.payload_count);
  EXPECT_EQ(d.body_crc, h.body_crc);
  EXPECT_EQ(d.body_size(), 9u + 14u * 4096u);
}

TEST(NetFrame, FrameRoundTripsThroughView) {
  FrameHeader h;
  const std::vector<uint8_t> frame = sample_frame(&h);
  ASSERT_GT(frame.size(), wire::kFrameHeaderSize);

  FrameHeader d;
  ASSERT_EQ(decode_frame_header(frame.data(), frame.size(), d), FrameError::Ok);
  FrameView view;
  ASSERT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            frame.size() - wire::kFrameHeaderSize, view),
            FrameError::Ok);
  EXPECT_EQ(view.spec, "rs(6,4)");
  ASSERT_EQ(view.payloads.size(), 2u);
  ASSERT_EQ(view.present_ids, (std::vector<uint32_t>{1, 2}));
  ASSERT_EQ(view.erased_ids, (std::vector<uint32_t>{3}));
  EXPECT_EQ(view.payloads[0][0], 0xAA);
  EXPECT_EQ(view.payloads[1][15], 0xBB);
  // Zero-copy: the spans point INTO the frame buffer, no copies were made.
  EXPECT_EQ(view.payloads[0].data(),
            frame.data() + wire::kFrameHeaderSize + 7);
}

TEST(NetFrame, PacketRoundTripsEveryField) {
  PacketHeader h;
  h.flags = kPacketFlagParity;
  h.group = 0x1122334455667788ull;
  h.strip = 7;
  h.k = 6;
  h.m = 4;
  h.payload_len = 32;
  h.spec_len = 7;
  std::vector<uint8_t> payload(32, 0x5C);
  const std::vector<uint8_t> pkt = build_packet(h, "rs(6,4)", payload);
  ASSERT_EQ(pkt.size(), wire::kPacketHeaderSize + 7 + 32);

  PacketView view;
  ASSERT_EQ(decode_packet(pkt.data(), pkt.size(), view), FrameError::Ok);
  EXPECT_EQ(view.header.flags, kPacketFlagParity);
  EXPECT_EQ(view.header.group, h.group);
  EXPECT_EQ(view.header.strip, 7u);
  EXPECT_EQ(view.header.k, 6u);
  EXPECT_EQ(view.header.m, 4u);
  EXPECT_EQ(view.spec, "rs(6,4)");
  ASSERT_EQ(view.payload.size(), 32u);
  EXPECT_EQ(view.payload.data(), pkt.data() + wire::kPacketHeaderSize + 7);
}

// ---- rejection paths ---------------------------------------------------------

TEST(NetFrame, TruncatedInputsAreRejectedNotRead) {
  const std::vector<uint8_t> frame = sample_frame();
  FrameHeader d;
  // Every prefix shorter than the fixed header: Truncated, nothing else.
  for (size_t len = 0; len < wire::kFrameHeaderSize; ++len) {
    // Heap-allocate exactly `len` so ASan catches any read past the end.
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    EXPECT_EQ(decode_frame_header(prefix.data(), prefix.size(), d),
              FrameError::Truncated);
  }
  // A body shorter or longer than the header promises is Truncated too.
  ASSERT_EQ(decode_frame_header(frame.data(), frame.size(), d), FrameError::Ok);
  FrameView view;
  EXPECT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            d.body_size() - 1, view),
            FrameError::Truncated);
  EXPECT_EQ(bind_frame_body(d, frame.data() + wire::kFrameHeaderSize,
                            d.body_size() + 1, view),
            FrameError::Truncated);
}

TEST(NetFrame, BadMagicVersionTypeAndCrcAreDistinguished) {
  const std::vector<uint8_t> frame = sample_frame();
  FrameHeader d;

  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic is the first field
  EXPECT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::BadMagic);

  // Any other corrupt header byte fails the header CRC before its field is
  // ever interpreted — version/type verdicts need a re-signed header.
  bad = frame;
  bad[4] ^= 0xFF;
  EXPECT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::BadCrc);

  FrameHeader h;
  sample_frame(&h);
  h.version = 9;
  uint8_t buf[wire::kFrameHeaderSize];
  encode_frame_header(h, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::BadVersion);

  sample_frame(&h);
  h.type = static_cast<FrameType>(99);
  encode_frame_header(h, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::BadType);

  // Body corruption: the header parses, the body CRC says no.
  bad = frame;
  bad.back() ^= 0x01;
  ASSERT_EQ(decode_frame_header(bad.data(), bad.size(), d), FrameError::Ok);
  FrameView view;
  EXPECT_EQ(bind_frame_body(d, bad.data() + wire::kFrameHeaderSize,
                            bad.size() - wire::kFrameHeaderSize, view),
            FrameError::BadCrc);
}

TEST(NetFrame, OversizedLengthFieldsNeverReachAllocation) {
  // Re-sign headers whose length fields exceed every cap: decode must fail
  // with LimitExceeded BEFORE any caller could size a buffer from them.
  FrameHeader h;
  sample_frame(&h);
  uint8_t buf[wire::kFrameHeaderSize];
  FrameHeader d;

  FrameHeader big = h;
  big.spec_len = wire::kMaxSpecLen + 1;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  big = h;
  big.frag_len = wire::kMaxFragLen + 1;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  big = h;  // payload_count past the fragment cap
  big.payload_count = wire::kMaxFragments + 1;
  big.present_bitmap = ~0ull;
  encode_frame_header(big, buf);
  EXPECT_NE(decode_frame_header(buf, sizeof buf, d), FrameError::Ok);

  big = h;  // individually legal, together past kMaxBody
  big.frag_len = wire::kMaxFragLen;
  big.payload_count = 16;
  big.present_bitmap = 0xFFFF;
  encode_frame_header(big, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::LimitExceeded);

  // build_frame refuses to construct what decode would reject.
  EXPECT_THROW(build_frame(big, "rs(6,4)", nullptr), std::invalid_argument);
}

TEST(NetFrame, InconsistentBitmapsAreRejected) {
  FrameHeader h;
  sample_frame(&h);
  uint8_t buf[wire::kFrameHeaderSize];
  FrameHeader d;

  FrameHeader bad = h;  // popcount(present) != payload_count
  bad.present_bitmap = 0b1;
  encode_frame_header(bad, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Inconsistent);

  bad = h;  // a fragment both present and erased
  bad.erased_bitmap = bad.present_bitmap;
  encode_frame_header(bad, buf);
  EXPECT_EQ(decode_frame_header(buf, sizeof buf, d), FrameError::Inconsistent);
}

TEST(NetFrame, PacketRejectionPaths) {
  PacketHeader h;
  h.group = 3;
  h.strip = 0;
  h.k = 6;
  h.m = 4;
  h.payload_len = 16;
  h.spec_len = 7;
  std::vector<uint8_t> payload(16, 0x11);
  const std::vector<uint8_t> pkt = build_packet(h, "rs(6,4)", payload);
  PacketView view;

  for (size_t len = 0; len < pkt.size(); ++len) {
    std::vector<uint8_t> prefix(pkt.begin(), pkt.begin() + len);
    EXPECT_NE(decode_packet(prefix.data(), prefix.size(), view), FrameError::Ok);
  }

  std::vector<uint8_t> bad = pkt;
  bad[0] ^= 0xFF;
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadMagic);
  bad = pkt;
  bad[8] ^= 0xFF;  // header byte -> header CRC
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadCrc);
  bad = pkt;
  bad.back() ^= 0x01;  // payload byte -> body CRC
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::BadCrc);

  // A datagram longer than header + spec + payload is damage, not padding.
  bad = pkt;
  bad.push_back(0);
  EXPECT_EQ(decode_packet(bad.data(), bad.size(), view), FrameError::Truncated);

  // An oversized payload_len dies at the limit check, not at an allocation.
  PacketHeader big = h;
  big.payload_len = static_cast<uint32_t>(wire::kMaxDatagram);
  uint8_t hdr[wire::kPacketHeaderSize];
  encode_packet_header(big, hdr);
  std::vector<uint8_t> huge(hdr, hdr + sizeof hdr);
  huge.resize(wire::kPacketHeaderSize + 7 + big.payload_len, 0);
  EXPECT_EQ(decode_packet(huge.data(), huge.size(), view), FrameError::LimitExceeded);
  EXPECT_THROW(build_packet(big, "rs(6,4)", std::span<const uint8_t>(huge)),
               std::invalid_argument);
}

// ---- seeded fuzz -------------------------------------------------------------

TEST(NetFrame, SeededByteFlipFuzzNeverFalselyAccepts) {
  // Flip 1-3 bytes of a valid frame at seeded positions, 4000 rounds: decode
  // may say Ok only when header + body CRCs genuinely still pass (flips that
  // cancel are practically impossible in this budget), and must never read
  // out of bounds (ASan enforces) or crash. Same for packets.
  const std::vector<uint8_t> frame = sample_frame();
  PacketHeader ph;
  ph.group = 1;
  ph.strip = 2;
  ph.k = 6;
  ph.m = 4;
  ph.payload_len = 24;
  ph.spec_len = 7;
  std::vector<uint8_t> ppay(24, 0x3C);
  const std::vector<uint8_t> pkt = build_packet(ph, "rs(6,4)", ppay);

  uint64_t state = 0xF00DFEED;
  const auto next = [&] { return state = mix64(state); };
  for (int round = 0; round < 4000; ++round) {
    std::vector<uint8_t> mut = (round & 1) ? pkt : frame;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f)
      mut[next() % mut.size()] ^= static_cast<uint8_t>(1 + next() % 255);
    // Also truncate to a random length every fourth round.
    if (round % 4 == 0) mut.resize(next() % (mut.size() + 1));

    if (round & 1) {
      PacketView view;
      const FrameError err = decode_packet(mut.data(), mut.size(), view);
      if (err == FrameError::Ok) EXPECT_EQ(mut, pkt);
    } else {
      FrameHeader d;
      const FrameError err = decode_frame_header(mut.data(), mut.size(), d);
      if (err != FrameError::Ok) continue;
      FrameView view;
      const FrameError berr =
          bind_frame_body(d, mut.data() + wire::kFrameHeaderSize,
                          mut.size() - wire::kFrameHeaderSize, view);
      if (berr == FrameError::Ok) EXPECT_EQ(mut, frame);
    }
  }
}

TEST(NetFrame, CrcChainsAcrossBuffers) {
  const uint8_t a[] = {1, 2, 3, 4};
  const uint8_t b[] = {5, 6, 7};
  const uint8_t ab[] = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(crc32(b, sizeof b, crc32(a, sizeof a)), crc32(ab, sizeof ab));
  EXPECT_NE(crc32(a, sizeof a), 0u);
  EXPECT_STREQ(frame_error_name(FrameError::BadCrc), "bad_crc");
}

// ---- CRC-32 on both paths ----------------------------------------------------
// net::crc32 folds buffers of 64 bytes or more by carry-less multiplication
// when the host has PCLMULQDQ, and keeps the table loop under a forced scalar
// ISA. Each test runs under Scalar (table loop on any host) and Auto (the
// fold, where the host has it) against a bit-at-a-time reference.

namespace {

/// One byte through the reflected 0xEDB88320 register, bit by bit: the
/// definition, independent of both the table and the fold.
uint32_t reference_step(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int b = 0; b < 8; ++b) state = (state >> 1) ^ (0xEDB88320u & (0u - (state & 1)));
  return state;
}

std::vector<uint8_t> crc_test_bytes(size_t n) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<uint8_t>(mix64(i));
  return v;
}

class NetCrc : public ::testing::TestWithParam<xorec::kernel::Isa> {
 protected:
  void SetUp() override {
    saved_ = xorec::kernel::forced_isa();
    xorec::kernel::set_forced_isa_for_testing(GetParam());
  }
  void TearDown() override { xorec::kernel::set_forced_isa_for_testing(saved_); }

  /// For each of 16 misalignments and both seeds, checks crc32 of every
  /// prefix length in [0, max_len] (or only max_len when `every_length` is
  /// false) against the reference, advanced one byte at a time.
  static void expect_matches_reference(size_t max_len, bool every_length) {
    const std::vector<uint8_t> bytes = crc_test_bytes(max_len + 16);
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* p = bytes.data() + offset;
      for (const uint32_t seed : {0u, 0x12345678u}) {
        uint32_t state = ~seed;
        size_t mismatches = 0, first_bad_len = 0;
        for (size_t len = 0; len <= max_len; ++len) {
          if ((every_length || len == max_len) && crc32(p, len, seed) != ~state &&
              mismatches++ == 0)
            first_bad_len = len;
          if (len < max_len) state = reference_step(state, p[len]);
        }
        EXPECT_EQ(mismatches, 0u) << "first at len " << first_bad_len << ", offset "
                                  << offset << ", seed 0x" << std::hex << seed;
      }
    }
  }

 private:
  std::optional<xorec::kernel::Isa> saved_;
};

}  // namespace

TEST_P(NetCrc, KnownAnswerPinsThePolynomial) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const uint8_t*>(check.data()), check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST_P(NetCrc, MatchesBytewiseReferenceAtEveryLengthOffsetAndSeed) {
  expect_matches_reference(1024, /*every_length=*/true);
}

TEST_P(NetCrc, MatchesBytewiseReferenceOnAnEncodeRequestBody) {
  // A 64 KiB rs(10,4)@block=1024 encode request: the 19-byte spec plus ten
  // 6528-byte data fragments.
  expect_matches_reference(65299, /*every_length=*/false);
}

TEST_P(NetCrc, ChainsAtEverySplitPoint) {
  const std::vector<uint8_t> bytes = crc_test_bytes(300);
  const uint32_t whole = crc32(bytes.data(), bytes.size());
  uint32_t state = ~0u;
  for (const uint8_t b : bytes) state = reference_step(state, b);
  EXPECT_EQ(whole, ~state);
  for (size_t split = 0; split <= bytes.size(); ++split)
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split, crc32(bytes.data(), split)),
              whole)
        << "split " << split;
}

INSTANTIATE_TEST_SUITE_P(
    CrcPaths, NetCrc,
    ::testing::Values(xorec::kernel::Isa::Scalar, xorec::kernel::Isa::Auto),
    [](const ::testing::TestParamInfo<xorec::kernel::Isa>& info) {
      return std::string(xorec::kernel::isa_name(info.param));
    });
