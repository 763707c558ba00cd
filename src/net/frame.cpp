#include "net/frame.hpp"

#include <bit>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "kernel/xor_kernel.hpp"

namespace xorec::net {

// ---- CRC-32 ----------------------------------------------------------------

namespace {

struct Crc32Table {
  uint32_t t[256];
  Crc32Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int b = 0; b < 8; ++b) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1)));
      t[i] = c;
    }
  }
};

const Crc32Table& crc_table() {
  static const Crc32Table table;
  return table;
}

}  // namespace

#if defined(XOREC_HAVE_PCLMUL)
// crc32_pclmul.cpp: the inverted CRC state advanced over len bytes,
// len >= 64 and a multiple of 16.
uint32_t crc32_fold_pclmul(uint32_t crc, const uint8_t* data, size_t len);

namespace {

/// The carry-less fold runs unless the host lacks PCLMULQDQ or
/// XOREC_FORCE_ISA pins a non-SIMD kernel tier (scalar, word64), which keeps
/// the table loop so forced-ISA runs check both paths.
bool use_pclmul() {
  if (!kernel::cpu_has_pclmul()) return false;
  const std::optional<kernel::Isa> forced = kernel::forced_isa();
  return !forced || (*forced != kernel::Isa::Scalar && *forced != kernel::Isa::Word64);
}

}  // namespace
#endif

uint32_t crc32(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = ~seed;
#if defined(XOREC_HAVE_PCLMUL)
  if (len >= 64 && use_pclmul()) {
    const size_t folded = len & ~size_t{15};
    c = crc32_fold_pclmul(c, data, folded);
    data += folded;
    len -= folded;
  }
#endif
  const Crc32Table& table = crc_table();
  for (size_t i = 0; i < len; ++i) c = (c >> 8) ^ table.t[(c ^ data[i]) & 0xff];
  return ~c;
}

// ---- little-endian field I/O -----------------------------------------------
// Byte-explicit so the wire format is identical on every host; the compiler
// folds these into plain loads/stores on little-endian targets.

namespace {

template <typename T>
void put(uint8_t*& p, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
}

template <typename T>
T get(const uint8_t*& p) {
  T v = 0;
  for (size_t i = 0; i < sizeof(T); ++i) v |= static_cast<T>(*p++) << (8 * i);
  return v;
}

}  // namespace

const char* frame_error_name(FrameError err) {
  switch (err) {
    case FrameError::Ok: return "ok";
    case FrameError::Truncated: return "truncated";
    case FrameError::BadMagic: return "bad_magic";
    case FrameError::BadVersion: return "bad_version";
    case FrameError::BadType: return "bad_type";
    case FrameError::BadCrc: return "bad_crc";
    case FrameError::LimitExceeded: return "limit_exceeded";
    case FrameError::Inconsistent: return "inconsistent";
  }
  return "unknown";
}

// ---- TCP stripe frames -----------------------------------------------------

void encode_frame_header(const FrameHeader& h, uint8_t* out) {
  uint8_t* p = out;
  put<uint32_t>(p, wire::kFrameMagic);
  put<uint16_t>(p, h.version);
  put<uint16_t>(p, static_cast<uint16_t>(h.type));
  put<uint64_t>(p, h.request_id);
  put<uint32_t>(p, h.k);
  put<uint32_t>(p, h.m);
  put<uint32_t>(p, h.frag_len);
  put<uint64_t>(p, h.erased_bitmap);
  put<uint64_t>(p, h.present_bitmap);
  put<uint16_t>(p, h.spec_len);
  put<uint16_t>(p, h.payload_count);
  put<uint32_t>(p, h.body_crc);
  put<uint32_t>(p, crc32(out, static_cast<size_t>(p - out)));
}

namespace {

/// The validation shared by decode and build: everything beyond magic +
/// header CRC (which only a real decode sees).
FrameError validate_frame_header(const FrameHeader& h) {
  if (h.version != wire::kVersion) return FrameError::BadVersion;
  const auto t = static_cast<uint16_t>(h.type);
  if (t < static_cast<uint16_t>(FrameType::EncodeRequest) ||
      t > static_cast<uint16_t>(FrameType::Pong))
    return FrameError::BadType;
  if (h.spec_len > wire::kMaxSpecLen) return FrameError::LimitExceeded;
  if (h.frag_len > wire::kMaxFragLen) return FrameError::LimitExceeded;
  if (h.payload_count > wire::kMaxFragments) return FrameError::LimitExceeded;
  if (h.k > wire::kMaxFragments || h.m > wire::kMaxFragments ||
      h.k + h.m > wire::kMaxFragments)
    return FrameError::LimitExceeded;
  if (h.body_size() > wire::kMaxBody) return FrameError::LimitExceeded;
  if (static_cast<size_t>(std::popcount(h.present_bitmap)) != h.payload_count)
    return FrameError::Inconsistent;
  if (h.payload_count > 0 && h.frag_len == 0) return FrameError::Inconsistent;
  if (h.erased_bitmap & h.present_bitmap) return FrameError::Inconsistent;
  return FrameError::Ok;
}

std::vector<uint32_t> ids_of_bitmap(uint64_t bitmap) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; bitmap; ++i, bitmap >>= 1)
    if (bitmap & 1) ids.push_back(i);
  return ids;
}

}  // namespace

FrameError decode_frame_header(const uint8_t* data, size_t len, FrameHeader& out) {
  if (len < wire::kFrameHeaderSize) return FrameError::Truncated;
  const uint8_t* p = data;
  if (get<uint32_t>(p) != wire::kFrameMagic) return FrameError::BadMagic;
  out.version = get<uint16_t>(p);
  out.type = static_cast<FrameType>(get<uint16_t>(p));
  out.request_id = get<uint64_t>(p);
  out.k = get<uint32_t>(p);
  out.m = get<uint32_t>(p);
  out.frag_len = get<uint32_t>(p);
  out.erased_bitmap = get<uint64_t>(p);
  out.present_bitmap = get<uint64_t>(p);
  out.spec_len = get<uint16_t>(p);
  out.payload_count = get<uint16_t>(p);
  out.body_crc = get<uint32_t>(p);
  const uint32_t declared = get<uint32_t>(p);
  // CRC before semantics: a garbled header must not produce a semantic
  // error that leaks which field landed where.
  if (crc32(data, wire::kFrameHeaderSize - 4) != declared) return FrameError::BadCrc;
  return validate_frame_header(out);
}

FrameError bind_frame_body(const FrameHeader& header, const uint8_t* body,
                           size_t body_len, FrameView& out) {
  if (body_len != header.body_size()) return FrameError::Truncated;
  if (crc32(body, body_len) != header.body_crc) return FrameError::BadCrc;
  out.header = header;
  out.spec = std::string_view(reinterpret_cast<const char*>(body), header.spec_len);
  out.present_ids = ids_of_bitmap(header.present_bitmap);
  out.erased_ids = ids_of_bitmap(header.erased_bitmap);
  out.payloads.clear();
  out.payloads.reserve(header.payload_count);
  const uint8_t* frag = body + header.spec_len;
  for (size_t i = 0; i < header.payload_count; ++i, frag += header.frag_len)
    out.payloads.emplace_back(frag, header.frag_len);
  return FrameError::Ok;
}

std::vector<uint8_t> build_frame(FrameHeader header, std::string_view spec,
                                 const uint8_t* const* payloads) {
  header.spec_len = static_cast<uint16_t>(spec.size());
  if (spec.size() > wire::kMaxSpecLen)
    throw std::invalid_argument("build_frame: spec/message exceeds kMaxSpecLen");
  if (const FrameError err = validate_frame_header(header); err != FrameError::Ok)
    throw std::invalid_argument(std::string("build_frame: invalid header: ") +
                                frame_error_name(err));

  std::vector<uint8_t> frame(wire::kFrameHeaderSize + header.body_size());
  uint8_t* body = frame.data() + wire::kFrameHeaderSize;
  if (!spec.empty()) std::memcpy(body, spec.data(), spec.size());  // data() may be null
  uint8_t* frag = body + spec.size();
  for (size_t i = 0; i < header.payload_count; ++i, frag += header.frag_len)
    std::memcpy(frag, payloads[i], header.frag_len);
  header.body_crc = crc32(body, header.body_size());
  encode_frame_header(header, frame.data());
  return frame;
}

// ---- UDP stripe packets ----------------------------------------------------

void encode_packet_header(const PacketHeader& h, uint8_t* out) {
  uint8_t* p = out;
  put<uint32_t>(p, wire::kPacketMagic);
  put<uint16_t>(p, h.version);
  put<uint16_t>(p, h.flags);
  put<uint64_t>(p, h.group);
  put<uint32_t>(p, h.strip);
  put<uint32_t>(p, h.k);
  put<uint32_t>(p, h.m);
  put<uint32_t>(p, h.payload_len);
  put<uint16_t>(p, h.spec_len);
  put<uint16_t>(p, 0);  // reserved
  put<uint32_t>(p, h.body_crc);
  put<uint32_t>(p, crc32(out, static_cast<size_t>(p - out)));
}

namespace {

FrameError validate_packet_header(const PacketHeader& h) {
  if (h.version != wire::kVersion) return FrameError::BadVersion;
  if (h.spec_len > wire::kMaxSpecLen) return FrameError::LimitExceeded;
  if (h.k > wire::kMaxFragments || h.m > wire::kMaxFragments ||
      h.k + h.m > wire::kMaxFragments)
    return FrameError::LimitExceeded;
  if (wire::kPacketHeaderSize + h.spec_len + static_cast<size_t>(h.payload_len) >
      wire::kMaxDatagram)
    return FrameError::LimitExceeded;
  // Strips address the stripe; markers/acks repurpose the field (marker:
  // strips sent, ack: strips received) and skip the range check.
  if (!(h.flags & (kPacketFlagGroupEnd | kPacketFlagAck)) &&
      h.strip >= h.k + h.m)
    return FrameError::Inconsistent;
  return FrameError::Ok;
}

}  // namespace

FrameError decode_packet(const uint8_t* data, size_t len, PacketView& out) {
  if (len < wire::kPacketHeaderSize) return FrameError::Truncated;
  const uint8_t* p = data;
  if (get<uint32_t>(p) != wire::kPacketMagic) return FrameError::BadMagic;
  PacketHeader& h = out.header;
  h.version = get<uint16_t>(p);
  h.flags = get<uint16_t>(p);
  h.group = get<uint64_t>(p);
  h.strip = get<uint32_t>(p);
  h.k = get<uint32_t>(p);
  h.m = get<uint32_t>(p);
  h.payload_len = get<uint32_t>(p);
  h.spec_len = get<uint16_t>(p);
  (void)get<uint16_t>(p);  // reserved
  h.body_crc = get<uint32_t>(p);
  const uint32_t declared = get<uint32_t>(p);
  if (crc32(data, wire::kPacketHeaderSize - 4) != declared) return FrameError::BadCrc;
  if (const FrameError err = validate_packet_header(h); err != FrameError::Ok)
    return err;
  // A datagram is one message: its length must match the header exactly.
  if (len != wire::kPacketHeaderSize + h.spec_len + static_cast<size_t>(h.payload_len))
    return FrameError::Truncated;
  const uint8_t* body = data + wire::kPacketHeaderSize;
  if (crc32(body, h.spec_len + static_cast<size_t>(h.payload_len)) != h.body_crc)
    return FrameError::BadCrc;
  out.spec = std::string_view(reinterpret_cast<const char*>(body), h.spec_len);
  out.payload = std::span<const uint8_t>(body + h.spec_len, h.payload_len);
  return FrameError::Ok;
}

std::vector<uint8_t> build_packet(PacketHeader header, std::string_view spec,
                                  std::span<const uint8_t> payload) {
  header.spec_len = static_cast<uint16_t>(spec.size());
  header.payload_len = static_cast<uint32_t>(payload.size());
  if (spec.size() > wire::kMaxSpecLen)
    throw std::invalid_argument("build_packet: spec exceeds kMaxSpecLen");
  if (const FrameError err = validate_packet_header(header); err != FrameError::Ok)
    throw std::invalid_argument(std::string("build_packet: invalid header: ") +
                                frame_error_name(err));

  std::vector<uint8_t> packet(wire::kPacketHeaderSize + spec.size() + payload.size());
  uint8_t* body = packet.data() + wire::kPacketHeaderSize;
  if (!spec.empty()) std::memcpy(body, spec.data(), spec.size());  // data() may be null
  if (!payload.empty()) std::memcpy(body + spec.size(), payload.data(), payload.size());
  header.body_crc = crc32(body, spec.size() + payload.size());
  encode_packet_header(header, packet.data());
  return packet;
}

}  // namespace xorec::net
