// Wire protocol for the network serving front-end: the byte formats BOTH
// transports speak, parsed defensively and viewed without copies.
//
// Two formats share this file because they share the validation rules and
// the CRC machinery:
//
//   TCP stripe frames (FrameHeader, 56-byte fixed header): one request or
//   response per frame — magic, version, type, request id, canonical spec
//   string, k/m/frag_len geometry, erasure + present fragment bitmaps, a
//   body CRC and a header CRC. The body is the spec bytes followed by
//   `payload_count` fragments of `frag_len` bytes each.
//
//   UDP stripe packets (PacketHeader, 44-byte fixed header): one strip per
//   datagram — group id (stripe sequence number), strip index, geometry,
//   spec, payload CRC. Group-end markers and receiver ACKs ride the same
//   header with flag bits.
//
// Parsing discipline (the attacker-facing boundary): decode_* never
// allocates — it reads a caller-owned buffer into a fixed-size struct and
// validates magic, version, CRCs and EVERY length field against the
// wire::kMax* limits before any caller would size a buffer from them. A
// frame that passes decode_header() can therefore be used to allocate at
// most wire::kMaxBody bytes, no matter what the peer sent.
//
// Zero-copy discipline: FrameView / PacketView bind spans into the caller's
// receive buffer — the spec and each payload fragment are views, not
// copies, so a server hands payload pointers straight into codec strip
// buffers (Codec::encode / ReconstructPlan::execute read them in place).
// Symmetrically, build_frame() gathers fragment pointers into one
// contiguous wire image so responses are written where they are sent from.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace xorec::net {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum both
/// wire formats carry. `seed` chains multi-buffer CRCs: crc32(b, ...,
/// crc32(a, ...)) == CRC of a||b. On x86 hosts with PCLMULQDQ, buffers of
/// 64 bytes or more are folded by carry-less multiplication; XOREC_FORCE_ISA
/// = scalar or word64 keeps the byte-wise table loop. Both give the same
/// value.
uint32_t crc32(const uint8_t* data, size_t len, uint32_t seed = 0);

namespace wire {

inline constexpr uint32_t kFrameMagic = 0x31434558u;   // "XEC1" little-endian
inline constexpr uint32_t kPacketMagic = 0x44434558u;  // "XECD" little-endian
inline constexpr uint16_t kVersion = 1;
inline constexpr size_t kFrameHeaderSize = 56;
inline constexpr size_t kPacketHeaderSize = 44;

// Hard limits every length field is validated against BEFORE any buffer is
// sized from it. A hostile peer can make a server allocate at most kMaxBody.
inline constexpr size_t kMaxSpecLen = 256;     // spec string / error message
inline constexpr size_t kMaxFragments = 64;    // k + m per stripe (codec-wide cap)
inline constexpr size_t kMaxFragLen = 16u << 20;   // bytes per fragment payload
inline constexpr size_t kMaxBody = 64u << 20;      // spec + all payloads, one frame
inline constexpr size_t kMaxDatagram = 60u * 1024; // whole UDP packet incl. header

}  // namespace wire

// ---- TCP stripe frames -----------------------------------------------------

enum class FrameType : uint16_t {
  EncodeRequest = 1,       // body: k data fragments; response carries parity
  ReconstructRequest = 2,  // body: survivor fragments; response carries rebuilt
  Response = 3,            // body: the fragments named by present_bitmap
  Error = 4,               // spec field carries the error message; no payloads
  Ping = 5,                // empty body round-trip (liveness / RTT probe)
  Pong = 6,
};

/// Parse/validation outcomes, ordered roughly by how early they fire.
enum class FrameError : uint8_t {
  Ok = 0,
  Truncated,      // fewer bytes than the fixed header / declared body
  BadMagic,
  BadVersion,
  BadType,
  BadCrc,         // header or body checksum mismatch
  LimitExceeded,  // a length field exceeds its wire::kMax* cap
  Inconsistent,   // fields disagree (bitmap vs count, overlapping id sets)
};
const char* frame_error_name(FrameError err);

/// The fixed 56-byte TCP frame header (all integers little-endian on the
/// wire). `present_bitmap` names the fragment ids of the body's payloads,
/// LSB-first ascending; `erased_bitmap` names the ids a reconstruct request
/// wants rebuilt (and a response echoes). k/m are advisory from clients
/// (0 = "server derives from spec"); servers fill them authoritatively in
/// responses.
struct FrameHeader {
  uint16_t version = wire::kVersion;
  FrameType type = FrameType::Ping;
  uint64_t request_id = 0;
  uint32_t k = 0;
  uint32_t m = 0;
  uint32_t frag_len = 0;         // bytes per payload fragment
  uint64_t erased_bitmap = 0;
  uint64_t present_bitmap = 0;
  uint16_t spec_len = 0;         // spec string (requests) / message (Error)
  uint16_t payload_count = 0;    // fragments following the spec
  uint32_t body_crc = 0;         // crc32 over spec bytes + payload bytes

  size_t body_size() const {
    return static_cast<size_t>(spec_len) +
           static_cast<size_t>(payload_count) * frag_len;
  }
};

/// Serialize `h` into exactly wire::kFrameHeaderSize bytes (header CRC
/// computed and appended here).
void encode_frame_header(const FrameHeader& h, uint8_t* out);

/// Parse + validate a frame header from `data` (allocation-free). Returns
/// Truncated when len < wire::kFrameHeaderSize; on Ok, `out` is fully
/// validated: limits hold, bitmaps are consistent with payload_count, and
/// body_size() <= wire::kMaxBody.
FrameError decode_frame_header(const uint8_t* data, size_t len, FrameHeader& out);

/// Scatter-gather view of one frame: spec and payload fragments as spans
/// into the caller's body buffer (which must outlive the view), plus the
/// bitmap id sets decoded into ascending vectors.
struct FrameView {
  FrameHeader header;
  std::string_view spec;
  std::vector<std::span<const uint8_t>> payloads;  // parallel to present_ids
  std::vector<uint32_t> present_ids;
  std::vector<uint32_t> erased_ids;
};

/// Bind `body` (exactly header.body_size() bytes) to a view, checking the
/// body CRC. The only allocations are the id/span vectors (<= kMaxFragments
/// entries — bounded by decode_frame_header, not by the peer).
FrameError bind_frame_body(const FrameHeader& header, const uint8_t* body,
                           size_t body_len, FrameView& out);

/// Build one contiguous wire image: header (CRCs filled in) + spec +
/// `payload_count` fragments gathered from `payloads[i]`, each
/// header.frag_len bytes. Throws std::invalid_argument when the header
/// would not survive its own decode (oversized spec, bitmap mismatch...).
std::vector<uint8_t> build_frame(FrameHeader header, std::string_view spec,
                                 const uint8_t* const* payloads);

// ---- UDP stripe packets ----------------------------------------------------

inline constexpr uint16_t kPacketFlagParity = 1;    // strip >= k (informative)
inline constexpr uint16_t kPacketFlagGroupEnd = 2;  // marker: group fully sent
inline constexpr uint16_t kPacketFlagAck = 4;       // receiver -> sender receipt

/// The fixed 44-byte per-datagram header. One strip of one stripe group per
/// packet; payload_len is this strip's bytes (uniform within a group).
struct PacketHeader {
  uint16_t version = wire::kVersion;
  uint16_t flags = 0;
  uint64_t group = 0;        // stripe sequence number
  uint32_t strip = 0;        // fragment id 0..k+m-1 (marker: strips sent)
  uint32_t k = 0;
  uint32_t m = 0;
  uint32_t payload_len = 0;
  uint16_t spec_len = 0;
  uint32_t body_crc = 0;     // crc32 over spec bytes + payload bytes
};

/// View of one datagram: spec and payload are spans into the caller's
/// receive buffer.
struct PacketView {
  PacketHeader header;
  std::string_view spec;
  std::span<const uint8_t> payload;
};

void encode_packet_header(const PacketHeader& h, uint8_t* out);

/// Parse + validate one whole datagram (header + spec + payload) —
/// allocation-free; the spans point into `data`. The datagram length must
/// equal kPacketHeaderSize + spec_len + payload_len exactly (UDP preserves
/// message boundaries, so anything else is damage).
FrameError decode_packet(const uint8_t* data, size_t len, PacketView& out);

/// Build one contiguous datagram image. Throws std::invalid_argument when
/// the result would exceed wire::kMaxDatagram or violate limits.
std::vector<uint8_t> build_packet(PacketHeader header, std::string_view spec,
                                  std::span<const uint8_t> payload);

}  // namespace xorec::net
