// Blob-level convenience API on top of any xorec::Codec.
//
// Codecs work on equal-length fragments the caller manages; real objects
// are single buffers of arbitrary size. ObjectCodec handles the bookkeeping:
// it pads the object to n equal fragments (recording the true length in a
// small per-fragment header), encodes parity, and reassembles the original
// bytes from any n surviving fragments. Works over every registered codec —
// RS, EVENODD, RDP, STAR, GF(2^16) RS — because it only speaks the generic
// Codec interface:
//   ec::ObjectCodec blobs(xorec::make_codec("evenodd(6,2)"));
//
// Fragment wire format (self-describing, fixed 32-byte header):
//   magic "XSLP" | version u16 | fragment id u16 | n u16 | p u16 |
//   object size u64 | fragment payload length u64 | reserved
// followed by the payload. Headers make fragments safe to store and
// reshuffle: decode validates ids and geometry before touching payloads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "api/codec.hpp"
#include "api/service.hpp"
#include "ec/bitmatrix_codec_core.hpp"

namespace xorec::ec {

struct EncodedObject {
  /// n data fragments followed by p parity fragments, each header + payload.
  std::vector<std::vector<uint8_t>> fragments;
};

class ObjectCodec {
 public:
  static constexpr size_t kHeaderSize = 32;

  /// Wrap any codec (shared so callers can keep using it directly too).
  explicit ObjectCodec(std::shared_ptr<const Codec> codec);

  /// Wrap a CodecService lease: the pooled codec, with every encode and
  /// reconstruct job routed through the lease (ServiceHandle::encode /
  /// rebuild) onto its shard, so blob traffic joins the service's bounded
  /// worker groups and counts in its PoolStats. The service must outlive
  /// this ObjectCodec.
  explicit ObjectCodec(const xorec::ServiceHandle& handle);

  /// Convenience: RS(n, p) over GF(2^8), the default engine.
  ObjectCodec(size_t n, size_t p, CodecOptions opt = {});

  size_t data_fragments() const { return codec_->data_fragments(); }
  size_t parity_fragments() const { return codec_->parity_fragments(); }
  const Codec& codec() const { return *codec_; }

  /// Split + pad + encode. Empty objects are legal (fragments carry only
  /// headers plus minimal padding). Over a lease the parity computation
  /// runs as a job on the lease's shard; over a bare codec it runs inline.
  /// The call returns synchronously either way.
  EncodedObject encode(const uint8_t* object, size_t size) const;

  /// Reassemble the object from any >= n fragments (data or parity, any
  /// order). Returns nullopt when the fragments are inconsistent (mixed
  /// objects, bad magic, not enough survivors). Missing data payloads are
  /// rebuilt as encode() codes parity: on the lease's shard, or inline.
  std::optional<std::vector<uint8_t>> decode(
      const std::vector<std::vector<uint8_t>>& fragments) const;

  /// Rebuild the full fragment set (e.g. to re-populate failed nodes).
  std::optional<EncodedObject> rebuild_all(
      const std::vector<std::vector<uint8_t>>& fragments) const;

 private:
  struct Header {
    uint16_t version;
    uint16_t frag_id;
    uint16_t n, p;
    uint64_t object_size;
    uint64_t payload_len;
  };
  static void write_header(uint8_t* dst, const Header& h);
  static std::optional<Header> read_header(const std::vector<uint8_t>& frag);

  size_t payload_len_for(size_t object_size) const;

  std::shared_ptr<const Codec> codec_;
  /// The lease every job routes through; empty over a bare codec.
  std::optional<xorec::ServiceHandle> lease_;
};

}  // namespace xorec::ec
