#include "ec/object_codec.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "ec/rs_codec.hpp"

namespace xorec::ec {

namespace {
constexpr char kMagic[4] = {'X', 'S', 'L', 'P'};
constexpr uint16_t kVersion = 1;
}  // namespace

ObjectCodec::ObjectCodec(std::shared_ptr<const Codec> codec) : codec_(std::move(codec)) {
  if (!codec_) throw std::invalid_argument("ObjectCodec: null codec");
  if (codec_->total_fragments() > UINT16_MAX)
    throw std::invalid_argument("ObjectCodec: too many fragments for the wire header");
}

ObjectCodec::ObjectCodec(const xorec::ServiceHandle& handle)
    : ObjectCodec(handle.codec_ptr()) {
  lease_ = handle;
}

ObjectCodec::ObjectCodec(size_t n, size_t p, CodecOptions opt)
    : ObjectCodec(std::make_shared<RsCodec>(n, p, std::move(opt))) {}

size_t ObjectCodec::payload_len_for(size_t object_size) const {
  const size_t n = codec_->data_fragments();
  const size_t mult = codec_->fragment_multiple();
  // ceil(size / n), padded to the codec's fragment multiple (minimum one
  // unit so the runtime always has work even for empty objects).
  const size_t per = (object_size + n - 1) / n;
  const size_t aligned = (per + mult - 1) / mult * mult;
  return std::max<size_t>(aligned, mult);
}

void ObjectCodec::write_header(uint8_t* dst, const Header& h) {
  std::memset(dst, 0, kHeaderSize);
  std::memcpy(dst, kMagic, 4);
  std::memcpy(dst + 4, &h.version, 2);
  std::memcpy(dst + 6, &h.frag_id, 2);
  std::memcpy(dst + 8, &h.n, 2);
  std::memcpy(dst + 10, &h.p, 2);
  std::memcpy(dst + 12, &h.object_size, 8);
  std::memcpy(dst + 20, &h.payload_len, 8);
}

std::optional<ObjectCodec::Header> ObjectCodec::read_header(
    const std::vector<uint8_t>& frag) {
  if (frag.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(frag.data(), kMagic, 4) != 0) return std::nullopt;
  Header h{};
  std::memcpy(&h.version, frag.data() + 4, 2);
  std::memcpy(&h.frag_id, frag.data() + 6, 2);
  std::memcpy(&h.n, frag.data() + 8, 2);
  std::memcpy(&h.p, frag.data() + 10, 2);
  std::memcpy(&h.object_size, frag.data() + 12, 8);
  std::memcpy(&h.payload_len, frag.data() + 20, 8);
  if (h.version != kVersion) return std::nullopt;
  if (frag.size() != kHeaderSize + h.payload_len) return std::nullopt;
  return h;
}

EncodedObject ObjectCodec::encode(const uint8_t* object, size_t size) const {
  const size_t n = codec_->data_fragments();
  const size_t p = codec_->parity_fragments();
  const size_t payload = payload_len_for(size);

  EncodedObject out;
  out.fragments.assign(n + p, std::vector<uint8_t>(kHeaderSize + payload, 0));
  for (size_t i = 0; i < n + p; ++i) {
    write_header(out.fragments[i].data(),
                 {kVersion, static_cast<uint16_t>(i), static_cast<uint16_t>(n),
                  static_cast<uint16_t>(p), size, payload});
  }
  // Scatter the object across the data payloads (zero padding at the tail).
  for (size_t i = 0; i < n; ++i) {
    const size_t off = i * payload;
    if (off < size)
      std::memcpy(out.fragments[i].data() + kHeaderSize, object + off,
                  std::min(payload, size - off));
  }
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < n; ++i) data.push_back(out.fragments[i].data() + kHeaderSize);
  for (size_t i = 0; i < p; ++i)
    parity.push_back(out.fragments[n + i].data() + kHeaderSize);
  if (lease_)
    lease_->encode(data.data(), parity.data(), payload).get();
  else
    codec_->encode(data.data(), parity.data(), payload);
  return out;
}

std::optional<std::vector<uint8_t>> ObjectCodec::decode(
    const std::vector<std::vector<uint8_t>>& fragments) const {
  const size_t n = codec_->data_fragments();
  const size_t p = codec_->parity_fragments();

  // Validate and index the survivors.
  std::optional<Header> geo;
  std::vector<const std::vector<uint8_t>*> by_id(n + p, nullptr);
  for (const auto& f : fragments) {
    const auto h = read_header(f);
    if (!h) continue;  // skip corrupt fragments
    if (h->n != n || h->p != p || h->frag_id >= n + p) continue;
    if (geo && (geo->object_size != h->object_size || geo->payload_len != h->payload_len))
      return std::nullopt;  // fragments from different objects
    if (!geo) geo = h;
    by_id[h->frag_id] = &f;
  }
  if (!geo) return std::nullopt;
  const size_t payload = geo->payload_len;
  if (payload == 0 || payload % codec_->fragment_multiple() != 0)
    return std::nullopt;  // geometry from a different / corrupted codec
  if (geo->object_size > n * payload)
    return std::nullopt;  // header claims more bytes than the fragments hold

  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id = 0; id < n + p; ++id) {
    if (by_id[id]) {
      available.push_back(id);
      avail_ptrs.push_back(by_id[id]->data() + kHeaderSize);
    }
  }
  if (available.size() < n) return std::nullopt;

  // Reconstruct any missing data payloads.
  std::vector<uint32_t> erased_data;
  for (uint32_t id = 0; id < n; ++id)
    if (!by_id[id]) erased_data.push_back(id);
  std::vector<std::vector<uint8_t>> rebuilt(erased_data.size(),
                                            std::vector<uint8_t>(payload));
  if (!erased_data.empty()) {
    std::vector<uint8_t*> outs;
    for (auto& r : rebuilt) outs.push_back(r.data());
    try {
      if (lease_)
        lease_->rebuild(available, avail_ptrs.data(), erased_data, outs.data(), payload)
            .get();  // get() rethrows a job failure here
      else
        codec_->reconstruct(available, avail_ptrs.data(), erased_data, outs.data(), payload);
    } catch (const std::invalid_argument&) {
      // Non-MDS codecs may reject patterns even with >= n survivors; this
      // API's failure channel is nullopt, not exceptions.
      return std::nullopt;
    }
  }

  // Gather the object bytes.
  std::vector<uint8_t> object(geo->object_size);
  size_t rebuilt_idx = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t off = i * payload;
    if (off >= object.size()) break;
    const size_t len = std::min(payload, object.size() - off);
    const uint8_t* src = by_id[i] ? by_id[i]->data() + kHeaderSize
                                  : rebuilt[rebuilt_idx].data();
    std::memcpy(object.data() + off, src, len);
    if (!by_id[i]) ++rebuilt_idx;
  }
  return object;
}

std::optional<EncodedObject> ObjectCodec::rebuild_all(
    const std::vector<std::vector<uint8_t>>& fragments) const {
  const auto object = decode(fragments);
  if (!object) return std::nullopt;
  return encode(object->data(), object->size());
}

}  // namespace xorec::ec
