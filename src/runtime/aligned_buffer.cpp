#include "runtime/aligned_buffer.hpp"

#include <cstring>

namespace xorec::runtime {

size_t first_block_len(size_t block_size, size_t strip_len,
                       std::span<const uint8_t* const> inputs,
                       std::span<uint8_t* const> outputs, std::span<const uint32_t> refs) {
  if (strip_len <= block_size || block_size % kCacheLine != 0) return block_size;
  uint64_t votes[kCacheLine] = {};
  for (size_t i = 0; i < inputs.size(); ++i)
    votes[reinterpret_cast<uintptr_t>(inputs[i]) % kCacheLine] += refs[i];
  for (size_t o = 0; o < outputs.size(); ++o)
    votes[reinterpret_cast<uintptr_t>(outputs[o]) % kCacheLine] += refs[inputs.size() + o];
  size_t r = 0;
  for (size_t c = 1; c < kCacheLine; ++c)
    if (votes[c] > votes[r]) r = c;
  return block_size - r;
}

StripArena::StripArena(size_t count, size_t strip_len, size_t block_size, bool stagger)
    : strip_len_(strip_len) {
  offsets_.resize(count);
  // Per-strip stride: strip length rounded up to 4K, plus the stagger shift.
  const size_t base_stride = (strip_len + kCachePage - 1) / kCachePage * kCachePage;
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    const size_t shift = stagger ? (i * block_size) % kCachePage : 0;
    offsets_[i] = total + shift;
    total += base_stride + (stagger ? kCachePage : 0);
  }
  storage_ = std::make_unique<uint8_t[]>(total + kCachePage);
  const uintptr_t raw = reinterpret_cast<uintptr_t>(storage_.get());
  base_ = storage_.get() + ((kCachePage - raw % kCachePage) % kCachePage);
  std::memset(base_, 0, total);
}

std::vector<uint8_t*> StripArena::pointers() {
  std::vector<uint8_t*> p(count());
  for (size_t i = 0; i < count(); ++i) p[i] = strip(i);
  return p;
}

std::vector<const uint8_t*> StripArena::const_pointers() const {
  std::vector<const uint8_t*> p(count());
  for (size_t i = 0; i < count(); ++i) p[i] = strip(i);
  return p;
}

}  // namespace xorec::runtime
