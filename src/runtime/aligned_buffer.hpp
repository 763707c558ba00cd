// Cache-conscious buffer allocation (§7.4).
//
// The paper's anti-conflict strategy: with a 32 KB / 8-way / 64 B-line L1,
// addresses congruent mod 4 KB compete for the same cache set. Laying
// strip i at  A(strip_i) ≡ i·B (mod 4 KB)  staggers the strips across sets
// so blocks of different strips never all collide.
//
// The executor's own scratch strips get that layout from StripArena, so
// every scratch block starts on a cache line. The caller's input and output
// strips carry most of the traffic but arrive at whatever address the
// caller's allocator picked (a glibc mmap'd std::vector starts 16 bytes past
// a line), and then every 64-byte kernel access straddles two lines. The
// executor cannot move those strips, so it moves the block grid instead:
// first_block_len() peels the first row of a strip to B − r bytes, where r
// is the dominant line offset of the caller's strips, and every later row of
// those strips starts on a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace xorec::runtime {

inline constexpr size_t kCachePage = 4096;  // set-conflict period on x86 L1
inline constexpr size_t kCacheLine = 64;

/// Length of the first row of the blocking grid over strip_len-byte strips
/// in block_size-byte rows; every later row is block_size bytes except at
/// most one short tail. The row start is chosen by a vote over the line
/// offsets r = address % 64 of the caller's strips, each strip weighted by
/// refs[i] (the program operands referencing it; refs lists the inputs'
/// weights, then the outputs'). Ties go to the lowest r. Returns
/// block_size − r for the winning r, or block_size when r is 0, when
/// block_size is not a multiple of 64, or when strip_len <= block_size (one
/// row per call: nothing to align). Pure: the pointers are never read.
size_t first_block_len(size_t block_size, size_t strip_len,
                       std::span<const uint8_t* const> inputs,
                       std::span<uint8_t* const> outputs, std::span<const uint32_t> refs);

/// A slab of `count` equally sized strips with the staggered layout:
/// strip(i) starts at offset_i with offset_i ≡ i*block_size (mod 4K).
/// With stagger disabled every strip is 4K-aligned (the adversarial layout
/// §7.4 warns about) — kept for the alignment ablation benchmark.
class StripArena {
 public:
  StripArena(size_t count, size_t strip_len, size_t block_size, bool stagger = true);

  uint8_t* strip(size_t i) { return base_ + offsets_[i]; }
  const uint8_t* strip(size_t i) const { return base_ + offsets_[i]; }
  size_t count() const { return offsets_.size(); }
  size_t strip_len() const { return strip_len_; }

  std::vector<uint8_t*> pointers();
  std::vector<const uint8_t*> const_pointers() const;

 private:
  size_t strip_len_;
  std::unique_ptr<uint8_t[]> storage_;
  uint8_t* base_ = nullptr;  // 4K-aligned start inside storage_
  std::vector<size_t> offsets_;
};

}  // namespace xorec::runtime
