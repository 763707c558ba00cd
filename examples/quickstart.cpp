// Quickstart: lease any codec from a CodecService by spec string, encode an
// object through its shard queue, lose fragments, reconstruct. Try
// "evenodd(6,2)", "star(9)", "cauchy(12,3)", ... — the flow is identical
// for every family. (make_codec builds a bare, unpooled codec when you do
// not want the serving façade.)
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [spec | --list-codecs]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "api/xorec.hpp"
#include "example_util.hpp"

int main(int argc, char** argv) {
  if (xorec::examples::handle_list_codecs(argc, argv)) return 0;
  // The service pools codecs by canonical spec: a second acquire of an
  // equivalent spelling would lease the SAME instance (and, through the
  // shared plan cache, the same compiled programs).
  xorec::CodecService service;
  std::unique_ptr<xorec::ServiceHandle> lease;
  try {
    lease = std::make_unique<xorec::ServiceHandle>(
        service.acquire(argc > 1 ? argv[1] : "rs(10,4)"));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  const xorec::Codec* codec = &lease->codec();
  const size_t n = codec->data_fragments();
  const size_t p = codec->parity_fragments();
  // Fragment lengths must be multiples of the codec's strip count.
  const size_t frag_len = codec->fragment_multiple() * (1 << 14);

  // The object: n data fragments of random bytes.
  std::mt19937_64 rng(42);
  std::vector<std::vector<uint8_t>> frags(n + p, std::vector<uint8_t>(frag_len));
  for (size_t i = 0; i < n; ++i)
    for (auto& b : frags[i]) b = static_cast<uint8_t>(rng());

  // Encode: one routed job on the lease's shard fills the p parity
  // fragments (.get() waits and rethrows job failures).
  std::vector<const uint8_t*> data;
  std::vector<uint8_t*> parity;
  for (size_t i = 0; i < n; ++i) data.push_back(frags[i].data());
  for (size_t i = 0; i < p; ++i) parity.push_back(frags[n + i].data());
  lease->encode(data.data(), parity.data(), frag_len).get();
  std::printf("%s: encoded %zu KiB into %zu data + %zu parity fragments\n",
              codec->name().c_str(), n * frag_len >> 10, n, p);

  // Disaster: lose up to p fragments (the last parity plus the lowest data
  // ids). MDS codecs take the full loss; a non-MDS family (e.g. lrc) may
  // refuse the worst case — the codec is the authority, so back off one
  // data loss at a time until the pattern is recoverable.
  std::vector<uint32_t> erased;
  std::vector<std::vector<uint8_t>> rebuilt;
  std::vector<uint8_t*> out_ptrs;
  size_t data_losses = std::min(p - 1, n);
  for (;;) {
    erased.clear();
    for (uint32_t i = 0; i < data_losses; ++i) erased.push_back(i);
    erased.push_back(static_cast<uint32_t>(n + p - 1));
    std::vector<uint32_t> available;
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id = 0; id < n + p; ++id) {
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
        available.push_back(id);
        avail_ptrs.push_back(frags[id].data());
      }
    }
    rebuilt.assign(erased.size(), std::vector<uint8_t>(frag_len));
    out_ptrs.clear();
    for (auto& r : rebuilt) out_ptrs.push_back(r.data());
    try {
      // Reconstruct the lost fragments into fresh buffers: a routed repair
      // job (the plan lookup is memoized inside it).
      lease->rebuild(available, avail_ptrs.data(), erased, out_ptrs.data(), frag_len)
          .get();
      break;
    } catch (const std::invalid_argument& e) {
      if (data_losses == 0) {
        std::fprintf(stderr, "%s: reconstruct failed: %s\n", codec->name().c_str(),
                     e.what());
        return 2;
      }
      std::printf("%zu data losses refused (%s) — retrying with %zu\n", data_losses,
                  e.what(), data_losses - 1);
      --data_losses;
    }
  }

  for (size_t i = 0; i < erased.size(); ++i) {
    if (rebuilt[i] != frags[erased[i]]) {
      std::printf("FAILED: fragment %u mismatch\n", erased[i]);
      return 1;
    }
  }
  std::printf("reconstructed");
  for (uint32_t id : erased) std::printf(" %u", id);
  std::printf(" — byte-identical. OK\n");

  const xorec::ServiceStats stats = service.stats();
  std::printf("service: pool \"%s\" on shard %zu, %zu jobs routed, plan cache "
              "%zu hits / %zu misses\n",
              lease->spec().c_str(), lease->shard(),
              stats.shards[lease->shard()].submitted, stats.cache.hits,
              stats.cache.misses);
  return 0;
}
