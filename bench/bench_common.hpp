// Shared machinery for the paper-table benchmarks, written against the
// unified xorec::Codec interface: any registered codec — selected by spec
// string or constructed directly — benches through the same helpers.
//
// Conventions (matching §7): data size is 10 MB per coding call (n fragments
// of 10MB/n each, rounded to the codec's strip geometry); throughput is data
// bytes per second of coding time, reported through google-benchmark's bytes
// counter (console column "bytes_per_second", GB/s = value / 1e9...
// benchmark prints human units).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "api/xorec.hpp"
#include "baseline/naive_xor.hpp"
#include "ec/rs_codec.hpp"

namespace xorec::bench {

inline constexpr size_t kDataBytes = 10u << 20;  // the paper's 10 MB objects

/// Fragment length for an n-way split of the 10 MB object, rounded down to
/// whole 8-byte words per strip. `fragment_multiple` is the codec's strip
/// count (Codec::fragment_multiple()); the historical `% 64` was the w = 8
/// special case.
inline size_t frag_len_for(size_t n, size_t fragment_multiple = 8) {
  const size_t unit = fragment_multiple * 8;
  const size_t raw = kDataBytes / n;
  return std::max(unit, raw - raw % unit);
}

/// One encoded fragment cluster with owned buffers, for any codec geometry.
struct Cluster {
  size_t n, p, frag_len;
  std::vector<std::vector<uint8_t>> frags;
  std::vector<const uint8_t*> data_ptrs;
  std::vector<uint8_t*> parity_ptrs;

  Cluster(size_t n_, size_t p_, size_t frag_len_, uint32_t seed = 1)
      : n(n_), p(p_), frag_len(frag_len_) {
    std::mt19937_64 rng(seed);
    frags.assign(n + p, std::vector<uint8_t>(frag_len));
    for (size_t i = 0; i < n; ++i) {
      for (size_t w = 0; w + 8 <= frag_len; w += 8) {
        const uint64_t v = rng();
        std::memcpy(frags[i].data() + w, &v, 8);
      }
    }
    for (size_t i = 0; i < n; ++i) data_ptrs.push_back(frags[i].data());
    for (size_t i = 0; i < p; ++i) parity_ptrs.push_back(frags[n + i].data());
  }

  /// Geometry (n, p, frag_len) straight from a codec.
  Cluster(const Codec& codec, uint32_t seed = 1)
      : Cluster(codec.data_fragments(), codec.parity_fragments(),
                frag_len_for(codec.data_fragments(), codec.fragment_multiple()), seed) {}
};

/// Historical name (all paper benches started as RS); same struct.
using RsCluster = Cluster;

/// Registry spec -> shared codec, the way benches select codecs.
inline std::shared_ptr<const Codec> codec_for(const std::string& spec) {
  return std::shared_ptr<const Codec>(make_codec(spec));
}

/// Pipeline presets for the paper's four stages.
inline ec::CodecOptions stage_options(slp::CompressKind compress, bool fuse,
                                      slp::ScheduleKind sched, size_t block_size,
                                      kernel::Isa isa = kernel::Isa::Avx2) {
  ec::CodecOptions o;
  o.pipeline.compress = compress;
  o.pipeline.fuse = fuse;
  o.pipeline.schedule = sched;
  o.pipeline.greedy_capacity = (32u << 10) / block_size;  // 32 KB L1 / B
  o.exec.block_size = block_size;
  o.exec.isa = isa;
  return o;
}

inline ec::CodecOptions base_options(size_t block, kernel::Isa isa = kernel::Isa::Avx2) {
  return stage_options(slp::CompressKind::None, false, slp::ScheduleKind::None, block, isa);
}
inline ec::CodecOptions compressed_options(size_t block) {
  return stage_options(slp::CompressKind::XorRePair, false, slp::ScheduleKind::None, block);
}
inline ec::CodecOptions fused_options(size_t block) {
  return stage_options(slp::CompressKind::XorRePair, true, slp::ScheduleKind::None, block);
}
inline ec::CodecOptions fused_uncompressed_options(size_t block) {
  return stage_options(slp::CompressKind::None, true, slp::ScheduleKind::None, block);
}
inline ec::CodecOptions full_options(size_t block,
                                     slp::ScheduleKind sched = slp::ScheduleKind::Dfs) {
  return stage_options(slp::CompressKind::XorRePair, true, sched, block);
}

/// Registers an encode-throughput benchmark over a shared codec/cluster.
inline void register_encode(const std::string& name, std::shared_ptr<const Codec> codec,
                            std::shared_ptr<Cluster> cluster) {
  benchmark::RegisterBenchmark(name.c_str(), [codec, cluster](benchmark::State& state) {
    for (auto _ : state) {
      codec->encode(cluster->data_ptrs.data(), cluster->parity_ptrs.data(),
                    cluster->frag_len);
      benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(cluster->n * cluster->frag_len));
  });
}

/// One stripe's decode fixture: pre-encoded cluster, survivor pointers and
/// output buffers for a fixed erasure pattern.
struct DecodeFixture {
  std::shared_ptr<Cluster> cluster;
  std::vector<uint32_t> erased;
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  std::vector<std::vector<uint8_t>> rebuilt;
  std::vector<uint8_t*> out_ptrs;

  DecodeFixture(const Codec& codec, std::shared_ptr<Cluster> c,
                std::vector<uint32_t> erased_ids)
      : cluster(std::move(c)), erased(std::move(erased_ids)) {
    codec.encode(cluster->data_ptrs.data(), cluster->parity_ptrs.data(),
                 cluster->frag_len);
    for (uint32_t id = 0; id < cluster->n + cluster->p; ++id) {
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
        available.push_back(id);
        avail_ptrs.push_back(cluster->frags[id].data());
      }
    }
    rebuilt.assign(erased.size(), std::vector<uint8_t>(cluster->frag_len));
    for (auto& r : rebuilt) out_ptrs.push_back(r.data());
  }
};

/// Shared multi-stripe fixtures, so several batch benches (e.g. a thread
/// sweep) reuse one allocation instead of one per registration.
using ClusterSet = std::vector<Cluster>;
using DecodeSet = std::vector<DecodeFixture>;

inline std::shared_ptr<ClusterSet> make_cluster_set(const Codec& codec, size_t stripes,
                                                    size_t frag_len = 0,
                                                    uint32_t seed0 = 100) {
  const size_t fl = frag_len ? frag_len
                             : frag_len_for(codec.data_fragments(),
                                            codec.fragment_multiple());
  auto set = std::make_shared<ClusterSet>();
  for (size_t s = 0; s < stripes; ++s)
    set->emplace_back(codec.data_fragments(), codec.parity_fragments(), fl,
                      static_cast<uint32_t>(seed0 + s));
  return set;
}

inline std::shared_ptr<DecodeSet> make_decode_set(const Codec& codec, size_t stripes,
                                                  std::vector<uint32_t> erased,
                                                  size_t frag_len = 0,
                                                  uint32_t seed0 = 200) {
  const size_t fl = frag_len ? frag_len
                             : frag_len_for(codec.data_fragments(),
                                            codec.fragment_multiple());
  auto set = std::make_shared<DecodeSet>();
  for (size_t s = 0; s < stripes; ++s)
    set->emplace_back(codec,
                      std::make_shared<Cluster>(codec.data_fragments(),
                                                codec.parity_fragments(), fl,
                                                static_cast<uint32_t>(seed0 + s)),
                      erased);
  return set;
}

/// Plan-execute decode benchmark: the erasure pattern is solved ONCE at
/// registration (Codec::plan_reconstruct); the timed loop only runs
/// ReconstructPlan::execute — the degraded-read fast path.
inline void register_decode_plan(const std::string& name,
                                 std::shared_ptr<const Codec> codec,
                                 std::shared_ptr<Cluster> cluster,
                                 std::vector<uint32_t> erased) {
  auto fix = std::make_shared<DecodeFixture>(*codec, std::move(cluster), erased);
  auto plan = codec->plan_reconstruct(fix->available, erased);
  benchmark::RegisterBenchmark(name.c_str(), [codec, fix, plan](benchmark::State& state) {
    for (auto _ : state) {
      plan->execute(fix->avail_ptrs.data(), fix->out_ptrs.data(), fix->cluster->frag_len);
      benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(fix->cluster->n * fix->cluster->frag_len));
  });
}

/// Batched encode benchmark: every cluster of the (shared) set is submitted
/// per iteration through a lease on `spec` from a one-shard service of
/// `threads` workers; the service's flush() is the barrier. Register with
/// threads = 1 for the queueing-overhead baseline, >= 2 for stripe-level
/// speedup (each stripe runs on one worker). A lease holds no reference to
/// its service, so the bench keeps the service alive beside it.
inline void register_encode_batch(const std::string& name, const std::string& spec,
                                  std::shared_ptr<ClusterSet> clusters, size_t threads) {
  auto service = std::make_shared<CodecService>(
      CodecService::Options{.shards = 1, .workers_per_shard = threads});
  const ServiceHandle lease = service->acquire(spec);
  benchmark::RegisterBenchmark(
      name.c_str(), [service, lease, clusters](benchmark::State& state) {
        for (auto _ : state) {
          for (Cluster& c : *clusters)
            lease.encode(c.data_ptrs.data(), c.parity_ptrs.data(), c.frag_len);
          service->flush();
          benchmark::ClobberMemory();
        }
        const Cluster& c0 = clusters->front();
        state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                static_cast<int64_t>(clusters->size() * c0.n * c0.frag_len));
      })
      // The work happens on shard workers; the calling thread mostly
      // waits in flush() — only wall time is meaningful.
      ->UseRealTime();
}

/// Batched decode benchmark: one plan shared by every stripe of the set,
/// one reconstruct job per stripe per iteration.
inline void register_decode_batch(const std::string& name, const std::string& spec,
                                  std::shared_ptr<DecodeSet> fixtures, size_t threads) {
  auto service = std::make_shared<CodecService>(
      CodecService::Options{.shards = 1, .workers_per_shard = threads});
  const ServiceHandle lease = service->acquire(spec);
  auto plan =
      lease.plan_reconstruct(fixtures->front().available, fixtures->front().erased);
  benchmark::RegisterBenchmark(
      name.c_str(), [service, lease, fixtures, plan](benchmark::State& state) {
        for (auto _ : state) {
          for (DecodeFixture& f : *fixtures)
            lease.reconstruct(plan, f.avail_ptrs.data(), f.out_ptrs.data(),
                              f.cluster->frag_len);
          service->flush();
          benchmark::ClobberMemory();
        }
        const Cluster& c0 = *fixtures->front().cluster;
        state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                static_cast<int64_t>(fixtures->size() * c0.n * c0.frag_len));
      })
      ->UseRealTime();
}

/// Decode benchmark: reconstruct `erased` (pre-encoded cluster required).
inline void register_decode(const std::string& name, std::shared_ptr<const Codec> codec,
                            std::shared_ptr<Cluster> cluster,
                            std::vector<uint32_t> erased) {
  // Pre-encode once so the survivors are valid.
  codec->encode(cluster->data_ptrs.data(), cluster->parity_ptrs.data(), cluster->frag_len);
  auto available = std::make_shared<std::vector<uint32_t>>();
  auto avail_ptrs = std::make_shared<std::vector<const uint8_t*>>();
  for (uint32_t id = 0; id < cluster->n + cluster->p; ++id) {
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
      available->push_back(id);
      avail_ptrs->push_back(cluster->frags[id].data());
    }
  }
  auto out = std::make_shared<std::vector<std::vector<uint8_t>>>(
      erased.size(), std::vector<uint8_t>(cluster->frag_len));
  auto out_ptrs = std::make_shared<std::vector<uint8_t*>>();
  for (auto& o : *out) out_ptrs->push_back(o.data());
  auto erased_copy = std::make_shared<std::vector<uint32_t>>(std::move(erased));

  benchmark::RegisterBenchmark(
      name.c_str(),
      [codec, cluster, available, avail_ptrs, erased_copy, out, out_ptrs](
          benchmark::State& state) {
        // Warm the decode-program cache outside the timed region.
        codec->reconstruct(*available, avail_ptrs->data(), *erased_copy, out_ptrs->data(),
                           cluster->frag_len);
        for (auto _ : state) {
          codec->reconstruct(*available, avail_ptrs->data(), *erased_copy, out_ptrs->data(),
                             cluster->frag_len);
          benchmark::ClobberMemory();
        }
        state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                                static_cast<int64_t>(cluster->n * cluster->frag_len));
      });
}

}  // namespace xorec::bench
