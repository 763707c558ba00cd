// A4 — thread scaling along the library's one parallel axis: a CodecService
// shard's stripe-level direction (N shard workers, 8 independent stripes
// per flush, each stripe encoded or repaired on one worker).
// Shape target: batch_encode/tN scales with N up to the core count.
#include "bench_common.hpp"

#include <thread>

using namespace xorec;
using namespace xorec::bench;

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t hw = std::max<size_t>(std::thread::hardware_concurrency(), 1);

  // 8 stripes of 10 MB objects per flush, shards of 1/2/4/8 workers.
  const std::string spec = "rs(10,4)@block=1024,isa=avx2";
  auto codec = codec_for(spec);
  auto enc_set = make_cluster_set(*codec, 8);
  auto dec_set = make_decode_set(*codec, 8, {2, 4, 5, 6});
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    if (threads > 2 * hw) break;
    register_encode_batch("batch_encode/t" + std::to_string(threads), spec, enc_set,
                          threads);
    register_decode_batch("batch_decode/t" + std::to_string(threads), spec, dec_set,
                          threads);
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
