// E7 — §7.4 case 2: fully optimized P_Full_enc (XorRePair + fusion +
// scheduling) across block sizes, greedy vs DFS schedulers (RS(10,4), AVX2).
//
// Paper's intel rows (GB/s):
//   greedy: 2.29 4.00 6.02 7.61 8.68 8.37 7.24
//   dfs:    2.32 3.97 6.09 7.37 8.92 8.55 7.64
// with NVar ~ 90 and CCap ~ 170 at every block size.
// Shape target: peak near 1K-2K, both schedulers within a few percent.
#include "bench_common.hpp"

#include <cstdio>

#include "slp/metrics.hpp"

using namespace xorec;
using namespace xorec::bench;

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t n = 10, p = 4;
  auto cluster = std::make_shared<RsCluster>(n, p, frag_len_for(n));

  for (auto sched : {slp::ScheduleKind::Greedy, slp::ScheduleKind::Dfs}) {
    const char* sched_name = sched == slp::ScheduleKind::Greedy ? "greedy" : "dfs";
    bool printed = false;
    for (size_t block : {64u, 128u, 256u, 512u, 1024u, 2048u, 4096u}) {
      auto codec = std::make_shared<ec::RsCodec>(n, p, full_options(block, sched));
      if (!printed) {
        const auto m = slp::measure(codec->encode_pipeline()->final_program(),
                                    slp::ExecForm::Fused);
        std::printf("P_Full_enc (%s) static measures: NVar=%zu CCap=%zu "
                    "(paper: NVar~90 CCap~170)\n",
                    sched_name, m.nvar, m.ccap);
        printed = true;
      }
      register_encode(std::string("full_encode/") + sched_name + "/B" + std::to_string(block),
                      codec, cluster);
    }
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
