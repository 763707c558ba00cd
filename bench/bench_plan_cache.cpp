// The plan-compilation service under the microscope: cold compile vs warm
// lookup latency for RS(10,4) decode programs (the acceptance bar: warm
// lookup >= 10x faster than cold compile), and shared-vs-private cache
// behaviour under concurrent planners.
//
// Printed before the timed benchmarks: a direct cold/warm measurement with
// the ratio, plus the process-shared cache counters at exit.
//
// Warmup persistence experiment: with XOREC_PLAN_PROFILE=<path> in the
// environment this binary becomes a two-run experiment. Run 1 finds no
// profile, plans all 45 two-erasure RS(10,4) patterns cold, and saves the
// plan-cache key set at exit; run 2 replays the profile through
// CodecService::warmup first and serves the same sweep at ~100% plan-cache
// hits — the printed per-pattern latency and hit rate quantify the warmup
// benefit (CI uploads both runs' JSON side by side).
#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "ec/plan_cache.hpp"

using namespace xorec;
using namespace xorec::bench;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<uint32_t> all_but(const Codec& codec, const std::vector<uint32_t>& erased) {
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < codec.total_fragments(); ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end())
      available.push_back(id);
  return available;
}

/// A pool of distinct erasure patterns (data-only) for RS(10,4).
std::vector<std::vector<uint32_t>> pattern_pool() {
  std::vector<std::vector<uint32_t>> pool;
  for (uint32_t a = 0; a < 10; ++a)
    for (uint32_t b = a + 1; b < 10; ++b) pool.push_back({a, b});
  return pool;  // 45 distinct two-erasure patterns
}

/// Codec with an injected private cache we can clear for cold timings.
struct ColdFixture {
  std::shared_ptr<ec::PlanCache> cache;
  ec::RsCodec codec;
  ColdFixture()
      : cache(std::make_shared<ec::PlanCache>(0, 1)), codec(10, 4, [&] {
          ec::CodecOptions o;
          o.plan_cache = cache;
          return o;
        }()) {}
};

void print_cold_warm_summary() {
  ColdFixture fix;
  const std::vector<uint32_t> erased{2, 4, 5, 6};
  const auto available = all_but(fix.codec, erased);

  fix.cache->clear();
  const auto t0 = Clock::now();
  (void)fix.codec.plan_reconstruct(available, erased);
  const double cold_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();

  constexpr int kWarm = 1000;
  const auto t1 = Clock::now();
  for (int i = 0; i < kWarm; ++i) (void)fix.codec.plan_reconstruct(available, erased);
  const double warm_us =
      std::chrono::duration<double, std::micro>(Clock::now() - t1).count() / kWarm;

  std::printf("plan_cache cold-vs-warm, rs(10,4) erased {2,4,5,6}:\n");
  std::printf("  cold compile: %10.1f us   (solve + RePair + fuse + schedule + executor)\n",
              cold_us);
  std::printf("  warm lookup:  %10.3f us   (plan-cache hit on the finished plan)\n", warm_us);
  std::printf("  speedup:      %10.1fx %s\n", cold_us / warm_us,
              cold_us / warm_us >= 10.0 ? "(>= 10x: PASS)" : "(< 10x!)");
}

/// The XOREC_PLAN_PROFILE experiment (see file header).
void run_warmup_experiment(const char* path) {
  CodecService service;
  const bool have_profile = std::ifstream(path).good();
  if (have_profile) {
    const auto t0 = Clock::now();
    const auto rep = service.warmup(path);
    std::printf("warmup(%s): %zu patterns replayed (%zu compiled, %zu already "
                "cached) in %.1f ms\n",
                path, rep.patterns, rep.compiled, rep.already_cached,
                std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  } else {
    std::printf("warmup profile %s not found — this is the COLD run (profile "
                "saved at exit)\n",
                path);
  }

  const ServiceHandle lease = service.acquire("rs(10,4)");
  const auto pool = pattern_pool();
  const auto t0 = Clock::now();
  for (const auto& erased : pool)
    (void)lease.plan_reconstruct(all_but(lease.codec(), erased), erased);
  const double us_per_pattern =
      std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
      static_cast<double>(pool.size());

  const ServiceStats stats = service.stats();
  std::printf("planned %zu patterns at %.1f us/pattern — serving-window hit rate "
              "%.0f%% (%zu hits, %zu misses)%s\n",
              pool.size(), us_per_pattern, stats.warm_hit_rate() * 100,
              stats.warm_hits, stats.warm_misses,
              have_profile ? " [warmed]" : " [cold]");
  const size_t saved = service.save_profile(path);
  std::printf("saved %zu plan patterns to %s\n", saved, path);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  if (const char* profile = std::getenv("XOREC_PLAN_PROFILE")) run_warmup_experiment(profile);

  print_cold_warm_summary();

  // Cold: every iteration clears the injected cache, so plan_reconstruct
  // re-runs the full compile.
  {
    auto fix = std::make_shared<ColdFixture>();
    const std::vector<uint32_t> erased{2, 4, 5, 6};
    const auto available = all_but(fix->codec, erased);
    benchmark::RegisterBenchmark("plan/cold_compile", [fix, available,
                                                       erased](benchmark::State& state) {
      for (auto _ : state) {
        fix->cache->clear();
        benchmark::DoNotOptimize(fix->codec.plan_reconstruct(available, erased));
      }
    });
    auto warm = std::make_shared<ColdFixture>();
    benchmark::RegisterBenchmark("plan/warm_lookup", [warm, available,
                                                      erased](benchmark::State& state) {
      (void)warm->codec.plan_reconstruct(available, erased);  // prime
      for (auto _ : state)
        benchmark::DoNotOptimize(warm->codec.plan_reconstruct(available, erased));
    });
  }

  // Shared vs private under threads: every benchmark thread cycles through
  // the 45 two-erasure patterns. With cache=shared all threads feed one
  // PlanCache (compile once per pattern, process-wide); with cache=private
  // each codec instance would recompile — we model a sharded service by
  // giving every thread its own private-cache codec instance.
  {
    auto shared_codec = codec_for("rs(10,4)");  // cache=shared default
    const auto pool = std::make_shared<std::vector<std::vector<uint32_t>>>(pattern_pool());
    for (int threads : {1, 4}) {
      benchmark::RegisterBenchmark(
          "plan/shared_cache_lookup",
          [shared_codec, pool](benchmark::State& state) {
            size_t i = static_cast<size_t>(state.thread_index());
            for (auto _ : state) {
              const auto& erased = (*pool)[i++ % pool->size()];
              benchmark::DoNotOptimize(
                  shared_codec->plan_reconstruct(all_but(*shared_codec, erased), erased));
            }
          })
          ->Threads(threads)
          ->UseRealTime();
      benchmark::RegisterBenchmark(
          "plan/private_cache_lookup",
          [pool](benchmark::State& state) {
            // One private-cache codec per thread: the sharded-service shape
            // the shared PlanCache replaces.
            ec::RsCodec codec(10, 4, [] {
              ec::CodecOptions o;
              o.shared_cache = false;
              return o;
            }());
            size_t i = static_cast<size_t>(state.thread_index());
            for (auto _ : state) {
              const auto& erased = (*pool)[i++ % pool->size()];
              benchmark::DoNotOptimize(
                  codec.plan_reconstruct(all_but(codec, erased), erased));
            }
          })
          ->Threads(threads)
          ->UseRealTime();
    }
  }

  benchmark::RunSpecifiedBenchmarks();

  const CacheStats s = plan_cache_stats();
  std::printf("plan caches (all live instances): %zu entries, %zu hits, %zu misses, "
              "%zu evictions, %.2f ms compiling\n",
              s.entries, s.hits, s.misses, s.evictions, s.compile_ns / 1e6);
  benchmark::Shutdown();
  return 0;
}
