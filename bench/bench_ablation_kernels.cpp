// A2 — kernel ablation: the n-ary single-pass XOR kernels by ISA flavor
// (scalar xor1 / word64 / AVX2 xor32 / AVX-512 xor64 / NEON xor16) and
// arity, on L1-resident blocks. Shows the #M = k+1 single-pass advantage
// and SIMD speedup that motivate §5 and §7.2, plus the lowered-backend
// kernel forms: fixed-arity specializations vs the variadic dispatcher,
// fused accumulate (dst ^= srcs), and streaming stores on LLC-sized blocks.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "kernel/xor_kernel.hpp"

using namespace xorec;

namespace {

void bench_xor_many(benchmark::State& state, kernel::Isa isa, size_t arity, size_t len) {
  std::mt19937_64 rng(1);
  std::vector<std::vector<uint8_t>> bufs(arity + 1, std::vector<uint8_t>(len));
  for (auto& b : bufs)
    for (auto& x : b) x = static_cast<uint8_t>(rng());
  std::vector<const uint8_t*> srcs;
  for (size_t j = 1; j <= arity; ++j) srcs.push_back(bufs[j].data());
  const kernel::XorManyFn fn = kernel::resolve(isa);
  for (auto _ : state) {
    fn(bufs[0].data(), srcs.data(), arity, len);
    benchmark::ClobberMemory();
  }
  // Bytes moved: k source streams + 1 destination stream.
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((arity + 1) * len));
}

/// The equivalent work done as a chain of binary XORs (the pre-fusion
/// execution shape): same result, (k-1) passes instead of one.
void bench_xor_chain(benchmark::State& state, kernel::Isa isa, size_t arity, size_t len) {
  std::mt19937_64 rng(2);
  std::vector<std::vector<uint8_t>> bufs(arity + 1, std::vector<uint8_t>(len));
  for (auto& b : bufs)
    for (auto& x : b) x = static_cast<uint8_t>(rng());
  const kernel::XorManyFn fn = kernel::resolve(isa);
  for (auto _ : state) {
    const uint8_t* first2[2] = {bufs[1].data(), bufs[2].data()};
    fn(bufs[0].data(), first2, 2, len);
    for (size_t j = 3; j <= arity; ++j) {
      const uint8_t* acc2[2] = {bufs[0].data(), bufs[j].data()};
      fn(bufs[0].data(), acc2, 2, len);
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((arity + 1) * len));
}

/// The lowered backend's call forms, straight off the KernelTable:
/// fixed[k] (arity baked into the symbol) and accum[k] (dst ^= srcs, one
/// fewer source stream than the equivalent fixed[k+1]).
enum class Form { Fixed, Accum };

void bench_table_form(benchmark::State& state, kernel::Isa isa, Form form, size_t arity,
                      size_t len) {
  const kernel::KernelTable& kt = kernel::kernel_table(isa);
  std::mt19937_64 rng(3);
  std::vector<std::vector<uint8_t>> bufs(arity + 1, std::vector<uint8_t>(len));
  for (auto& b : bufs)
    for (auto& x : b) x = static_cast<uint8_t>(rng());
  std::vector<const uint8_t*> srcs;
  for (size_t j = 1; j <= arity; ++j) srcs.push_back(bufs[j].data());
  for (auto _ : state) {
    switch (form) {
      case Form::Fixed: kt.fixed[arity](bufs[0].data(), srcs.data(), len); break;
      case Form::Accum: kt.accum[arity](bufs[0].data(), srcs.data(), len); break;
    }
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((arity + 1) * len));
}

/// ISAs worth benching on THIS host (kernel_table degrades unsupported
/// requests, so registering them would silently re-measure the fallback).
std::vector<kernel::Isa> host_isas() {
  std::vector<kernel::Isa> isas = {kernel::Isa::Scalar, kernel::Isa::Word64};
  if (kernel::cpu_has_avx2()) isas.push_back(kernel::Isa::Avx2);
  if (kernel::cpu_has_avx512()) isas.push_back(kernel::Isa::Avx512);
  if (kernel::cpu_has_neon()) isas.push_back(kernel::Isa::Neon);
  return isas;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t len = 4096;
  for (kernel::Isa isa : host_isas()) {
    for (size_t arity : {2u, 3u, 4u, 8u, 16u}) {
      const std::string name =
          std::string("xor_many/") + kernel::isa_name(isa) + "/k" + std::to_string(arity);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [isa, arity, len](benchmark::State& s) { bench_xor_many(s, isa, arity, len); });
    }
  }
  // Fused vs chain at the same arity (the §5 deforestation claim).
  for (size_t arity : {4u, 8u, 16u}) {
    const std::string chain_name = "xor_chain_vs_fused/chain/k" + std::to_string(arity);
    benchmark::RegisterBenchmark(
        chain_name.c_str(),
        [arity, len](benchmark::State& s) { bench_xor_chain(s, kernel::Isa::Avx2, arity, len); });
    const std::string fused_name = "xor_chain_vs_fused/fused/k" + std::to_string(arity);
    benchmark::RegisterBenchmark(
        fused_name.c_str(),
        [arity, len](benchmark::State& s) { bench_xor_many(s, kernel::Isa::Avx2, arity, len); });
  }

  // Lowered-backend call forms: fixed-arity and accumulate specializations
  // against the variadic dispatcher above, on the same L1-resident blocks.
  for (kernel::Isa isa : host_isas()) {
    const char* iname = kernel::isa_name(isa);
    for (size_t arity : {2u, 4u, 8u}) {
      benchmark::RegisterBenchmark(
          (std::string("xor_fixed/") + iname + "/k" + std::to_string(arity)).c_str(),
          [isa, arity, len](benchmark::State& s) {
            bench_table_form(s, isa, Form::Fixed, arity, len);
          });
      benchmark::RegisterBenchmark(
          (std::string("xor_accum/") + iname + "/k" + std::to_string(arity)).c_str(),
          [isa, arity, len](benchmark::State& s) {
            bench_table_form(s, isa, Form::Accum, arity, len);
          });
    }
  }

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
