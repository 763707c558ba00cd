// Execution-backend comparison: the lowered straight-line programs
// (exec=lowered — pre-resolved fixed-arity kernels, accumulate fusion,
// optional streaming stores) against the interpreting executor
// (exec=interp) on the same compiled plans, for rs/cauchy/lrc at the
// default block size, with the isal-style baseline as the yardstick the
// paper measures against.
//
// Artifact: BENCH_exec_backend.json (override with XOREC_EXEC_JSON) in the
// shared bench_json.hpp schema — one encode and one reconstruct throughput
// record per family x backend, the paired lowered-over-interp speedup
// ratios, and the isal baseline.
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace xorec;
using namespace xorec::bench;

namespace {

const std::vector<std::string>& family_specs() {
  static const std::vector<std::string> specs = {"rs(6,3)", "cauchy(6,3)", "lrc(6,2,2)"};
  return specs;
}

/// Backends under comparison.
const std::vector<std::string>& backend_names() {
  static const std::vector<std::string> names = {"interp", "lowered"};
  return names;
}

/// One ~20 ms throughput sample of `fn` over `bytes_per_call`, in GB/s.
/// The caller interleaves samples across the arms under comparison; one
/// sample is deliberately short so clock/thermal drift lands on both arms.
template <typename Fn>
double sample_gbps(size_t bytes_per_call, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  size_t iters = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    const double sec = std::chrono::duration<double>(clock::now() - t0).count();
    if (sec >= 0.02 || iters >= (1u << 20))
      return static_cast<double>(bytes_per_call) * static_cast<double>(iters) / sec / 1e9;
    iters = sec > 0 ? std::max(iters * 2, static_cast<size_t>(0.025 * iters / sec))
                    : iters * 2;
  }
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One backend arm of a family: codec, pre-encoded cluster, and a
/// single-data-fragment-erasure reconstruct plan (recoverable in every
/// family). Sampling is split out so arms can be measured interleaved.
struct Arm {
  std::string backend;  // "interp" | "lowered" | "baseline"
  std::string label;    // "<family>/<backend>"
  std::shared_ptr<const Codec> codec;
  std::shared_ptr<Cluster> cluster;
  std::shared_ptr<DecodeFixture> fix;
  std::shared_ptr<const ReconstructPlan> plan;
  size_t bytes = 0;

  Arm(const std::string& spec, const std::string& family, std::string backend_name)
      : backend(std::move(backend_name)),
        label(family + "/" + backend),
        codec(codec_for(spec)),
        cluster(std::make_shared<Cluster>(*codec)),
        fix(std::make_shared<DecodeFixture>(*codec, cluster, std::vector<uint32_t>{0})),
        plan(codec->plan_reconstruct(fix->available, fix->erased)),
        bytes(cluster->n * cluster->frag_len) {}

  double sample_encode() const {
    return sample_gbps(bytes, [&] {
      codec->encode(cluster->data_ptrs.data(), cluster->parity_ptrs.data(),
                    cluster->frag_len);
      benchmark::ClobberMemory();
    });
  }
  double sample_reconstruct() const {
    return sample_gbps(bytes, [&] {
      plan->execute(fix->avail_ptrs.data(), fix->out_ptrs.data(), cluster->frag_len);
      benchmark::ClobberMemory();
    });
  }
};

constexpr int kSamples = 15;

/// Measure a set of arms interleaved (round-robin per sample) and append a
/// median encode + reconstruct record per arm. Interleaving is what makes
/// the backend ratios trustworthy on a busy host: sequential measurement
/// charges any slowdown over the run to whichever arm ran last. For every
/// arm pair it also records the median of the PER-SAMPLE ratios — adjacent
/// samples share drift state, so the paired ratio cancels it where a ratio
/// of independent medians would not.
void measure_interleaved(const std::string& family, const std::vector<const Arm*>& arms,
                         std::vector<BenchRecord>& records) {
  for (const Arm* a : arms) {  // warm: plans compiled, caches primed
    a->sample_encode();
    a->sample_reconstruct();
  }
  std::vector<std::vector<double>> enc(arms.size()), dec(arms.size());
  for (int s = 0; s < kSamples; ++s)
    for (size_t i = 0; i < arms.size(); ++i) {
      enc[i].push_back(arms[i]->sample_encode());
      dec[i].push_back(arms[i]->sample_reconstruct());
    }
  for (size_t i = 0; i < arms.size(); ++i) {
    records.push_back({"exec_backend/encode", arms[i]->label, "GBps", median(enc[i])});
    records.push_back(
        {"exec_backend/reconstruct", arms[i]->label, "GBps", median(dec[i])});
  }
  for (size_t i = 0; i < arms.size(); ++i)
    for (size_t j = i + 1; j < arms.size(); ++j) {
      const std::string pair = family + "/" + arms[j]->backend + "_over_" + arms[i]->backend;
      std::vector<double> enc_r, dec_r;
      for (int s = 0; s < kSamples; ++s) {
        enc_r.push_back(enc[j][s] / enc[i][s]);
        dec_r.push_back(dec[j][s] / dec[i][s]);
      }
      records.push_back({"exec_backend/encode_speedup", pair, "x", median(enc_r)});
      records.push_back({"exec_backend/reconstruct_speedup", pair, "x", median(dec_r)});
    }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  // Console view: google-benchmark entries per family x backend + baseline.
  for (const std::string& spec : family_specs()) {
    for (const std::string& name : backend_names()) {
      auto codec = codec_for(spec + "@exec=" + name);
      auto cluster = std::make_shared<Cluster>(*codec);
      const std::string tag = spec + "/" + name;
      register_encode("exec_encode/" + tag, codec, cluster);
      register_decode_plan("exec_reconstruct/" + tag, codec, cluster, {0});
    }
  }
  {
    auto isal = codec_for("isal(6,3)");
    auto cluster = std::make_shared<Cluster>(*isal);
    register_encode("exec_encode/isal(6,3)/baseline", isal, cluster);
    register_decode_plan("exec_reconstruct/isal(6,3)/baseline", isal, cluster, {0});
  }

  benchmark::RunSpecifiedBenchmarks();

  // Artifact: hand-timed so the JSON does not depend on benchmark's
  // reporter; same codecs, same single-erasure reconstruct. Per family the
  // backends are sampled interleaved (see measure_interleaved).
  std::vector<BenchRecord> records;
  for (const std::string& spec : family_specs()) {
    std::vector<Arm> arms;
    arms.reserve(backend_names().size());
    for (const std::string& name : backend_names())
      arms.emplace_back(spec + "@exec=" + name, spec, name);
    std::vector<const Arm*> ptrs;
    for (const Arm& a : arms) ptrs.push_back(&a);
    measure_interleaved(spec, ptrs, records);
  }
  {
    Arm isal("isal(6,3)", "isal(6,3)", "baseline");
    measure_interleaved("isal(6,3)", {&isal}, records);
  }

  const char* env = std::getenv("XOREC_EXEC_JSON");
  const std::string path = env && *env ? env : "BENCH_exec_backend.json";
  std::ofstream out(path);
  write_bench_json(out, "bench_exec_backend",
                   {{"families", "rs(6,3) cauchy(6,3) lrc(6,2,2)"},
                    {"baseline", "isal(6,3)"},
                    {"erasure", "fragment 0"},
                    {"object_bytes", std::to_string(kDataBytes)}},
                   records);
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());

  // The headline claim, spelled out on the console: lowered >= interp.
  // Speedup records are pushed enc/dec adjacent per pair.
  for (size_t i = 0; i + 1 < records.size(); ++i)
    if (records[i].name == "exec_backend/encode_speedup")
      std::printf("%-28s encode %.2fx  reconstruct %.2fx\n", records[i].config.c_str(),
                  records[i].value, records[i + 1].value);

  benchmark::Shutdown();
  return 0;
}
