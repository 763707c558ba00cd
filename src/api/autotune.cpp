#include "api/autotune.hpp"

#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ec/bitmatrix_codec_core.hpp"
#include "ec/rs_codec.hpp"
#include "runtime/exec_program.hpp"
#include "runtime/executor.hpp"
#include "slp/pipeline.hpp"

namespace xorec {

namespace {

using Clock = std::chrono::steady_clock;

/// The shared calibration workload: the fully optimized RS(8,3) encode SLP
/// over 8 x 256 KiB fragments (the working set dwarfs L2, so the blocking
/// choice is what the measurement sees). The compiled program is
/// independent of the block size, so it compiles ONCE and the sweep times
/// cheap Executor rebuilds.
struct CalibrationWorkload {
  runtime::ExecProgram prog;
  std::vector<std::vector<uint8_t>> data_bufs, parity_bufs;
  std::vector<const uint8_t*> in;
  std::vector<uint8_t*> out_mut;
  std::vector<const uint8_t*> strip_in;
  std::vector<uint8_t*> strip_out;
  size_t strip_len = 32u << 10;

  CalibrationWorkload() {
    constexpr size_t n = 8, p = 3, w = ec::RsCodec::kStripsPerFragment;
    const gf::Matrix code =
        ec::make_code_matrix(ec::MatrixFamily::IsalVandermonde, n, p);
    std::vector<size_t> parity_rows(p);
    std::iota(parity_rows.begin(), parity_rows.end(), n);
    const slp::PipelineResult pipe = slp::optimize(
        bitmatrix::expand(code.select_rows(parity_rows)), {}, "autotune");
    prog = runtime::compile(pipe.final_form() == slp::ExecForm::Binary
                                ? pipe.final_program().binary_expanded()
                                : pipe.final_program());

    const size_t frag_len = w * strip_len;
    data_bufs.assign(n, std::vector<uint8_t>(frag_len));
    parity_bufs.assign(p, std::vector<uint8_t>(frag_len));
    uint64_t fill = 0x9e3779b97f4a7c15ull;
    for (auto& f : data_bufs)
      for (auto& b : f)
        b = static_cast<uint8_t>(fill = fill * 6364136223846793005ull + 1);
    for (const auto& f : data_bufs) in.push_back(f.data());
    for (auto& f : parity_bufs) out_mut.push_back(f.data());
    strip_in = ec::BitmatrixCodecCore::strip_pointers(in.data(), n, w, frag_len);
    strip_out =
        ec::BitmatrixCodecCore::strip_pointers(out_mut.data(), p, w, frag_len);
  }

  /// Seconds per run() of `exec`, repeated until the reading is stable
  /// (~10 ms per candidate).
  double time_executor(const runtime::Executor& exec) const {
    exec.run(strip_in.data(), strip_out.data(), strip_len);  // warm caches
    size_t reps = 2;
    double elapsed = 0;
    for (;;) {
      const auto t0 = Clock::now();
      for (size_t r = 0; r < reps; ++r)
        exec.run(strip_in.data(), strip_out.data(), strip_len);
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count() / reps;
      if (elapsed * reps > 0.01) break;
      reps *= 2;
    }
    return elapsed;
  }
};

size_t measure_auto_block() {
  const CalibrationWorkload w;
  const std::vector<size_t> blocks{512, 1024, 2048, 4096, 8192};
  std::vector<double> times;
  for (size_t block : blocks) {
    runtime::ExecOptions eo;
    eo.block_size = block;
    times.push_back(w.time_executor(runtime::Executor(w.prog, eo)));
  }
  // The 5% margin filters timing noise and keeps the smaller block on
  // machines where B barely matters.
  return blocks[pick_with_margin(times, 0.05)];
}

}  // namespace

size_t pick_with_margin(const std::vector<double>& times, double margin) {
  size_t best = 0;
  for (size_t i = 1; i < times.size(); ++i)
    if (times[i] < times[best] * (1.0 - margin)) best = i;
  return best;
}

size_t auto_block_size() {
  static const size_t measured = measure_auto_block();
  return measured;
}

}  // namespace xorec
