// The full optimizer flow of §2.1: compressing (§4), fusing (§5),
// scheduling (§6). Keeps every intermediate stage so benchmarks can measure
// each one (the paper's §7.5 tables report exactly these).
#pragma once

#include <optional>
#include <string>

#include "bitmatrix/bitmatrix.hpp"
#include "slp/metrics.hpp"
#include "slp/program.hpp"

namespace xorec::slp {

enum class CompressKind { None, RePair, XorRePair };
enum class ScheduleKind { None, Dfs, Greedy };

struct PipelineOptions {
  CompressKind compress = CompressKind::XorRePair;
  bool fuse = true;
  ScheduleKind schedule = ScheduleKind::Dfs;
  /// Abstract-cache capacity for the greedy scheduler, in blocks. The paper
  /// derives it from hardware: L1 size / block size (§6.2). Spec key:
  /// cap=<blocks>, spelled only when it differs from this default. Cache
  /// identity over these options is PlanCache::fingerprint_config.
  size_t greedy_capacity = 32;
};

struct PipelineResult {
  Program base;                     // flat SLP of the bitmatrix ("Base")
  std::optional<Program> compressed;
  std::optional<Program> fused;
  std::optional<Program> scheduled;

  /// The program the runtime should execute and how (binary vs fused form).
  const Program& final_program() const;
  ExecForm final_form() const;

  StageMetrics base_metrics() const { return measure(base, ExecForm::Binary); }
};

PipelineResult optimize(const bitmatrix::BitMatrix& m, const PipelineOptions& opt = {},
                        std::string name = {});
PipelineResult optimize_program(Program base, const PipelineOptions& opt = {});

}  // namespace xorec::slp
