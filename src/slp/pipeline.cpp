#include "slp/pipeline.hpp"

#include "slp/fusion.hpp"
#include "slp/repair.hpp"
#include "slp/schedule_dfs.hpp"
#include "slp/schedule_greedy.hpp"

namespace xorec::slp {

const Program& PipelineResult::final_program() const {
  if (scheduled) return *scheduled;
  if (fused) return *fused;
  if (compressed) return *compressed;
  return base;
}

ExecForm PipelineResult::final_form() const {
  // Fusion is the point where instructions become real multi-input kernels;
  // before it, every stage executes as binary XOR chains.
  if (scheduled || fused) return ExecForm::Fused;
  return ExecForm::Binary;
}

PipelineResult optimize(const bitmatrix::BitMatrix& m, const PipelineOptions& opt,
                        std::string name) {
  return optimize_program(from_bitmatrix(m, std::move(name)), opt);
}

PipelineResult optimize_program(Program base, const PipelineOptions& opt) {
  PipelineResult r;
  r.base = std::move(base);

  const Program* cur = &r.base;
  switch (opt.compress) {
    case CompressKind::None:
      break;
    case CompressKind::RePair:
      r.compressed = repair_compress(*cur);
      cur = &*r.compressed;
      break;
    case CompressKind::XorRePair:
      r.compressed = xor_repair_compress(*cur);
      cur = &*r.compressed;
      break;
  }
  if (opt.fuse) {
    r.fused = fuse(*cur);
    cur = &*r.fused;
  }
  switch (opt.schedule) {
    case ScheduleKind::None:
      break;
    case ScheduleKind::Dfs:
      r.scheduled = schedule_dfs(*cur);
      break;
    case ScheduleKind::Greedy:
      r.scheduled = schedule_greedy(*cur, opt.greedy_capacity);
      break;
  }
  return r;
}

}  // namespace xorec::slp
