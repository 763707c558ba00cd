// bench_ledger: runs one workload of the repository's benchmark and prints
// every metric by name with its unit, then one JSON summary line.
//
//   bench_ledger --workload NAME --seed N --seconds N --trace 0|1
//                [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced windows, replays a seeded 1 in 16 of the traced requests layer
// by layer, reports the per-layer metrics and writes the spans to
// --trace-out as Chrome trace events. Exit status: 0 when every compared
// byte was right and no call failed, 1 otherwise, 2 on bad arguments or a
// failed verifier self-test (no summary line then).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workload.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "bench_ledger: %s\nusage: bench_ledger --workload NAME --seed N --seconds N "
               "--trace 0|1 [--trace-out FILE]\nworkloads:",
               msg);
  for (const ledger::WorkloadDef& d : ledger::workloads()) std::fprintf(stderr, " %s", d.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_uint(const char* s, uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return *s != '\0' && *s != '-' && *end == '\0';
}

void print_metrics(const char* title, const std::vector<ledger::Metric>& metrics) {
  std::printf("%s\n", title);
  for (const ledger::Metric& m : metrics)
    std::printf("  %-40s %16.6g %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ledger::RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* val = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      opt.def = ledger::find_workload(val);
      if (!opt.def) return usage(("unknown workload " + std::string(val)).c_str());
    } else if (arg == "--seed") {
      if (!parse_uint(val, n)) return usage("--seed takes a whole number");
      opt.seed = n;
    } else if (arg == "--seconds") {
      if (!parse_uint(val, n) || n < 1 || n > 3600) return usage("--seconds takes 1..3600");
      opt.seconds = static_cast<int>(n);
    } else if (arg == "--trace") {
      if (!parse_uint(val, n) || n > 1) return usage("--trace takes 0 or 1");
      opt.trace = n == 1;
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opt.def) return usage("--workload is required");

  ledger::RunResult res;
  try {
    res = ledger::run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_ledger: %s: %s\n", opt.def->name, e.what());
    return 2;
  }

  std::printf("workload %s  seed %llu  seconds %d  trace %d\n", opt.def->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  print_metrics("info:", res.info);
  const auto& metrics = opt.trace ? res.per_layer : res.end_to_end;
  print_metrics(opt.trace ? "per-layer:" : "end-to-end:", metrics);

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              res.correct ? "true" : "false", static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return res.correct && res.failed == 0 ? 0 : 1;
}
