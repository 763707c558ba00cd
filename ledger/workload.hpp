// The ledger's workloads: seeded inputs, cold set-up, the closed-loop load
// generator with its 1 s windows, output verification, and the traced run's
// per-layer replays. Every layer is timed from outside, around calls into
// its public functions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ledger {

struct WorkloadDef {
  const char* name;
  size_t object_bytes;  // k * frag_len, before rounding to the strip geometry
  size_t objects;       // seeded stripes in the working set
  size_t callers;       // closed-loop caller threads (one connection each over TCP)
  size_t shards;        // CodecService shards
  double encode_share;  // share of requests that encode; the rest reconstruct
  bool tcp;             // requests go through net::Client -> net::NetServer
  /// Compare every response; otherwise the first request of each window
  /// and the last request are compared, outside the timed windows.
  bool verify_each;
};

/// encode_10mb, degraded_read_64k, tcp_mixed_64k.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

struct RunOptions {
  const WorkloadDef* def = nullptr;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string trace_out;  // Chrome trace file of the traced run; empty = none
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // printed beside the value (paper reference, sample count)
};

struct RunResult {
  bool correct = true;  // every compared byte matched and the self-test fired
  uint64_t attempted = 0;
  uint64_t failed = 0;  // failed calls plus mis-verified outputs
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;  // printed, never gated
};

/// Runs one workload for opt.seconds 1 s windows. Untraced runs fill
/// end_to_end; traced runs alternate untraced and traced windows and fill
/// per_layer. Throws std::runtime_error when the verifier self-test fails.
RunResult run_workload(const RunOptions& opt);

}  // namespace ledger
