// Cluster repair orchestrator: the fleet-scale consumer of the whole
// plan/cache/service stack. Given a chunk placement (cluster/placement.hpp)
// and a failure trace (cluster/failure.hpp), it drives every lost chunk back
// to full redundancy through a shared xorec::CodecService and accounts the
// network traffic the repairs move — the XORing-Elephants experiment: do
// locality-aware families (lrc, piggyback) beat plain RS on cross-rack
// repair bytes for the same failures?
//
// Scheduling model (deterministic discrete-event, virtual 1 s ticks):
//   - A failure event marks disks dead; chunks on them join their stripe's
//     lost set and the stripe enters the repair queue with priority =
//     remaining redundancy (parity count minus lost chunks): the stripe
//     closest to data loss repairs first.
//   - Per lost stripe the scheduler ENUMERATES candidate recovery plans via
//     Codec::plan_reconstruct — the full survivor set (where the reduced-
//     read families bring their own repair sets) plus data-first and
//     parity-first k-subsets for MDS codes — and scores each candidate's
//     read_set() against the stripe's placement: cross-rack strips cost
//     `cross_rack_penalty`, intra-rack strips cost 1. Cheapest plan wins.
//   - Per-node repair bandwidth is throttled by a deficit token bucket:
//     every node earns `node_bandwidth` bytes per tick (never banking more
//     than one tick), a job dispatches only while every involved node's
//     budget is positive, and a dispatched job debits its true byte cost
//     (budgets may go negative — oversized jobs still make progress, they
//     just block their nodes for the ticks it takes to repay).
//   - Dispatched repairs execute as ServiceHandle futures on the shared
//     CodecService's shards; the first `execute_stripes` jobs carry REAL payload
//     (deterministic seeded fragments) and are byte-verified end to end,
//     the rest are traffic-accounted at `chunk_bytes` scale so million-
//     chunk fleets stay tractable.
//
// Everything — placement, trace, candidate choice, destinations, tick
// schedule — is a pure function of the seeds, so one trace replayed over
// two codec families is the controlled experiment, and the report's
// decision_fingerprint makes "same trace -> byte-identical schedule"
// a one-comparison assertion.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/service.hpp"
#include "cluster/failure.hpp"
#include "cluster/placement.hpp"

namespace xorec::cluster {

struct RepairOptions {
  /// Registry spec of the stripe codec; its k + m must equal the
  /// placement's chunks_per_stripe.
  std::string spec = "rs(10,4)";
  /// Virtual bytes per chunk — the unit of traffic accounting and
  /// bandwidth throttling (not allocated; real payloads use exec_frag_len).
  uint64_t chunk_bytes = 64ull << 20;
  /// Per-node repair bandwidth, bytes per virtual second (tick).
  uint64_t node_bandwidth = 512ull << 20;
  /// Scoring weight of a cross-rack strip relative to an intra-rack one.
  double cross_rack_penalty = 4.0;
  /// How many dispatched repair jobs carry real payload through the
  /// CodecService and are byte-verified (0 = accounting only).
  size_t execute_stripes = 32;
  /// Real-payload fragment size (rounded up to the codec's geometry).
  size_t exec_frag_len = 4096;
  /// Seed for the deterministic payload generator.
  uint64_t seed = 1;
  /// Keep the per-job dispatch log in the report (tests, demos).
  bool record_jobs = false;
};

/// One dispatched stripe repair, in dispatch order.
struct RepairJob {
  uint64_t tick = 0;
  size_t stripe = 0;
  uint32_t redundancy_left = 0;  // parity count minus lost chunks, at dispatch
  std::vector<uint32_t> erased;  // chunk idxs rebuilt by this job
  uint32_t master_node = 0;      // repair master (destination of erased[0])
  size_t candidate = 0;          // index of the winning candidate plan
  uint64_t bytes_read = 0;
  uint64_t cross_rack_bytes_read = 0;
};

struct RepairReport {
  std::string spec;            // canonical codec spec repaired with
  std::string policy;          // placement policy name
  size_t stripes = 0;
  size_t chunks = 0;
  size_t failure_events = 0;
  size_t disks_failed = 0;
  size_t disks_restored = 0;   // devices re-admitted by restore events
  size_t chunks_lost = 0;      // distinct chunks that entered the lost set
  size_t chunks_readmitted = 0;  // lost chunks that became readable again
                                 // when their device was restored (no repair
                                 // traffic was spent on them)
  size_t chunks_repaired = 0;
  size_t chunks_unplaced = 0;  // repaired but no eligible disk was left
  size_t stripes_unrecoverable = 0;  // data loss: no candidate plan solved
  size_t repair_jobs = 0;
  size_t distinct_patterns = 0;  // (lost, readable) sets planned for
  size_t candidate_plans = 0;    // plans compiled/considered across patterns
  // Repair reads at strip and byte granularity (strip = chunk_bytes / w).
  size_t strips_read = 0;
  size_t cross_rack_strips = 0;
  size_t intra_rack_strips = 0;
  uint64_t bytes_read = 0;
  uint64_t cross_rack_bytes = 0;  // reads + redistribution moves across racks
  uint64_t intra_rack_bytes = 0;
  uint64_t bytes_written = 0;     // rebuilt chunk bytes (the repair output)
  uint64_t time_to_safe_ticks = 0;  // virtual ticks until every stripe healed
  size_t executed_stripes = 0;   // jobs that ran real payload via the service
  size_t verified_stripes = 0;   // of those, byte-verified against truth
  size_t verify_failures = 0;    // must stay 0
  uint64_t trace_fingerprint = 0;     // FailureTrace::fingerprint of the input
  uint64_t decision_fingerprint = 0;  // folds every scheduling decision
  std::vector<RepairJob> jobs;   // populated when RepairOptions::record_jobs

  double cross_rack_fraction() const {
    const uint64_t total = cross_rack_bytes + intra_rack_bytes;
    return total ? static_cast<double>(cross_rack_bytes) / static_cast<double>(total) : 0.0;
  }

  /// Emit this report as one JSON object (stable key order — byte-identical
  /// for identical runs), indented by `indent` spaces.
  void write_json(std::ostream& os, int indent = 0) const;
};

class RepairOrchestrator {
 public:
  /// Borrows the placement (mutated: repaired chunks move to replacement
  /// disks) and the service (repairs route through its pooled codec for
  /// `opt.spec`). The codec's k + m must match the placement geometry.
  RepairOrchestrator(PlacementRegistry& placement, CodecService& service,
                     RepairOptions opt);
  ~RepairOrchestrator();  // out of line: Pattern is incomplete here

  const RepairOptions& options() const { return opt_; }
  const Codec& codec() const { return handle_.codec(); }

  /// Drive the fleet through `trace` until every recoverable stripe is back
  /// to full redundancy; returns the traffic report. One orchestrator runs
  /// one trace (failures accumulate in its health map).
  RepairReport run(const FailureTrace& trace);

 private:
  struct Candidate;
  struct Pattern;

  Pattern& pattern_for(uint64_t lost_mask, uint64_t readable_mask);
  void execute_with_payload(const std::shared_ptr<const ReconstructPlan>& plan,
                            size_t stripe, RepairReport& report);

  PlacementRegistry& placement_;
  CodecService& service_;
  RepairOptions opt_;
  ServiceHandle handle_;
  std::vector<std::unique_ptr<Pattern>> patterns_;  // stable addresses
  std::map<std::pair<uint64_t, uint64_t>, Pattern*> pattern_index_;  // (lost, readable)
};

/// The controlled experiment: one fleet shape, one placement seed, ONE
/// failure trace — one report per codec spec, all served by the same
/// CodecService. Comparability across specs requires equal k + m (asserted).
std::vector<RepairReport> compare_families(const Topology& topo, PlacementPolicy policy,
                                           size_t stripes,
                                           const std::vector<std::string>& specs,
                                           const FailureTrace& trace,
                                           CodecService& service,
                                           const RepairOptions& base, uint64_t placement_seed);

/// Wrap reports plus the shared experiment parameters into one JSON
/// document (the BENCH_repair_traffic.json shape).
void write_comparison_json(std::ostream& os, const Topology& topo, PlacementPolicy policy,
                           size_t stripes, const FailureTrace& trace,
                           const std::vector<RepairReport>& reports);

/// "round_robin" / "rack_aware" / "random".
const char* policy_name(PlacementPolicy policy);

}  // namespace xorec::cluster
