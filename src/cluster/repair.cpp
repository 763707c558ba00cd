#include "cluster/repair.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <ostream>
#include <queue>
#include <stdexcept>

namespace xorec::cluster {

namespace {

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a fold of one 64-bit word into a running decision fingerprint.
void fold(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
}

std::vector<uint32_t> ids_of_mask(uint64_t mask) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; mask; ++i, mask >>= 1)
    if (mask & 1) ids.push_back(i);
  return ids;
}

constexpr uint32_t kNoDisk = std::numeric_limits<uint32_t>::max();

}  // namespace

const char* policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::RoundRobin: return "round_robin";
    case PlacementPolicy::RackAware: return "rack_aware";
    case PlacementPolicy::Random: return "random";
  }
  return "unknown";
}

// ---- candidate plans per erasure pattern -----------------------------------

struct RepairOrchestrator::Candidate {
  std::shared_ptr<const ReconstructPlan> plan;
};

/// Every stripe with the same (lost, readable) chunk-idx sets shares one
/// candidate enumeration: the id-space patterns are few (one per distinct
/// failure shape), so the expensive plan compilation amortizes across the
/// fleet exactly the way the paper's compile-once thesis wants.
struct RepairOrchestrator::Pattern {
  uint64_t lost = 0, readable = 0;
  std::vector<Candidate> candidates;  // empty = pattern exceeds code tolerance
};

RepairOrchestrator::Pattern& RepairOrchestrator::pattern_for(uint64_t lost_mask,
                                                             uint64_t readable_mask) {
  const auto key = std::make_pair(lost_mask, readable_mask);
  if (const auto it = pattern_index_.find(key); it != pattern_index_.end())
    return *it->second;

  auto pat = std::make_unique<Pattern>();
  pat->lost = lost_mask;
  pat->readable = readable_mask;

  const Codec& codec = handle_.codec();
  const std::vector<uint32_t> erased = ids_of_mask(lost_mask);
  const std::vector<uint32_t> avail = ids_of_mask(readable_mask);
  const size_t k = codec.data_fragments();

  // Candidate survivor subsets, in fixed precedence order: the full set
  // first (reduced-read families pick their own minimal reads from it),
  // then — when there is a choice — the k-survivor data-first and
  // parity-first subsets MDS codes can decode from. Unsolvable subsets are
  // skipped (the codec is the authority); duplicates by actual read set are
  // folded so scoring only weighs genuinely different plans.
  std::vector<std::vector<uint32_t>> subsets;
  subsets.push_back(avail);
  if (avail.size() > k) {
    std::vector<uint32_t> data_first, parity_first;
    for (uint32_t id : avail)
      if (id < k) data_first.push_back(id);
    for (uint32_t id : avail)
      if (id >= k) parity_first.push_back(id);
    // data_first currently holds the data survivors; extend each ordering
    // with the other class (the loop below dedupes and truncates to k).
    std::vector<uint32_t> pf = parity_first;
    data_first.insert(data_first.end(), parity_first.begin(), parity_first.end());
    pf.insert(pf.end(), avail.begin(), avail.end());
    for (auto* subset : {&data_first, &pf}) {
      std::vector<uint32_t> s;
      for (uint32_t id : *subset) {
        if (std::find(s.begin(), s.end(), id) == s.end()) s.push_back(id);
        if (s.size() == k) break;
      }
      std::sort(s.begin(), s.end());
      if (s.size() == k && std::find(subsets.begin(), subsets.end(), s) == subsets.end())
        subsets.push_back(std::move(s));
    }
  }

  for (const std::vector<uint32_t>& subset : subsets) {
    std::shared_ptr<const ReconstructPlan> plan;
    try {
      plan = handle_.plan_reconstruct(subset, erased);
    } catch (const std::invalid_argument&) {
      continue;  // this subset cannot solve the pattern — not a candidate
    }
    const bool dup = std::any_of(
        pat->candidates.begin(), pat->candidates.end(), [&](const Candidate& c) {
          return c.plan->read_set().fragments == plan->read_set().fragments &&
                 c.plan->read_set().fragment_strips == plan->read_set().fragment_strips;
        });
    if (!dup) pat->candidates.push_back({std::move(plan)});
  }

  Pattern& ref = *pat;
  pattern_index_.emplace(key, &ref);
  patterns_.push_back(std::move(pat));
  return ref;
}

// ---- orchestrator ----------------------------------------------------------

RepairOrchestrator::RepairOrchestrator(PlacementRegistry& placement, CodecService& service,
                                       RepairOptions opt)
    : placement_(placement),
      service_(service),
      opt_(std::move(opt)),
      handle_(service.acquire(opt_.spec)) {
  const Codec& codec = handle_.codec();
  if (codec.total_fragments() != placement_.chunks_per_stripe())
    throw std::invalid_argument(
        "RepairOrchestrator: codec " + codec.name() + " has " +
        std::to_string(codec.total_fragments()) + " fragments but the placement holds " +
        std::to_string(placement_.chunks_per_stripe()) + " chunks per stripe");
  if (placement_.chunks_per_stripe() > 64)
    throw std::invalid_argument(
        "RepairOrchestrator: stripes wider than 64 chunks are not supported "
        "(lost sets are tracked as 64-bit masks)");
  if (opt_.chunk_bytes == 0 || opt_.node_bandwidth == 0)
    throw std::invalid_argument("RepairOrchestrator: chunk_bytes and node_bandwidth "
                                "must be positive");
}

RepairOrchestrator::~RepairOrchestrator() = default;

void RepairOrchestrator::execute_with_payload(
    const std::shared_ptr<const ReconstructPlan>& plan_ptr, size_t stripe,
    RepairReport& report) {
  const ReconstructPlan& plan = *plan_ptr;
  const Codec& codec = handle_.codec();
  const size_t n = codec.total_fragments();
  const size_t k = codec.data_fragments();
  const size_t unit = codec.fragment_multiple() * 8;
  const size_t frag_len = std::max(unit, (opt_.exec_frag_len + unit - 1) / unit * unit);

  // Deterministic ground-truth stripe: seeded data fragments, real parity
  // encoded through the service.
  std::vector<std::vector<uint8_t>> frags(n, std::vector<uint8_t>(frag_len));
  for (size_t f = 0; f < k; ++f) {
    uint64_t ctr = mix64(opt_.seed ^ mix64(stripe * 131 + f));
    for (size_t off = 0; off + 8 <= frag_len; off += 8) {
      const uint64_t v = ctr = mix64(ctr);
      std::memcpy(frags[f].data() + off, &v, 8);
    }
  }
  std::vector<const uint8_t*> data_ptrs;
  std::vector<uint8_t*> parity_ptrs;
  for (size_t f = 0; f < k; ++f) data_ptrs.push_back(frags[f].data());
  for (size_t f = k; f < n; ++f) parity_ptrs.push_back(frags[f].data());
  handle_.encode(data_ptrs.data(), parity_ptrs.data(), frag_len).get();

  // Survivor buffers parallel to the plan's available set, outputs parallel
  // to its erased set; one BatchCoder future on the pool's shard.
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id : plan.available()) avail_ptrs.push_back(frags[id].data());
  std::vector<std::vector<uint8_t>> rebuilt(plan.erased().size(),
                                            std::vector<uint8_t>(frag_len, 0xCD));
  std::vector<uint8_t*> out_ptrs;
  for (auto& r : rebuilt) out_ptrs.push_back(r.data());
  handle_.reconstruct(plan_ptr, avail_ptrs.data(), out_ptrs.data(), frag_len).get();

  ++report.executed_stripes;
  bool ok = true;
  for (size_t i = 0; i < plan.erased().size(); ++i)
    ok = ok && rebuilt[i] == frags[plan.erased()[i]];
  if (ok)
    ++report.verified_stripes;
  else
    ++report.verify_failures;
}

RepairReport RepairOrchestrator::run(const FailureTrace& trace) {
  const Topology& topo = placement_.topology();
  const Codec& codec = handle_.codec();
  const uint32_t n = placement_.chunks_per_stripe();
  const uint32_t parity = static_cast<uint32_t>(codec.parity_fragments());
  const size_t stripes = placement_.stripe_count();
  const uint64_t strip_bytes =
      std::max<uint64_t>(1, opt_.chunk_bytes / codec.fragment_multiple());

  RepairReport report;
  report.spec = handle_.spec();
  report.policy = policy_name(placement_.policy());
  report.stripes = stripes;
  report.chunks = placement_.chunk_count();
  report.failure_events = trace.size();
  report.trace_fingerprint = trace.fingerprint();
  uint64_t& fp = report.decision_fingerprint;
  fp = 0xcbf29ce484222325ull;

  HealthMap health(topo);
  std::vector<uint64_t> lost(stripes, 0);
  // Why a stripe was dropped from the queue — restores can revive it, and an
  // unrecoverable revival must give back its stripes_unrecoverable count.
  enum : uint8_t { kAlive = 0, kUnrecoverable = 1, kUnplaced = 2 };
  std::vector<uint8_t> dead(stripes, kAlive);

  // Max-heap on (lost count, lower stripe id wins ties): the stripe with
  // the LEAST remaining redundancy repairs first. Entries are lazy — a
  // stripe re-damaged after being queued gets a fresh entry and the stale
  // one is skipped on pop.
  struct QEntry {
    uint32_t lost_count;
    size_t stripe;
  };
  const auto qless = [](const QEntry& a, const QEntry& b) {
    if (a.lost_count != b.lost_count) return a.lost_count < b.lost_count;
    return a.stripe > b.stripe;
  };
  std::priority_queue<QEntry, std::vector<QEntry>, decltype(qless)> queue(qless);

  // Deficit token bucket per node: earn node_bandwidth per tick (no
  // banking), dispatch only while positive, debit true cost.
  std::vector<int64_t> budget(topo.node_count(),
                              static_cast<int64_t>(opt_.node_bandwidth));

  size_t ei = 0;
  uint64_t tick = 0;
  uint64_t last_dispatch_tick = 0;
  bool any_dispatch = false;

  const auto absorb_event = [&](const FailureEvent& ev) {
    if (is_restore(ev.kind)) {
      report.disks_restored += FailureTrace::apply(ev, health);
      // A re-admitted device still holds every chunk repair had not yet
      // re-created elsewhere: clear those lost bits for free (no repair
      // traffic), revive stripes the scheduler had given up on, and requeue
      // whatever damage remains.
      for (size_t s = 0; s < stripes; ++s) {
        uint64_t mask = lost[s];
        if (!mask) continue;
        uint64_t back = 0;
        for (uint32_t i = 0; mask; ++i, mask >>= 1)
          if ((mask & 1) && health.disk_ok(placement_.disk_of(s, i)))
            back |= 1ull << i;
        if (!back) continue;
        lost[s] &= ~back;
        report.chunks_readmitted += static_cast<size_t>(std::popcount(back));
        if (dead[s] != kAlive) {
          if (dead[s] == kUnrecoverable) --report.stripes_unrecoverable;
          dead[s] = kAlive;  // chunks_unplaced stays: those repairs really
                             // had nowhere to land when they ran
        }
        if (lost[s])
          queue.push({static_cast<uint32_t>(std::popcount(lost[s])), s});
      }
      return;
    }
    report.disks_failed += FailureTrace::apply(ev, health);
    placement_.for_each_lost(health, [&](size_t s, uint32_t idx) {
      const uint64_t bit = 1ull << idx;
      if (lost[s] & bit) return;  // already tracked
      lost[s] |= bit;
      ++report.chunks_lost;
      if (dead[s] == kAlive)
        queue.push({static_cast<uint32_t>(std::popcount(lost[s])), s});
    });
  };

  while (ei < trace.events.size() || !queue.empty()) {
    while (ei < trace.events.size() &&
           trace.events[ei].time_s < static_cast<double>(tick + 1))
      absorb_event(trace.events[ei++]);

    // Dispatch in strict priority order; when the head job cannot proceed
    // (a throttled node), the tick ends — jumping the queue would starve
    // the lowest-redundancy stripe the ordering exists to protect.
    while (!queue.empty()) {
      const QEntry top = queue.top();
      if (dead[top.stripe] || lost[top.stripe] == 0 ||
          std::popcount(lost[top.stripe]) != static_cast<int>(top.lost_count)) {
        queue.pop();  // stale entry
        continue;
      }
      const size_t s = top.stripe;
      const uint64_t lost_mask = lost[s];
      uint64_t readable = 0;
      for (uint32_t i = 0; i < n; ++i)
        if (!(lost_mask & (1ull << i)) && health.disk_ok(placement_.disk_of(s, i)))
          readable |= 1ull << i;

      Pattern& pat = pattern_for(lost_mask, readable);
      if (pat.candidates.empty()) {
        // Exceeds the code's tolerance — data loss, unless a later restore
        // re-admits one of its devices (absorb_event revives the stripe and
        // gives this count back).
        ++report.stripes_unrecoverable;
        dead[s] = kUnrecoverable;
        queue.pop();
        continue;
      }

      const std::vector<uint32_t> erased = ids_of_mask(lost_mask);
      // The repair master is the replacement target of the first lost
      // chunk: survivors stream there, rebuilt siblings redistribute from
      // there. (Scouted without committing — bandwidth may defer the job.)
      const uint32_t master_disk = placement_.pick_replacement(s, erased[0], health);
      if (master_disk == kNoDisk) {
        // Fleet too degraded to place the repair anywhere; drop the stripe
        // from the queue so the run terminates, and report the gap.
        report.chunks_unplaced += erased.size();
        dead[s] = kUnplaced;
        queue.pop();
        continue;
      }
      const uint32_t master_node = topo.node_of_disk(master_disk);
      const uint32_t master_rack = topo.rack_of_node(master_node);

      // Score every candidate's read set against THIS stripe's placement:
      // cross-rack strips cost cross_rack_penalty, intra-rack strips 1.
      size_t best_c = 0;
      double best_score = std::numeric_limits<double>::infinity();
      for (size_t c = 0; c < pat.candidates.size(); ++c) {
        const PlanReadSet& reads = pat.candidates[c].plan->read_set();
        double score = 0;
        for (size_t i = 0; i < reads.fragments.size(); ++i) {
          const bool cross = placement_.rack_of(s, reads.fragments[i]) != master_rack;
          score += reads.fragment_strips[i] * (cross ? opt_.cross_rack_penalty : 1.0);
        }
        if (score < best_score) {
          best_score = score;
          best_c = c;
        }
      }
      const Candidate& chosen = pat.candidates[best_c];
      const PlanReadSet& reads = chosen.plan->read_set();

      // Throttle gate: every read source and the master must hold positive
      // budget. Redistribution targets are picked after commit (their
      // writes are debited then); the gate covers the read fan-in, which
      // dominates repair traffic.
      bool fits = budget[master_node] > 0;
      for (size_t i = 0; fits && i < reads.fragments.size(); ++i)
        fits = budget[placement_.node_of(s, reads.fragments[i])] > 0;
      if (!fits) break;  // head-of-line wait: retry next tick

      // ---- commit ----------------------------------------------------------
      queue.pop();
      uint64_t job_read = 0, job_cross_read = 0;
      for (size_t i = 0; i < reads.fragments.size(); ++i) {
        const uint32_t src_node = placement_.node_of(s, reads.fragments[i]);
        const uint64_t bytes = reads.fragment_strips[i] * strip_bytes;
        const bool cross = topo.rack_of_node(src_node) != master_rack;
        budget[src_node] -= static_cast<int64_t>(bytes);
        job_read += bytes;
        report.strips_read += reads.fragment_strips[i];
        (cross ? report.cross_rack_strips : report.intra_rack_strips) +=
            reads.fragment_strips[i];
        (cross ? report.cross_rack_bytes : report.intra_rack_bytes) += bytes;
        if (cross) job_cross_read += bytes;
      }
      budget[master_node] -= static_cast<int64_t>(job_read);
      report.bytes_read += job_read;

      // Re-home every lost chunk: the first onto the master itself, the
      // rest onto their own replacements (committed one by one so each
      // pick sees the previous one's node as taken), redistribution bytes
      // debited against master + destination.
      fold(fp, tick);
      fold(fp, s);
      fold(fp, lost_mask);
      fold(fp, best_c);
      for (size_t i = 0; i < erased.size(); ++i) {
        uint32_t dest = i == 0 ? master_disk : placement_.pick_replacement(s, erased[i], health);
        if (dest == kNoDisk) {
          ++report.chunks_unplaced;
          lost[s] &= ~(1ull << erased[i]);
          continue;
        }
        placement_.move_chunk(s, erased[i], dest);
        lost[s] &= ~(1ull << erased[i]);
        ++report.chunks_repaired;
        report.bytes_written += opt_.chunk_bytes;
        const uint32_t dest_node = topo.node_of_disk(dest);
        if (dest_node != master_node) {
          const bool cross = topo.rack_of_node(dest_node) != master_rack;
          (cross ? report.cross_rack_bytes : report.intra_rack_bytes) += opt_.chunk_bytes;
          budget[master_node] -= static_cast<int64_t>(opt_.chunk_bytes);
          budget[dest_node] -= static_cast<int64_t>(opt_.chunk_bytes);
        }
        fold(fp, dest);
      }
      fold(fp, job_read);

      ++report.repair_jobs;
      any_dispatch = true;
      last_dispatch_tick = tick;
      if (report.executed_stripes < opt_.execute_stripes)
        execute_with_payload(chosen.plan, s, report);
      if (opt_.record_jobs) {
        RepairJob job;
        job.tick = tick;
        job.stripe = s;
        job.redundancy_left = parity >= erased.size()
                                  ? parity - static_cast<uint32_t>(erased.size())
                                  : 0;
        job.erased = erased;
        job.master_node = master_node;
        job.candidate = best_c;
        job.bytes_read = job_read;
        job.cross_rack_bytes_read = job_cross_read;
        report.jobs.push_back(std::move(job));
      }
    }

    // Advance virtual time; skip idle gaps straight to the next event.
    if (queue.empty() && ei < trace.events.size()) {
      const uint64_t next_tick =
          static_cast<uint64_t>(std::max(0.0, std::floor(trace.events[ei].time_s)));
      tick = std::max(tick + 1, next_tick);
    } else {
      ++tick;
    }
    for (int64_t& b : budget)
      b = std::min<int64_t>(static_cast<int64_t>(opt_.node_bandwidth),
                            b + static_cast<int64_t>(opt_.node_bandwidth));
  }

  service_.flush();
  report.time_to_safe_ticks = any_dispatch ? last_dispatch_tick + 1 : 0;
  report.distinct_patterns = patterns_.size();
  for (const auto& pat : patterns_) report.candidate_plans += pat->candidates.size();
  return report;
}

// ---- comparison + JSON -----------------------------------------------------

std::vector<RepairReport> compare_families(const Topology& topo, PlacementPolicy policy,
                                           size_t stripes,
                                           const std::vector<std::string>& specs,
                                           const FailureTrace& trace,
                                           CodecService& service,
                                           const RepairOptions& base,
                                           uint64_t placement_seed) {
  std::vector<RepairReport> reports;
  size_t expected_n = 0;
  for (const std::string& spec : specs) {
    RepairOptions opt = base;
    opt.spec = spec;
    const size_t n = service.acquire(spec).codec().total_fragments();
    if (expected_n == 0) expected_n = n;
    if (n != expected_n)
      throw std::invalid_argument("compare_families: spec \"" + spec + "\" has " +
                                  std::to_string(n) + " fragments per stripe, others " +
                                  std::to_string(expected_n) +
                                  " — traffic is only comparable at equal k + m");
    PlacementRegistry placement(topo, static_cast<uint32_t>(n), policy, placement_seed);
    placement.add_stripes(stripes);
    RepairOrchestrator orch(placement, service, opt);
    reports.push_back(orch.run(trace));
  }
  return reports;
}

namespace {

void pad(std::ostream& os, int indent) {
  for (int i = 0; i < indent; ++i) os.put(' ');
}

}  // namespace

void RepairReport::write_json(std::ostream& os, int indent) const {
  const auto field = [&](const char* key, auto value, bool last = false) {
    pad(os, indent + 2);
    os << "\"" << key << "\": " << value << (last ? "\n" : ",\n");
  };
  pad(os, indent);
  os << "{\n";
  pad(os, indent + 2);
  os << "\"spec\": \"" << spec << "\",\n";
  pad(os, indent + 2);
  os << "\"policy\": \"" << policy << "\",\n";
  field("stripes", stripes);
  field("chunks", chunks);
  field("failure_events", failure_events);
  field("disks_failed", disks_failed);
  field("disks_restored", disks_restored);
  field("chunks_lost", chunks_lost);
  field("chunks_readmitted", chunks_readmitted);
  field("chunks_repaired", chunks_repaired);
  field("chunks_unplaced", chunks_unplaced);
  field("stripes_unrecoverable", stripes_unrecoverable);
  field("repair_jobs", repair_jobs);
  field("distinct_patterns", distinct_patterns);
  field("candidate_plans", candidate_plans);
  field("strips_read", strips_read);
  field("cross_rack_strips", cross_rack_strips);
  field("intra_rack_strips", intra_rack_strips);
  field("bytes_read", bytes_read);
  field("cross_rack_bytes", cross_rack_bytes);
  field("intra_rack_bytes", intra_rack_bytes);
  field("bytes_written", bytes_written);
  field("cross_rack_fraction", cross_rack_fraction());
  field("time_to_safe_ticks", time_to_safe_ticks);
  field("executed_stripes", executed_stripes);
  field("verified_stripes", verified_stripes);
  field("verify_failures", verify_failures);
  field("trace_fingerprint", trace_fingerprint);
  field("decision_fingerprint", decision_fingerprint, /*last=*/true);
  pad(os, indent);
  os << "}";
}

void write_comparison_json(std::ostream& os, const Topology& topo, PlacementPolicy policy,
                           size_t stripes, const FailureTrace& trace,
                           const std::vector<RepairReport>& reports) {
  os << "{\n";
  os << "  \"bench\": \"repair_traffic\",\n";
  os << "  \"topology\": {\"racks\": " << topo.racks
     << ", \"nodes_per_rack\": " << topo.nodes_per_rack
     << ", \"disks_per_node\": " << topo.disks_per_node << "},\n";
  os << "  \"policy\": \"" << policy_name(policy) << "\",\n";
  os << "  \"stripes\": " << stripes << ",\n";
  os << "  \"trace\": {\"events\": " << trace.size()
     << ", \"fingerprint\": " << trace.fingerprint() << "},\n";
  os << "  \"families\": [\n";
  for (size_t i = 0; i < reports.size(); ++i) {
    reports[i].write_json(os, 4);
    os << (i + 1 < reports.size() ? ",\n" : "\n");
  }
  os << "  ],\n";
  // The flat record view of the same numbers, in the shared BENCH_*.json
  // schema (name/config/metric/value) every bench artifact carries — one
  // parser serves all artifacts.
  os << "  \"records\": [\n";
  const std::pair<const char*, uint64_t (*)(const RepairReport&)> metrics[] = {
      {"chunks_repaired", [](const RepairReport& r) { return static_cast<uint64_t>(r.chunks_repaired); }},
      {"chunks_readmitted", [](const RepairReport& r) { return static_cast<uint64_t>(r.chunks_readmitted); }},
      {"strips_read", [](const RepairReport& r) { return static_cast<uint64_t>(r.strips_read); }},
      {"bytes_read", [](const RepairReport& r) { return r.bytes_read; }},
      {"cross_rack_bytes", [](const RepairReport& r) { return r.cross_rack_bytes; }},
      {"time_to_safe_ticks", [](const RepairReport& r) { return r.time_to_safe_ticks; }},
  };
  bool first = true;
  for (const RepairReport& r : reports)
    for (const auto& [metric, get] : metrics) {
      if (!first) os << ",\n";
      first = false;
      os << "    {\"name\": \"repair_traffic\", \"config\": \"" << r.spec
         << "\", \"metric\": \"" << metric << "\", \"value\": " << get(r) << "}";
    }
  os << "\n  ]\n}\n";
}

}  // namespace xorec::cluster
