// Live observability: one flattened, named view over every counter surface
// in the process — the scrapable half of the ROADMAP's "operable service"
// item. XORing Elephants makes its repair-traffic argument from *measured
// production counters*; this is where ours become measurable.
//
// Three pieces, composed by the caller (examples/net_server.cpp shows the
// full wiring):
//
//   obs::MetricsRegistry registry;          // what to measure
//   registry.attach(service);               // ServiceStats + plan cache
//   registry.attach(net_server);            // NetServerStats
//
//   obs::Sampler sampler(registry);         // time series (obs/sampler.hpp)
//   sampler.drive_placement(service);       // depth-driven shard placement
//   sampler.start();
//
//   obs::MonitorServer monitor(registry);   // obs/monitor.hpp
//   monitor.start();                        // GET /metrics, /stats.json
//
// A MetricSnapshot is a flat vector of (name, labels, value): Prometheus'
// data model, chosen so the text exposition renders mechanically and the
// sampler can diff any counter across time without per-source code. Sources
// are read at collect() time through their own thread-safe stats()
// snapshots — attaching a source never adds a lock to a serving path.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xorec {
class CodecService;
}
namespace xorec::net {
class NetServer;
}

namespace xorec::obs {

enum class MetricKind { Counter, Gauge };

/// One flattened sample: a fully-qualified Prometheus-style name
/// (counters end in `_total`), an optional label set, and a value.
/// `group` tags the owning subsystem ("shard", "pool", "plan_cache", "net",
/// "window") — the record family of the /stats.json document.
struct Metric {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  MetricKind kind = MetricKind::Gauge;
  const char* group = "";
  const char* help = "";
  double value = 0;
};

struct MetricSnapshot {
  std::chrono::steady_clock::time_point at{};
  std::vector<Metric> metrics;

  /// The metric with this exact name + label set, or nullptr.
  const Metric* find(std::string_view name,
                     const std::vector<std::pair<std::string, std::string>>& labels = {})
      const;
  double value_or(std::string_view name,
                  const std::vector<std::pair<std::string, std::string>>& labels = {},
                  double fallback = 0) const;
};

/// Flattens every attached counter surface into one MetricSnapshot on
/// demand. Sources must stay alive while attached (the registry holds
/// references, not ownership). Thread-safe: attach and collect may race.
class MetricsRegistry {
 public:
  using Source = std::function<void(std::vector<Metric>&)>;

  /// ServiceStats: shards (workers/jobs/depth/bytes/throughput/pools),
  /// pools (ops, repair traffic, net traffic, exec info), the plan-cache
  /// view and the warm window.
  void attach(const CodecService& service);
  /// NetServerStats: connections, requests/responses/errors, backpressure,
  /// byte counters, writev gather counters, UDP group outcomes.
  void attach(const net::NetServer& server);
  /// Arbitrary extra source (appends metrics; must be thread-safe).
  void add_source(Source source);

  MetricSnapshot collect() const;

 private:
  mutable std::mutex mu_;
  std::vector<Source> sources_;
};

/// Prometheus text exposition (format version 0.0.4): families grouped in
/// first-occurrence order, one `# HELP`/`# TYPE` pair per family, label
/// values escaped. Whole-number values print without a decimal point so
/// byte-identical states render byte-identically.
std::string render_prometheus(const MetricSnapshot& snapshot);

/// The /stats.json document: the bench_json.hpp record schema
/// ({name, config, metric, value} rows), so the same tooling that consumes
/// BENCH_*.json artifacts consumes monitor snapshots. `name` is the metric
/// group, `config` the rendered label set ("-" when unlabelled), `metric`
/// the metric name.
std::string render_stats_json(const MetricSnapshot& snapshot);

/// "shard=0,pool=rs(6,4)" — the /stats.json config-cell rendering of a
/// metric's label set; "-" for an empty set.
std::string render_label_set(const Metric& metric);

}  // namespace xorec::obs
