#include "obs/metrics.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <unordered_set>

#include "api/service.hpp"
#include "bench/bench_json.hpp"
#include "net/server.hpp"

namespace xorec::obs {

namespace {

/// Whole numbers print without a decimal point (same rule as the bench
/// JSON artifacts: byte-identical states render byte-identically).
std::string format_value(double v) {
  if (std::floor(v) == v && std::fabs(v) < 9.0e15)
    return std::to_string(static_cast<long long>(v));
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string escape_label_value(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '"')
      out += "\\\"";
    else if (c == '\n')
      out += "\\n";
    else
      out += c;
  }
  return out;
}

using Labels = std::vector<std::pair<std::string, std::string>>;

struct Emit {
  std::vector<Metric>& out;
  const char* group;

  void counter(std::string name, Labels labels, const char* help, double v) {
    out.push_back({std::move(name), std::move(labels), MetricKind::Counter, group, help, v});
  }
  void gauge(std::string name, Labels labels, const char* help, double v) {
    out.push_back({std::move(name), std::move(labels), MetricKind::Gauge, group, help, v});
  }
};

void append_service(const CodecService& service, std::vector<Metric>& out) {
  const ServiceStats st = service.stats();

  Emit svc{out, "service"};
  svc.gauge("xorec_service_uptime_seconds", {}, "Seconds since service construction.",
            st.uptime_s);
  svc.gauge("xorec_service_shards", {}, "Shard (worker queue) count.",
            static_cast<double>(st.shards.size()));
  svc.gauge("xorec_service_pools", {}, "Pooled codec instances (creation order, never dropped).",
            static_cast<double>(st.pools.size()));

  Emit shard{out, "shard"};
  for (const ShardStats& s : st.shards) {
    const Labels l{{"shard", std::to_string(s.shard)}};
    shard.gauge("xorec_shard_workers", l, "Dedicated TaskQueue workers of this shard.",
                static_cast<double>(s.workers));
    shard.gauge("xorec_shard_pools", l, "Pools pinned to this shard.",
                static_cast<double>(s.pools));
    shard.counter("xorec_shard_jobs_total", l, "Jobs routed to this shard.",
                  static_cast<double>(s.submitted));
    shard.gauge("xorec_shard_queue_depth", l,
                "Jobs submitted but not yet finished (TaskQueue::depth), right now.",
                static_cast<double>(s.queue_depth));
    shard.counter("xorec_shard_bytes_coded_total", l,
                  "Payload bytes moved by routed jobs (data in + rebuilt out).",
                  static_cast<double>(s.bytes_coded));
    shard.gauge("xorec_shard_throughput_gBps", l,
                "Lifetime-average gigabytes/s (bytes_coded / uptime); windowed rates "
                "come from the sampler (xorec_shard_throughput_window_gBps).",
                s.throughput_gBps);
  }

  Emit pool{out, "pool"};
  for (const PoolStats& p : st.pools) {
    const Labels l{{"pool", p.spec}};
    pool.counter("xorec_pool_clients_total", l, "acquire() calls resolved to this pool.",
                 static_cast<double>(p.clients));
    pool.counter("xorec_pool_encodes_total", l, "Routed encode jobs.",
                 static_cast<double>(p.encodes));
    pool.counter("xorec_pool_plans_total", l, "plan_reconstruct calls through handles.",
                 static_cast<double>(p.plans));
    pool.counter("xorec_pool_reconstructs_total", l, "Routed reconstruct/rebuild jobs.",
                 static_cast<double>(p.reconstructs));
    pool.gauge("xorec_pool_cached_programs", l,
               "Plan-cache entries for this codec identity, right now.",
               static_cast<double>(p.cached_programs));
    pool.counter("xorec_pool_strips_read_total", l,
                 "Survivor strips read by repair jobs (plan read_set granularity).",
                 static_cast<double>(p.strips_read));
    pool.counter("xorec_pool_repair_bytes_in_total", l, "Survivor bytes read by repair jobs.",
                 static_cast<double>(p.repair_bytes_in));
    pool.counter("xorec_pool_repair_bytes_out_total", l, "Rebuilt bytes written by repair jobs.",
                 static_cast<double>(p.repair_bytes_out));
    pool.counter("xorec_pool_net_requests_total", l,
                 "Wire requests attributed to this pool by the net front-end.",
                 static_cast<double>(p.net_requests));
    pool.counter("xorec_pool_net_bytes_in_total", l, "Wire bytes received for this pool.",
                 static_cast<double>(p.net_bytes_in));
    pool.counter("xorec_pool_net_bytes_out_total", l, "Wire bytes sent for this pool.",
                 static_cast<double>(p.net_bytes_out));
    Labels info{{"pool", p.spec},
                {"shard", std::to_string(p.shard)},
                {"exec", p.exec_backend},
                {"isa", p.exec_isa}};
    pool.gauge("xorec_pool_info", std::move(info),
               "Constant 1: pool shard pin and resolved exec backend/ISA as labels.", 1);
  }

  Emit cache{out, "plan_cache"};
  cache.gauge("xorec_plan_cache_entries", {}, "Compiled programs currently cached.",
              static_cast<double>(st.cache.entries));
  cache.counter("xorec_plan_cache_hits_total", {}, "Plan lookups served without compiling.",
                static_cast<double>(st.cache.hits));
  cache.counter("xorec_plan_cache_misses_total", {}, "Plan lookups that compiled.",
                static_cast<double>(st.cache.misses));
  cache.counter("xorec_plan_cache_evictions_total", {}, "Entries LRU-evicted.",
                static_cast<double>(st.cache.evictions));
  cache.counter("xorec_plan_cache_compile_seconds_total", {},
                "Wall time spent compiling on misses.",
                static_cast<double>(st.cache.compile_ns) / 1e9);
  cache.counter("xorec_plan_cache_warm_hits_total", {},
                "Hits since the warmup point (the serving-window numerator).",
                static_cast<double>(st.warm_hits));
  cache.counter("xorec_plan_cache_warm_misses_total", {},
                "Misses since the warmup point.", static_cast<double>(st.warm_misses));
  cache.gauge("xorec_plan_cache_warm_hit_ratio", {},
              "Hit ratio of the serving window (lifetime; windowed ratio comes from "
              "the sampler as xorec_plan_cache_hit_ratio_window).",
              st.warm_hit_rate());
}

void append_net(const net::NetServer& server, std::vector<Metric>& out) {
  const net::NetServerStats st = server.stats();
  Emit net{out, "net"};
  net.counter("xorec_net_connections_accepted_total", {}, "TCP connections accepted.",
              static_cast<double>(st.connections_accepted));
  net.gauge("xorec_net_connections_open", {}, "TCP connections open right now.",
            static_cast<double>(st.connections_open));
  net.counter("xorec_net_requests_total", {}, "Well-formed TCP requests dispatched.",
              static_cast<double>(st.requests));
  net.counter("xorec_net_responses_total", {}, "Response frames written (incl. Pong).",
              static_cast<double>(st.responses));
  net.counter("xorec_net_errors_total", {}, "Error frames written + fatal parse closes.",
              static_cast<double>(st.errors));
  net.counter("xorec_net_backpressure_stalls_total", {},
              "Requests parked on a full shard queue.",
              static_cast<double>(st.backpressure_stalls));
  net.counter("xorec_net_tcp_bytes_in_total", {}, "TCP bytes received.",
              static_cast<double>(st.tcp_bytes_in));
  net.counter("xorec_net_tcp_bytes_out_total", {}, "TCP bytes sent.",
              static_cast<double>(st.tcp_bytes_out));
  net.counter("xorec_net_writev_calls_total", {}, "writev(2) calls on the send path.",
              static_cast<double>(st.writev_calls));
  net.counter("xorec_net_writev_segments_total", {}, "iovec entries across all writev calls.",
              static_cast<double>(st.writev_segments));
  net.counter("xorec_net_gather_bytes_saved_total", {},
              "Response-body bytes never re-copied thanks to scatter/gather.",
              static_cast<double>(st.gather_bytes_saved));
  net.counter("xorec_net_udp_groups_total", {}, "UDP stripe groups completed.",
              static_cast<double>(st.udp_groups));
  net.counter("xorec_net_udp_degraded_reads_total", {},
              "Groups that needed reconstruction.",
              static_cast<double>(st.udp_degraded_reads));
  net.counter("xorec_net_udp_unrecoverable_total", {},
              "Groups beyond the code's tolerance.",
              static_cast<double>(st.udp_unrecoverable));
}

}  // namespace

const Metric* MetricSnapshot::find(
    std::string_view name,
    const std::vector<std::pair<std::string, std::string>>& labels) const {
  for (const Metric& m : metrics)
    if (m.name == name && m.labels == labels) return &m;
  return nullptr;
}

double MetricSnapshot::value_or(
    std::string_view name, const std::vector<std::pair<std::string, std::string>>& labels,
    double fallback) const {
  const Metric* m = find(name, labels);
  return m ? m->value : fallback;
}

void MetricsRegistry::attach(const CodecService& service) {
  add_source([&service](std::vector<Metric>& out) { append_service(service, out); });
}

void MetricsRegistry::attach(const net::NetServer& server) {
  add_source([&server](std::vector<Metric>& out) { append_net(server, out); });
}

void MetricsRegistry::add_source(Source source) {
  std::lock_guard lk(mu_);
  sources_.push_back(std::move(source));
}

MetricSnapshot MetricsRegistry::collect() const {
  std::vector<Source> sources;
  {
    std::lock_guard lk(mu_);
    sources = sources_;
  }
  MetricSnapshot snap;
  snap.at = std::chrono::steady_clock::now();
  // Sources run OUTSIDE the registry lock: each reads its subsystem's own
  // thread-safe stats() snapshot, and a slow source must not serialize a
  // concurrent scrape.
  for (const Source& s : sources) s(snap.metrics);
  return snap;
}

std::string render_label_set(const Metric& metric) {
  if (metric.labels.empty()) return "-";
  std::string out;
  for (size_t i = 0; i < metric.labels.size(); ++i) {
    if (i) out += ",";
    out += metric.labels[i].first + "=" + metric.labels[i].second;
  }
  return out;
}

std::string render_prometheus(const MetricSnapshot& snapshot) {
  // The exposition format requires every sample of a family to appear as
  // one group. Sources interleave families (per-shard loops emit shard 0's
  // whole set, then shard 1's), so group by name in first-occurrence order.
  std::vector<std::string_view> family_order;
  std::unordered_set<std::string_view> seen;
  for (const Metric& m : snapshot.metrics)
    if (seen.insert(m.name).second) family_order.push_back(m.name);

  std::string out;
  for (std::string_view family : family_order) {
    bool header_done = false;
    for (const Metric& m : snapshot.metrics) {
      if (m.name != family) continue;
      if (!header_done) {
        out += "# HELP ";
        out += m.name;
        out += " ";
        out += m.help;
        out += "\n# TYPE ";
        out += m.name;
        out += m.kind == MetricKind::Counter ? " counter\n" : " gauge\n";
        header_done = true;
      }
      out += m.name;
      if (!m.labels.empty()) {
        out += "{";
        for (size_t i = 0; i < m.labels.size(); ++i) {
          if (i) out += ",";
          out += m.labels[i].first;
          out += "=\"";
          out += escape_label_value(m.labels[i].second);
          out += "\"";
        }
        out += "}";
      }
      out += " ";
      out += format_value(m.value);
      out += "\n";
    }
  }
  return out;
}

std::string render_stats_json(const MetricSnapshot& snapshot) {
  std::vector<bench::BenchRecord> records;
  records.reserve(snapshot.metrics.size());
  for (const Metric& m : snapshot.metrics)
    records.push_back({m.group, render_label_set(m), m.name, m.value});
  std::ostringstream os;
  bench::write_bench_json(os, "monitor", {{"generator", "xorec-monitor"}}, records);
  return os.str();
}

}  // namespace xorec::obs
