// The live observability layer end to end: MetricsRegistry flattening every
// counter surface, Prometheus/bench-json rendering, the Sampler ring and its
// windowed rates, depth-driven shard placement, and the HTTP MonitorServer —
// scraped over real sockets under concurrent service traffic, with the same
// hostile-input discipline as test_net_frame.cpp for the parser.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "ec/plan_cache.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/monitor.hpp"
#include "obs/sampler.hpp"

using namespace xorec;
using namespace xorec::obs;

namespace {

CodecService::Options isolated(size_t shards = 2, size_t workers = 1) {
  CodecService::Options opt;
  opt.shards = shards;
  opt.workers_per_shard = workers;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  return opt;
}

/// Shared encode buffers: up to 10 data fragments and a per-use parity set,
/// all sized for the largest frag_len a test submits.
struct Buffers {
  static constexpr size_t kMaxFrag = 16384;
  std::vector<std::vector<uint8_t>> data;
  std::vector<const uint8_t*> data_ptrs;

  Buffers() : data(10, std::vector<uint8_t>(kMaxFrag)) {
    uint64_t x = 0x5EED;
    for (auto& frag : data)
      for (auto& b : frag) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<uint8_t>(x);
      }
    for (auto& frag : data) data_ptrs.push_back(frag.data());
  }
};

/// One pool's parity destination (jobs on one shard run FIFO, so reusing it
/// across that pool's jobs is race-free).
struct ParitySet {
  std::vector<std::vector<uint8_t>> bufs;
  std::vector<uint8_t*> ptrs;
  explicit ParitySet(size_t m) : bufs(m, std::vector<uint8_t>(Buffers::kMaxFrag)) {
    for (auto& b : bufs) ptrs.push_back(b.data());
  }
};

// ---- Prometheus text parser (strict enough to catch format bugs) -----------

/// Parses the exposition text, EXPECTing the invariants the format requires:
/// every family has exactly one `# HELP` + `# TYPE` pair, all its samples
/// are consecutive, and every sample line is `name[{labels}] value` with a
/// fully-parseable value. Returns family -> sample values.
std::map<std::string, std::vector<double>> parse_prometheus(const std::string& text) {
  std::map<std::string, std::vector<double>> out;
  std::set<std::string> finished;
  std::string open;  // family whose samples we are inside
  bool type_seen = false;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        ADD_FAILURE() << "malformed HELP line: " << line;
        continue;
      }
      const std::string fam = line.substr(7, sp - 7);
      if (!open.empty()) finished.insert(open);
      EXPECT_EQ(finished.count(fam), 0u) << fam << " appears in two groups";
      open = fam;
      type_seen = false;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        ADD_FAILURE() << "malformed TYPE line: " << line;
        continue;
      }
      EXPECT_EQ(line.substr(7, sp - 7), open) << "TYPE not adjacent to its HELP";
      const std::string kind = line.substr(sp + 1);
      EXPECT_TRUE(kind == "counter" || kind == "gauge") << line;
      EXPECT_FALSE(type_seen) << "duplicate TYPE for " << open;
      type_seen = true;
      continue;
    }
    EXPECT_NE(line[0], '#') << "unknown comment form: " << line;
    const size_t name_end = line.find_first_of("{ ");
    const size_t val_at = line.rfind(' ');
    if (name_end == std::string::npos || val_at == std::string::npos) {
      ADD_FAILURE() << "malformed sample line: " << line;
      continue;
    }
    const std::string fam = line.substr(0, name_end);
    EXPECT_EQ(fam, open) << "sample outside its family group: " << line;
    EXPECT_TRUE(type_seen) << "sample before TYPE: " << line;
    char* end = nullptr;
    const double v = std::strtod(line.c_str() + val_at + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value: " << line;
    out[fam].push_back(v);
  }
  return out;
}

// ---- raw HTTP client -------------------------------------------------------

struct HttpResult {
  std::string status;  // first line, e.g. "HTTP/1.0 200 OK"
  std::string headers;
  std::string body;
};

HttpResult http_raw(uint16_t port, const std::string& request) {
  HttpResult res;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return res;
  timeval tv{5, 0};
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return res;
  }
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + off, request.size() - off, MSG_NOSIGNAL);
    if (n <= 0) break;  // peer may already have answered-and-closed; keep reading
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t line_end = raw.find("\r\n");
  res.status = line_end == std::string::npos ? raw : raw.substr(0, line_end);
  const size_t split = raw.find("\r\n\r\n");
  if (split != std::string::npos) {
    res.headers = raw.substr(0, split);
    res.body = raw.substr(split + 4);
  }
  return res;
}

HttpResult http_get(uint16_t port, const std::string& path) {
  return http_raw(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

}  // namespace

// ---- registry + rendering --------------------------------------------------

TEST(ObsRegistry, FlattensEveryCounterSurface) {
  Buffers bufs;
  CodecService service(isolated());
  net::NetServer server(service, {});
  server.start();

  ServiceHandle h = service.acquire("rs(6,3)");
  ParitySet parity(3);
  for (int i = 0; i < 4; ++i)
    (void)h.encode(bufs.data_ptrs.data(), parity.ptrs.data(), 1024);
  (void)h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});
  service.flush();

  net::Client client("127.0.0.1", server.tcp_port());
  client.ping();

  MetricsRegistry registry;
  registry.attach(service);
  registry.attach(server);
  const MetricSnapshot snap = registry.collect();
  const ServiceStats st = service.stats();

  // Service + shard surface.
  EXPECT_EQ(snap.value_or("xorec_service_shards"), 2.0);
  EXPECT_EQ(snap.value_or("xorec_service_pools"), 1.0);
  double jobs = 0;
  for (const ShardStats& s : st.shards)
    jobs += snap.value_or("xorec_shard_jobs_total", {{"shard", std::to_string(s.shard)}});
  EXPECT_EQ(jobs, 4.0);
  EXPECT_NE(snap.find("xorec_shard_throughput_gBps", {{"shard", "0"}}), nullptr);

  // Pool surface, labelled by canonical spec.
  const std::vector<std::pair<std::string, std::string>> pool{{"pool", "rs(6,3)"}};
  EXPECT_EQ(snap.value_or("xorec_pool_encodes_total", pool), 4.0);
  EXPECT_EQ(snap.value_or("xorec_pool_plans_total", pool), 1.0);
  EXPECT_GT(snap.value_or("xorec_pool_cached_programs", pool), 0.0);

  // Plan-cache, warm-window and net surfaces all present.
  EXPECT_GT(snap.value_or("xorec_plan_cache_entries"), 0.0);
  EXPECT_EQ(snap.value_or("xorec_plan_cache_hits_total"), double(st.cache.hits));
  EXPECT_EQ(snap.value_or("xorec_plan_cache_misses_total"), double(st.cache.misses));
  EXPECT_NE(snap.find("xorec_plan_cache_warm_hit_ratio"), nullptr);
  EXPECT_GE(snap.value_or("xorec_net_requests_total"), 1.0);  // the ping
  EXPECT_GE(snap.value_or("xorec_net_connections_accepted_total"), 1.0);

  server.stop();
}

TEST(ObsRegistry, PrometheusRenderingGroupsFamiliesAndEscapesLabels) {
  CodecService service(isolated());
  ServiceHandle h = service.acquire("rs(6,3)");
  (void)h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});

  MetricsRegistry registry;
  registry.attach(service);
  registry.add_source([](std::vector<Metric>& out) {
    out.push_back({"xorec_test_hostile_label",
                   {{"tenant", "a\"b\\c\nd"}},
                   MetricKind::Gauge,
                   "test",
                   "Label escaping probe.",
                   1});
  });

  const std::string text = render_prometheus(registry.collect());
  const auto families = parse_prometheus(text);
  EXPECT_GT(families.size(), 10u);
  // Interleaved emission (shard 0's whole set, then shard 1's) must come out
  // grouped — parse_prometheus EXPECTs that; spot-check one family has both.
  ASSERT_EQ(families.count("xorec_shard_queue_depth"), 1u);
  EXPECT_EQ(families.at("xorec_shard_queue_depth").size(), 2u);
  // Escaped label value, one escape per hostile byte.
  EXPECT_NE(text.find("xorec_test_hostile_label{tenant=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
  // Counters render under their _total names with integral formatting.
  EXPECT_NE(text.find("# TYPE xorec_plan_cache_misses_total counter"),
            std::string::npos);
}

TEST(ObsRegistry, StatsJsonUsesTheBenchRecordSchema) {
  CodecService service(isolated());
  (void)service.acquire("rs(6,3)");
  MetricsRegistry registry;
  registry.attach(service);
  const std::string json = render_stats_json(registry.collect());
  EXPECT_NE(json.find("\"bench\": \"monitor\""), std::string::npos);
  EXPECT_NE(json.find("\"records\": ["), std::string::npos);
  // One spot-checked record row: group name, label-set config cell, metric.
  EXPECT_NE(json.find("{\"name\": \"shard\", \"config\": \"shard=0\", "
                      "\"metric\": \"xorec_shard_workers\", \"value\": 1}"),
            std::string::npos);
  // Unlabelled metrics get the "-" config cell.
  EXPECT_NE(json.find("{\"name\": \"service\", \"config\": \"-\", "
                      "\"metric\": \"xorec_service_shards\", \"value\": 2}"),
            std::string::npos);
}

// ---- sampler ----------------------------------------------------------------

TEST(ObsSampler, RingIsBoundedAndRatesAreWindowedNotLifetime) {
  MetricsRegistry registry;
  std::atomic<double> counter{0};
  std::atomic<double> gauge{0};
  registry.add_source([&](std::vector<Metric>& out) {
    out.push_back({"test_counter_total", {}, MetricKind::Counter, "test", "", counter.load()});
    out.push_back({"test_gauge", {}, MetricKind::Gauge, "test", "", gauge.load()});
  });

  SamplerOptions opt;
  opt.capacity = 4;
  Sampler sampler(registry, opt);
  for (int i = 1; i <= 10; ++i) {
    counter.store(counter.load() + 100);
    gauge.store(i);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sampler.sample_now();
  }
  EXPECT_EQ(sampler.samples(), 4u);  // ring bounded, oldest evicted
  EXPECT_GT(sampler.window_seconds(), 0.0);
  // Mean over the surviving window = samples 7..10 only — a lifetime mean
  // over all 10 would be 5.5.
  EXPECT_DOUBLE_EQ(sampler.window_mean("test_gauge"), (7 + 8 + 9 + 10) / 4.0);
  // Rate over the window: 300 counted across the ring's timespan.
  const double rate = sampler.rate_per_second("test_counter_total");
  EXPECT_GT(rate, 0.0);
  EXPECT_NEAR(rate * sampler.window_seconds(), 300.0, 1e-6);
  // Absent metrics: zero, not a crash.
  EXPECT_EQ(sampler.rate_per_second("no_such_metric"), 0.0);
  EXPECT_EQ(sampler.window_mean("no_such_metric"), 0.0);
}

TEST(ObsSampler, WindowMetricsRideEveryScrape) {
  Buffers bufs;
  CodecService service(isolated());
  MetricsRegistry registry;
  registry.attach(service);
  Sampler sampler(registry);

  ServiceHandle h = service.acquire("rs(6,3)");
  ParitySet parity(3);
  sampler.sample_now();
  for (int i = 0; i < 8; ++i)
    (void)h.encode(bufs.data_ptrs.data(), parity.ptrs.data(), 1024);
  service.flush();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  sampler.sample_now();

  const MetricSnapshot snap = registry.collect();
  EXPECT_EQ(snap.value_or("xorec_window_samples"), 2.0);
  EXPECT_GT(snap.value_or("xorec_window_seconds"), 0.0);
  EXPECT_NE(snap.find("xorec_shard_queue_depth_window_mean", {{"shard", "0"}}), nullptr);
  EXPECT_NE(snap.find("xorec_shard_queue_depth_window_mean", {{"shard", "1"}}), nullptr);
  // The windowed throughput saw this window's bytes (8 jobs * 6 * 1024 in),
  // where the lifetime average would dilute them over uptime.
  double win_gBps = 0;
  for (const char* s : {"0", "1"})
    win_gBps += snap.value_or("xorec_shard_throughput_window_gBps", {{"shard", s}});
  EXPECT_GT(win_gBps, 0.0);
  EXPECT_NE(snap.find("xorec_plan_cache_hit_ratio_window"), nullptr);
}

// ---- /metrics family names --------------------------------------------------

// The families /metrics renders for a service after one encode and one
// reconstruct on rs(6,3), sorted. A family added, renamed or dropped fails
// here, so every change to the exposition's names is a deliberate one.
const std::vector<std::string> kServiceFamilies = {
    "xorec_plan_cache_compile_seconds_total",
    "xorec_plan_cache_entries",
    "xorec_plan_cache_evictions_total",
    "xorec_plan_cache_hits_total",
    "xorec_plan_cache_misses_total",
    "xorec_plan_cache_warm_hit_ratio",
    "xorec_plan_cache_warm_hits_total",
    "xorec_plan_cache_warm_misses_total",
    "xorec_pool_cached_programs",
    "xorec_pool_clients_total",
    "xorec_pool_encodes_total",
    "xorec_pool_info",
    "xorec_pool_net_bytes_in_total",
    "xorec_pool_net_bytes_out_total",
    "xorec_pool_net_requests_total",
    "xorec_pool_plans_total",
    "xorec_pool_reconstructs_total",
    "xorec_pool_repair_bytes_in_total",
    "xorec_pool_repair_bytes_out_total",
    "xorec_pool_strips_read_total",
    "xorec_service_pools",
    "xorec_service_shards",
    "xorec_service_uptime_seconds",
    "xorec_shard_bytes_coded_total",
    "xorec_shard_jobs_total",
    "xorec_shard_pools",
    "xorec_shard_queue_depth",
    "xorec_shard_throughput_gBps",
    "xorec_shard_workers",
};

TEST(ObsMetrics, ServiceFamilyNamesArePinned) {
  CodecService service(isolated());
  ServiceHandle h = service.acquire("rs(6,3)");
  Buffers bufs;
  ParitySet parity(3);
  constexpr size_t kFrag = 1024;
  h.encode(bufs.data_ptrs.data(), parity.ptrs.data(), kFrag).get();

  std::vector<const uint8_t*> avail(bufs.data_ptrs.begin() + 1, bufs.data_ptrs.begin() + 6);
  avail.push_back(parity.ptrs[0]);
  std::vector<uint8_t> rebuilt(kFrag);
  uint8_t* out = rebuilt.data();
  const auto plan = h.plan_reconstruct({1, 2, 3, 4, 5, 6}, {0});
  h.reconstruct(plan, avail.data(), &out, kFrag).get();
  EXPECT_TRUE(std::equal(rebuilt.begin(), rebuilt.end(), bufs.data[0].begin()));

  MetricsRegistry registry;
  registry.attach(service);
  std::vector<std::string> families;
  for (const auto& [name, values] : parse_prometheus(render_prometheus(registry.collect())))
    families.push_back(name);
  EXPECT_EQ(families, kServiceFamilies);
}

// The families /metrics renders for an attached NetServer, sorted: every
// NetServerStats field, all rendered even before the first connection.
const std::vector<std::string> kNetServerFamilies = {
    "xorec_net_backpressure_stalls_total",
    "xorec_net_connections_accepted_total",
    "xorec_net_connections_open",
    "xorec_net_errors_total",
    "xorec_net_gather_bytes_saved_total",
    "xorec_net_requests_total",
    "xorec_net_responses_total",
    "xorec_net_tcp_bytes_in_total",
    "xorec_net_tcp_bytes_out_total",
    "xorec_net_udp_degraded_reads_total",
    "xorec_net_udp_groups_total",
    "xorec_net_udp_unrecoverable_total",
    "xorec_net_writev_calls_total",
    "xorec_net_writev_segments_total",
};

TEST(ObsMetrics, NetServerFamilyNamesArePinned) {
  CodecService service(isolated());
  net::NetServer server(service, {});
  server.start();
  net::Client client("127.0.0.1", server.tcp_port());
  client.ping();

  MetricsRegistry registry;
  registry.attach(server);
  std::vector<std::string> families;
  for (const auto& [name, values] : parse_prometheus(render_prometheus(registry.collect())))
    families.push_back(name);
  EXPECT_EQ(families, kNetServerFamilies);
  server.stop();
}

// ---- depth-driven placement -------------------------------------------------

namespace {

/// Submit `n` encode jobs for `h` (m parity strips into `parity`).
void submit_encodes(const ServiceHandle& h, const Buffers& bufs, ParitySet& parity,
                    size_t n, size_t frag_len) {
  for (size_t i = 0; i < n; ++i)
    (void)h.encode(bufs.data_ptrs.data(), parity.ptrs.data(), frag_len);
}

size_t shard_submitted_spread(const ServiceStats& st) {
  const size_t a = st.shards[0].submitted, b = st.shards[1].submitted;
  return a > b ? a - b : b - a;
}

const char* kNewSpecs[6] = {"rs(4,2)", "rs(5,2)", "rs(7,2)",
                            "rs(8,2)", "rs(9,2)", "rs(10,2)"};

}  // namespace

TEST(ObsService, DepthDrivenPlacementNarrowsTheShardSpread) {
  constexpr size_t kBacklog = 240, kTopup = 40, kMaxTopups = 4, kPerPool = 40;
  Buffers bufs;

  // --- measured-depth placement --------------------------------------------
  CodecService driven(isolated());
  MetricsRegistry registry;
  registry.attach(driven);
  Sampler sampler(registry);  // sampled manually: the test controls time
  sampler.drive_placement(driven);

  // With an empty ring the provider reports nothing: first pool falls back
  // to round-robin and lands on shard 0.
  ServiceHandle h0 = driven.acquire("rs(6,3)");
  ASSERT_EQ(h0.shard(), 0u);

  // Skew: pile a big-fragment backlog on shard 0, then sample until the
  // ring has seen it (the means are sticky — shard 1's mean stays exactly 0
  // until a job is ever routed there, so the skew cannot invert).
  ParitySet backlog_parity(3);
  size_t backlog = kBacklog;
  submit_encodes(h0, bufs, backlog_parity, kBacklog, Buffers::kMaxFrag);
  sampler.sample_now();
  std::vector<double> means = sampler.shard_depth_means();
  for (size_t t = 0; means.size() < 2 || means[0] <= means[1]; ++t) {
    ASSERT_LT(t, kMaxTopups) << "sampler never observed the shard-0 backlog";
    submit_encodes(h0, bufs, backlog_parity, kTopup, Buffers::kMaxFrag);
    backlog += kTopup;
    sampler.sample_now();
    means = sampler.shard_depth_means();
  }
  ASSERT_GT(means[0], 0.0);

  // Every new pool routes to the measured-least-loaded shard 1 — round-robin
  // would have alternated them onto the drowning shard 0.
  std::vector<ServiceHandle> pools;
  for (const char* spec : kNewSpecs) {
    pools.push_back(driven.acquire(spec));
    EXPECT_EQ(pools.back().shard(), 1u) << spec;
  }
  {
    const ServiceStats st = driven.stats();
    EXPECT_EQ(st.shards[0].pools, 1u);
    EXPECT_EQ(st.shards[1].pools, 6u);
  }

  std::vector<std::unique_ptr<ParitySet>> parity_sets;
  for (ServiceHandle& h : pools) {
    parity_sets.push_back(std::make_unique<ParitySet>(2));
    submit_encodes(h, bufs, *parity_sets.back(), kPerPool, 1024);
  }
  driven.flush();
  const size_t driven_spread = shard_submitted_spread(driven.stats());
  // shard0 = backlog (240..400), shard1 = 6 * 40 = 240.
  EXPECT_EQ(driven.stats().shards[1].submitted, 6 * kPerPool);

  // --- round-robin control ---------------------------------------------------
  CodecService control(isolated());
  ServiceHandle c0 = control.acquire("rs(6,3)");
  ASSERT_EQ(c0.shard(), 0u);
  ParitySet control_parity(3);
  submit_encodes(c0, bufs, control_parity, kBacklog, Buffers::kMaxFrag);
  std::vector<ServiceHandle> control_pools;
  for (const char* spec : kNewSpecs) control_pools.push_back(control.acquire(spec));
  std::vector<std::unique_ptr<ParitySet>> control_sets;
  for (ServiceHandle& h : control_pools) {
    control_sets.push_back(std::make_unique<ParitySet>(2));
    submit_encodes(h, bufs, *control_sets.back(), kPerPool, 1024);
  }
  control.flush();
  const size_t control_spread = shard_submitted_spread(control.stats());

  // Deterministically: control = |(240 + 3*40) - 3*40| = 240; driven is at
  // most |400 - 240| = 160. Depth-driven placement measurably narrowed it.
  EXPECT_EQ(control_spread, kBacklog);
  EXPECT_LT(driven_spread, control_spread)
      << "driven=" << driven_spread << " control=" << control_spread
      << " backlog=" << backlog;
}

TEST(ObsService, BrokenOrMissizedLoadProvidersFallBackToRoundRobin) {
  CodecService service(isolated());
  service.set_shard_load_provider(
      []() -> std::vector<double> { throw std::runtime_error("broken"); });
  EXPECT_EQ(service.acquire("rs(4,2)").shard(), 0u);  // round-robin, not a throw
  service.set_shard_load_provider([] { return std::vector<double>{1.0}; });  // wrong size
  EXPECT_EQ(service.acquire("rs(5,2)").shard(), 1u);
  service.set_shard_load_provider({});  // detached
  EXPECT_EQ(service.acquire("rs(7,2)").shard(), 0u);
}

// ---- monitor over real sockets ---------------------------------------------

TEST(ObsMonitor, ServesMetricsAndStatsJsonUnderConcurrentTraffic) {
  CodecService service(isolated());
  net::NetServer server(service, {});
  MetricsRegistry registry;
  registry.attach(service);
  registry.attach(server);
  SamplerOptions sopt;
  sopt.interval = std::chrono::milliseconds(5);
  Sampler sampler(registry, sopt);
  sampler.start();
  MonitorServer monitor(registry);
  EXPECT_GT(monitor.port(), 0);  // ephemeral port known before start()
  monitor.start();
  server.start();

  // Concurrent load on the serving path while we scrape.
  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    Buffers bufs;
    ParitySet parity(4);
    net::Client client("127.0.0.1", server.tcp_port());
    while (!stop.load())
      client.encode("rs(6,4)", bufs.data_ptrs.data(), 6, parity.ptrs.data(), 4, 1024);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const HttpResult first = http_get(monitor.port(), "/metrics");
  ASSERT_EQ(first.status, "HTTP/1.0 200 OK");
  EXPECT_NE(first.headers.find("Content-Type: text/plain"), std::string::npos);
  const auto fam1 = parse_prometheus(first.body);
  for (const char* required :
       {"xorec_service_uptime_seconds", "xorec_shard_queue_depth",
        "xorec_plan_cache_hits_total", "xorec_plan_cache_misses_total",
        "xorec_net_requests_total", "xorec_net_tcp_bytes_in_total",
        "xorec_window_samples"})
    EXPECT_EQ(fam1.count(required), 1u) << required;

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const HttpResult second = http_get(monitor.port(), "/metrics?probe=1");
  ASSERT_EQ(second.status, "HTTP/1.0 200 OK");
  const auto fam2 = parse_prometheus(second.body);
  // Counters are monotonic across scrapes, and traffic moved between them.
  for (const char* counter :
       {"xorec_net_requests_total", "xorec_net_tcp_bytes_in_total",
        "xorec_plan_cache_hits_total"})
    EXPECT_GE(fam2.at(counter)[0], fam1.at(counter)[0]) << counter;
  EXPECT_GT(fam2.at("xorec_net_requests_total")[0],
            fam1.at("xorec_net_requests_total")[0]);

  const HttpResult json = http_get(monitor.port(), "/stats.json");
  ASSERT_EQ(json.status, "HTTP/1.0 200 OK");
  EXPECT_NE(json.headers.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(json.body.find("\"bench\": \"monitor\""), std::string::npos);
  EXPECT_NE(json.body.find("\"metric\": \"xorec_net_requests_total\""),
            std::string::npos);

  stop.store(true);
  traffic.join();
  server.stop();
  monitor.stop();
  sampler.stop();
  EXPECT_GE(monitor.stats().requests, 3u);
}

TEST(ObsMonitor, MalformedAndOversizedRequestsGetAClean4xx) {
  MetricsRegistry registry;  // empty registry: parsing is what's under test
  MonitorServer monitor(registry);
  monitor.start();
  const uint16_t port = monitor.port();

  // No-space request line: 400 from a static literal.
  EXPECT_EQ(http_raw(port, "GARBAGE\r\n\r\n").status, "HTTP/1.0 400 Bad Request");
  // Binary garbage (control bytes can never start a request line): 400
  // immediately, without waiting for a terminator that will never come.
  EXPECT_EQ(http_raw(port, std::string("\x01\xffZZ\x02", 5)).status,
            "HTTP/1.0 400 Bad Request");
  // Missing the HTTP/ version token: 400.
  EXPECT_EQ(http_raw(port, "GET /metrics\r\n\r\n").status, "HTTP/1.0 400 Bad Request");
  // Wrong method on a known path: 405.
  EXPECT_EQ(http_raw(port, "POST /metrics HTTP/1.0\r\n\r\n").status,
            "HTTP/1.0 405 Method Not Allowed");
  // Unknown path: 404.
  EXPECT_EQ(http_get(port, "/nope").status, "HTTP/1.0 404 Not Found");
  // Exactly fills the fixed request buffer with no terminator: 431 — request
  // size cannot drive allocation because there is nowhere bigger to read to.
  EXPECT_EQ(http_raw(port, std::string(1024, 'A')).status,
            "HTTP/1.0 431 Request Header Fields Too Large");

  // The server survived all of it and still serves (with an empty registry,
  // /metrics legitimately renders zero families).
  EXPECT_EQ(http_get(port, "/metrics").status, "HTTP/1.0 200 OK");

  const MonitorStats st = monitor.stats();
  EXPECT_GE(st.bad_requests, 6u);
  EXPECT_GE(st.requests, 1u);
  monitor.stop();
}
