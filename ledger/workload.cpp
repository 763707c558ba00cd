#include "workload.hpp"

#include <sys/resource.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <stdexcept>
#include <thread>

#include "api/xorec.hpp"
#include "ec/plan_cache.hpp"
#include "kernel/xor_kernel.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "slp/metrics.hpp"
#include "slp/pipeline.hpp"
#include "stats.hpp"

namespace ledger {

namespace {

constexpr uint32_t kK = 10, kM = 4, kN = kK + kM;
// The paper's configuration (§7.5, B = 1K) with the default exec and isa.
const std::string kSpec = "rs(10,4)@block=1024";
// Unoptimized SLP on the interpreting executor: the reference shares no
// optimizer pass and not the lowered executor with the code under test.
const std::string kReferenceSpec = "naive_xor(10,4)@exec=interp";
const std::string kBaselineSpec = "isal(10,4)";
constexpr size_t kPatterns = 16;
constexpr uint32_t kEncoderPattern = kPatterns;  // Request::pattern of encodes
// Cold set-ups per run: at least kMinSetups, and enough that they add up to
// kMinSetupSeconds, so a cheap set-up is sampled as often as an expensive one.
constexpr size_t kMinSetups = 7;
constexpr double kMinSetupSeconds = 3.0;
constexpr uint64_t kSampleEvery = 16;
constexpr size_t kSpanCapacity = size_t{1} << 20;
constexpr double kWarmupSeconds = 0.5;
// A window is kSlices load slices, each followed by a memcpy ceiling sample
// of kCeilingSampleSeconds, so the ceiling is sampled across the window.
constexpr int kSlices = 10;
constexpr double kCeilingSampleSeconds = 0.004;

uint64_t mix(uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_draw(std::mt19937_64& rng) { return static_cast<double>(rng() >> 11) * 0x1.0p-53; }

// ---- inputs ----------------------------------------------------------------

struct Pattern {
  std::vector<uint32_t> available, erased;  // both ascending
};

enum class Op : uint8_t { Encode, Reconstruct };

struct Request {
  uint64_t id = 0;
  Op op = Op::Encode;
  uint32_t object = 0;
  uint32_t pattern = kEncoderPattern;  // index into Inputs::patterns for reconstructs
  bool sampled = false;                // replayed layer by layer in traced windows
};

/// Owned fragment buffers with their pointer array.
struct Frags {
  std::vector<uint8_t> bytes;
  std::vector<uint8_t*> ptrs;
  Frags(size_t count, size_t frag_len) : bytes(count * frag_len) {
    for (size_t i = 0; i < count; ++i) ptrs.push_back(bytes.data() + i * frag_len);
  }
  Frags(Frags&&) = default;  // a move keeps the buffer, so `ptrs` stay valid
  Frags(const Frags&) = delete;
};

/// Everything the program receives: the stripes (seeded data plus
/// reference parity) and the 16 Zipf-ranked erasure patterns.
struct Inputs {
  const WorkloadDef& def;
  uint64_t seed;
  size_t frag_len;
  std::vector<Frags> objects;  // kN fragments each: data, then reference parity
  std::vector<Pattern> patterns;
  std::vector<double> zipf_cdf;

  const uint8_t* frag(uint32_t object, uint32_t id) const { return objects[object].ptrs[id]; }
  size_t data_bytes() const { return kK * frag_len; }
};

/// Rank 0 is the paper's {2,4,5,6}; rank r >= 1 erases 1 + (r-1) % 4 distinct
/// fragments drawn from all 14. The set is drawn from a fixed seed, not the
/// run's: which fragments are erased changes the decode work, and every
/// seed must ask for the same work for runs to be comparable.
std::vector<Pattern> make_patterns() {
  std::mt19937_64 rng(0x7061747465726e73ull);
  std::vector<std::vector<uint32_t>> sets = {{2, 4, 5, 6}};
  while (sets.size() < kPatterns) {
    std::vector<uint32_t> ids(kN);
    for (uint32_t i = 0; i < kN; ++i) ids[i] = i;
    for (uint32_t i = kN - 1; i > 0; --i) std::swap(ids[i], ids[rng() % (i + 1)]);
    ids.resize(1 + (sets.size() - 1) % kM);
    std::sort(ids.begin(), ids.end());
    if (std::find(sets.begin(), sets.end(), ids) == sets.end()) sets.push_back(ids);
  }
  std::vector<Pattern> out;
  for (auto& erased : sets) {
    Pattern p;
    for (uint32_t id = 0; id < kN; ++id)
      if (!std::binary_search(erased.begin(), erased.end(), id)) p.available.push_back(id);
    p.erased = std::move(erased);
    out.push_back(std::move(p));
  }
  return out;
}

size_t frag_len_for(size_t object_bytes) {
  constexpr size_t unit = 64;  // 8 strips of whole 8-byte words
  const size_t raw = object_bytes / kK;
  return std::max(unit, raw - raw % unit);
}

Inputs make_inputs(const WorkloadDef& def, uint64_t seed) {
  Inputs in{def, seed, frag_len_for(def.object_bytes), {}, make_patterns(), {}};
  std::mt19937_64 rng(mix(seed ^ 0x6f626a6563747321ull));
  const auto reference = xorec::make_codec(kReferenceSpec);
  for (size_t o = 0; o < def.objects; ++o) {
    Frags& f = in.objects.emplace_back(kN, in.frag_len);
    for (size_t i = 0; i + 8 <= kK * in.frag_len; i += 8) {
      const uint64_t v = rng();
      std::memcpy(f.bytes.data() + i, &v, 8);
    }
    reference->encode(f.ptrs.data(), f.ptrs.data() + kK, in.frag_len);
  }
  double sum = 0;
  for (size_t r = 0; r < kPatterns; ++r) sum += 1.0 / static_cast<double>(r + 1);
  double acc = 0;
  for (size_t r = 0; r < kPatterns; ++r) {
    acc += 1.0 / static_cast<double>(r + 1) / sum;
    in.zipf_cdf.push_back(acc);
  }
  return in;
}

/// One caller's seeded request sequence: object uniform over the working
/// set, encode with probability encode_share, else a Zipf(s=1) pattern.
class RequestStream {
 public:
  RequestStream(const Inputs& in, size_t caller)
      : in_(in), caller_(caller), rng_(mix(in.seed * 0x100000001b3ull + caller + 1)) {}

  Request next() {
    Request r;
    r.id = (static_cast<uint64_t>(caller_) << 40) | n_++;
    r.sampled = mix(in_.seed ^ mix(r.id)) % kSampleEvery == 0;
    r.object = static_cast<uint32_t>(rng_() % in_.objects.size());
    if (unit_draw(rng_) >= in_.def.encode_share) {
      r.op = Op::Reconstruct;
      const double u = unit_draw(rng_);
      r.pattern = static_cast<uint32_t>(
          std::upper_bound(in_.zipf_cdf.begin(), in_.zipf_cdf.end() - 1, u) -
          in_.zipf_cdf.begin());
    }
    return r;
  }

 private:
  const Inputs& in_;
  size_t caller_;
  std::mt19937_64 rng_;
  uint64_t n_ = 0;
};

const Pattern& pattern_of(const Inputs& in, const Request& r) { return in.patterns[r.pattern]; }

/// The request's input fragments: the k data fragments, or the survivors.
void bind_inputs(const Inputs& in, const Request& r, std::vector<const uint8_t*>& io) {
  io.clear();
  if (r.op == Op::Encode) {
    for (uint32_t i = 0; i < kK; ++i) io.push_back(in.frag(r.object, i));
  } else {
    for (uint32_t id : pattern_of(in, r).available) io.push_back(in.frag(r.object, id));
  }
}

size_t output_count(const Inputs& in, const Request& r) {
  return r.op == Op::Encode ? kM : pattern_of(in, r).erased.size();
}

/// Output `i` of `r` as it must read: the reference parity for encodes, the
/// original fragment for reconstructs.
const uint8_t* expected(const Inputs& in, const Request& r, size_t i) {
  return r.op == Op::Encode ? in.frag(r.object, kK + static_cast<uint32_t>(i))
                            : in.frag(r.object, pattern_of(in, r).erased[i]);
}

/// The verifier: every output byte of `r`.
bool matches(const Inputs& in, const Request& r, uint8_t* const* out) {
  for (size_t i = 0; i < output_count(in, r); ++i)
    if (std::memcmp(out[i], expected(in, r, i), in.frag_len) != 0) return false;
  return true;
}

/// A deliberately corrupted output must fail the compare, and the correct
/// one must pass, or no verified number of this run can be trusted.
void verifier_self_test(const Inputs& in, const Request& r) {
  const size_t n = output_count(in, r);
  Frags got(n, in.frag_len);
  for (size_t i = 0; i < n; ++i) std::memcpy(got.ptrs[i], expected(in, r, i), in.frag_len);
  if (!matches(in, r, got.ptrs.data()))
    throw std::runtime_error("verifier self-test: correct output rejected");
  const size_t off = mix(in.seed ^ 0x636f7272757074ull) % got.bytes.size();
  got.bytes[off] ^= 0x5a;
  if (matches(in, r, got.ptrs.data()))
    throw std::runtime_error("verifier self-test: corrupted byte " + std::to_string(off) +
                             " not flagged");
}

// ---- the service under test ------------------------------------------------

/// One cold set-up: a fresh service over a fresh injected PlanCache, every
/// plan the workload requests compiled, plus the NetServer and its client
/// connections for TCP workloads. Members are destroyed clients first.
struct Stack {
  std::shared_ptr<xorec::ec::PlanCache> cache;
  std::unique_ptr<xorec::CodecService> service;
  std::optional<xorec::ServiceHandle> handle;
  std::unique_ptr<xorec::net::NetServer> server;
  std::vector<std::unique_ptr<xorec::net::Client>> clients;
};

void serve_inproc(const Stack& s, const Inputs& in, const Request& r,
                  const std::vector<const uint8_t*>& io, uint8_t* const* out) {
  if (r.op == Op::Encode) {
    s.handle->encode(io.data(), out, in.frag_len).get();
    return;
  }
  const Pattern& p = pattern_of(in, r);
  auto plan = s.handle->plan_reconstruct(p.available, p.erased);
  s.handle->reconstruct(std::move(plan), io.data(), out, in.frag_len).get();
}

void serve_tcp(xorec::net::Client& client, const Inputs& in, const Request& r,
               const std::vector<const uint8_t*>& io, uint8_t* const* out) {
  if (r.op == Op::Encode) {
    client.encode(kSpec, io.data(), kK, out, kM, in.frag_len);
    return;
  }
  const Pattern& p = pattern_of(in, r);
  client.reconstruct(kSpec, p.available, io.data(), p.erased, out, in.frag_len);
}

Request first_request(const WorkloadDef& def) {
  Request r;
  if (def.encode_share == 0) {
    r.op = Op::Reconstruct;
    r.pattern = 0;
  }
  return r;
}

/// Builds a stack and serves its first response; returns false when that
/// response was wrong.
bool build_stack(const Inputs& in, std::unique_ptr<Stack>& out) {
  const WorkloadDef& def = in.def;
  auto s = std::make_unique<Stack>();
  s->cache = std::make_shared<xorec::ec::PlanCache>(0);
  s->service = std::make_unique<xorec::CodecService>(xorec::CodecService::Options{
      .shards = def.shards, .workers_per_shard = 1, .plan_cache = s->cache});
  s->handle.emplace(s->service->acquire(kSpec));
  if (def.encode_share < 1)  // the cache is unbounded, so these programs stay
    for (const Pattern& p : in.patterns) (void)s->handle->plan_reconstruct(p.available, p.erased);
  if (def.tcp) {
    s->server = std::make_unique<xorec::net::NetServer>(*s->service);
    s->server->start();
    for (size_t c = 0; c < def.callers; ++c)
      s->clients.push_back(
          std::make_unique<xorec::net::Client>("127.0.0.1", s->server->tcp_port()));
  }
  const Request r = first_request(def);
  std::vector<const uint8_t*> io;
  bind_inputs(in, r, io);
  Frags got(kM, in.frag_len);
  if (def.tcp)
    serve_tcp(*s->clients[0], in, r, io, got.ptrs.data());
  else
    serve_inproc(*s, in, r, io, got.ptrs.data());
  out = std::move(s);
  return matches(in, r, got.ptrs.data());
}

// ---- load generation ---------------------------------------------------------

/// Start/stop line between the window clock (main thread) and the callers.
/// Everything the main thread reads or resets between windows is written by
/// callers before they park here, under the same mutex.
class Gate {
 public:
  /// Caller side, before each request: returns false when the run is over.
  bool checkpoint(uint64_t& seen_epoch) {
    if (!pause_flag_.load(std::memory_order_acquire)) return true;
    std::unique_lock lk(mu_);
    for (;;) {
      if (stop_) return false;
      if (!paused_) return true;
      if (seen_epoch != epoch_) {
        seen_epoch = epoch_;
        ++arrived_;
        cv_.notify_all();
      }
      cv_.wait(lk);
    }
  }
  /// Main side: stop the callers and wait until all `n` are parked.
  void pause(size_t n) {
    std::unique_lock lk(mu_);
    ++epoch_;
    arrived_ = 0;
    paused_ = true;
    pause_flag_.store(true, std::memory_order_release);
    cv_.notify_all();  // callers already parked count themselves for this epoch
    cv_.wait(lk, [&] { return arrived_ == n; });
  }
  void resume() {
    std::lock_guard lk(mu_);
    paused_ = false;
    pause_flag_.store(false, std::memory_order_release);
    cv_.notify_all();
  }
  void finish() {
    std::lock_guard lk(mu_);
    stop_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool paused_ = true;
  bool stop_ = false;
  uint64_t epoch_ = 0;
  size_t arrived_ = 0;
  std::atomic<bool> pause_flag_{true};
};

/// Replay timings of one sampled request, in ns per layer.
struct Replay {
  double data_bytes = 0;  // k * frag_len
  double crc_bytes = 0;   // request payload bytes
  int64_t roundtrip = 0, api = 0, lookup = 0, execute = 0, kernel_xor = 0, kernel_memcpy = 0,
          crc = 0, build = 0, bind = 0, rs = 0, isal = 0;
};

struct Caller {
  size_t index;
  RequestStream stream;
  Frags out, check, replay_out, memcpy_dst;
  std::vector<const uint8_t*> io, data_io;
  xorec::net::Client* client = nullptr;  // the workload's connection (TCP)

  // Read and reset by the main thread between windows.
  bool traced = false;
  bool first_pending = true;
  std::optional<Request> first_of_window;
  uint64_t ops = 0, bytes = 0;
  Histogram latency;

  uint64_t attempted = 0, failed_calls = 0, mismatches = 0;
  Request last;
  uint8_t* const* last_out = nullptr;
  std::vector<Replay> replays;
  uint32_t crc_sink = 0;
  std::string first_error;

  Caller(const Inputs& in, size_t i, bool trace)
      : index(i),
        stream(in, i),
        out(kM, in.frag_len),
        check(kM, in.frag_len),
        replay_out(kM, in.frag_len),
        memcpy_dst(trace ? kK : 0, in.frag_len) {}
};

struct Context {
  const Inputs& in;
  Stack& stack;
  SpanLog* spans = nullptr;  // traced runs only
  const xorec::Codec& codec;
  const xorec::Codec& baseline;
  xorec::ec::PlanKey encoder_key;
  const xorec::kernel::KernelTable& kernel;
  Gate gate;
};

template <typename Fn>
int64_t timed_span(Context& ctx, const Caller& c, SpanName name, uint32_t parent,
                   const Request& r, Fn&& fn) {
  const int64_t t0 = now_ns();
  fn();
  const int64_t t1 = now_ns();
  ctx.spans->add({t0, t1, r.id, parent, static_cast<uint16_t>(c.index), name});
  return t1 - t0;
}

std::vector<uint8_t> build_request_frame(const Inputs& in, const Request& r,
                                         const std::vector<const uint8_t*>& io) {
  xorec::net::FrameHeader h;
  h.request_id = r.id;
  h.frag_len = static_cast<uint32_t>(in.frag_len);
  h.payload_count = static_cast<uint16_t>(io.size());
  if (r.op == Op::Encode) {
    h.type = xorec::net::FrameType::EncodeRequest;
    h.k = kK;
    h.present_bitmap = (uint64_t{1} << kK) - 1;
  } else {
    h.type = xorec::net::FrameType::ReconstructRequest;
    for (uint32_t id : pattern_of(in, r).available) h.present_bitmap |= uint64_t{1} << id;
    for (uint32_t id : pattern_of(in, r).erased) h.erased_bitmap |= uint64_t{1} << id;
  }
  return xorec::net::build_frame(h, kSpec, io.data());
}

/// Replays a sampled request on its identical input through each layer's
/// public entry point, one child span per layer. Layers whose timings form a
/// ratio run back to back; the wire replays, which stream the whole request
/// through the CRC, run last so they do not evict the others' inputs.
Replay replay(Context& ctx, Caller& c, const Request& r, uint32_t parent) {
  const Inputs& in = ctx.in;
  const size_t fl = in.frag_len;
  uint8_t* const* out = c.replay_out.ptrs.data();
  const auto check = [&](const Request& want) {
    if (!matches(in, want, out)) ++c.mismatches;
  };
  const auto span = [&](SpanName name, auto&& fn) {
    return timed_span(ctx, c, name, parent, r, fn);
  };
  Replay x;
  x.data_bytes = static_cast<double>(in.data_bytes());
  x.crc_bytes = static_cast<double>(c.io.size() * fl);

  x.api = span(SpanName::ApiCall, [&] { serve_inproc(ctx.stack, in, r, c.io, out); });
  check(r);
  std::shared_ptr<const xorec::ReconstructPlan> plan;
  x.lookup = span(SpanName::PlanLookup, [&] {
    if (r.op == Op::Encode) {
      // An encode's plan is the encoder, cached under the empty pattern key.
      (void)ctx.stack.cache->get_or_build(
          ctx.encoder_key, []() -> std::shared_ptr<xorec::ec::CompiledProgram> {
            throw std::logic_error("encoder plan missing from the cache");
          });
    } else {
      const Pattern& p = pattern_of(in, r);
      plan = ctx.stack.handle->plan_reconstruct(p.available, p.erased);
    }
  });
  x.execute = span(SpanName::Execute, [&] {
    if (r.op == Op::Encode)
      ctx.codec.encode(c.io.data(), out, fl);
    else
      plan->execute(c.io.data(), out, fl);
  });
  check(r);
  x.kernel_xor =
      span(SpanName::KernelXor, [&] { ctx.kernel.many(out[0], c.io.data(), kK, fl); });
  x.kernel_memcpy = span(SpanName::KernelMemcpy, [&] {
    for (uint32_t i = 0; i < kK; ++i) std::memcpy(c.memcpy_dst.ptrs[i], c.io[i], fl);
  });

  // The paper's yardstick, paired on the request's stripe data. The GF-table
  // baseline lays out parity bytes differently, so only rs is compared.
  Request enc = r;
  enc.op = Op::Encode;
  bind_inputs(in, enc, c.data_io);
  x.rs = span(SpanName::RsEncode, [&] { ctx.codec.encode(c.data_io.data(), out, fl); });
  check(enc);
  x.isal = span(SpanName::IsalEncode, [&] { ctx.baseline.encode(c.data_io.data(), out, fl); });

  x.crc = span(SpanName::Crc32, [&] {
    uint32_t crc = 0;
    for (const uint8_t* p : c.io) crc = xorec::net::crc32(p, fl, crc);
    c.crc_sink ^= crc;
  });
  std::vector<uint8_t> frame;
  x.build = span(SpanName::BuildFrame, [&] { frame = build_request_frame(in, r, c.io); });
  x.bind = span(SpanName::BindFrameBody, [&] {
    xorec::net::FrameHeader h;
    xorec::net::FrameView view;
    const size_t head = xorec::net::wire::kFrameHeaderSize;
    if (xorec::net::decode_frame_header(frame.data(), frame.size(), h) !=
            xorec::net::FrameError::Ok ||
        xorec::net::bind_frame_body(h, frame.data() + head, frame.size() - head, view) !=
            xorec::net::FrameError::Ok)
      ++c.mismatches;
  });
  if (c.client) {
    x.roundtrip = span(SpanName::NetRoundtrip, [&] { serve_tcp(*c.client, in, r, c.io, out); });
    check(r);
  }
  return x;
}

void caller_loop(Context& ctx, Caller& c) {
  const bool verify_each = ctx.in.def.verify_each;
  uint64_t seen_epoch = 0;
  for (uint64_t epoch = seen_epoch; ctx.gate.checkpoint(seen_epoch); epoch = seen_epoch) {
    // The first request after a pause starts on caches the ceiling sample
    // evicted; a closed loop without pauses has no such request, so its
    // latency is left out. It still counts toward throughput.
    const bool after_pause = epoch != seen_epoch;
    const Request r = c.stream.next();
    const bool first = c.first_pending;
    c.first_pending = false;
    uint8_t* const* out = first && !verify_each ? c.check.ptrs.data() : c.out.ptrs.data();
    bind_inputs(ctx.in, r, c.io);
    ++c.attempted;
    const int64_t t0 = now_ns();
    try {
      if (c.client)
        serve_tcp(*c.client, ctx.in, r, c.io, out);
      else
        serve_inproc(ctx.stack, ctx.in, r, c.io, out);
    } catch (const std::exception& e) {
      if (c.first_error.empty()) c.first_error = e.what();
      ++c.failed_calls;
      continue;
    }
    const int64_t t1 = now_ns();
    ++c.ops;
    c.bytes += ctx.in.data_bytes();
    if (!after_pause) c.latency.record(t1 - t0);
    if (verify_each && !matches(ctx.in, r, out)) ++c.mismatches;
    if (first && !verify_each) c.first_of_window = r;
    c.last = r;
    c.last_out = out;
    if (c.traced) {
      const uint32_t id =
          ctx.spans->add({t0, t1, r.id, 0, static_cast<uint16_t>(c.index), SpanName::Request});
      if (r.sampled) {
        try {
          c.replays.push_back(replay(ctx, c, r, id));
        } catch (const std::exception& e) {
          if (c.first_error.empty()) c.first_error = e.what();
          ++c.failed_calls;
        }
      }
    }
  }
}

struct Window {
  bool traced = false;
  double seconds = 0;  // load time: the slices, without the ceiling samples
  uint64_t ops = 0, bytes = 0;
  double p50_ns = 0, p99_ns = 0;  // this window's request latencies
  double memcpy_gbps = 0;         // median of the ceiling samples between its slices

  double gbps() const { return static_cast<double>(bytes) / seconds / 1e9; }
  double ops_per_s() const { return static_cast<double>(ops) / seconds; }
  /// ns to memcpy `bytes` at the window's ceiling (1 GB/s = 1 byte/ns).
  double memcpy_ns(size_t bytes) const { return static_cast<double>(bytes) / memcpy_gbps; }
};

/// The timed phase's window clock, run by the main thread while the
/// callers loop. A window is kSlices slices of load; after each slice the
/// callers park and the main thread times a memcpy of k x frag_len bytes,
/// so the window's ceiling is sampled across the same seconds as its load.
/// After the window it collects the callers' counters and compares the
/// sampled outputs.
struct Phase {
  Context& ctx;
  std::vector<std::unique_ptr<Caller>>& callers;
  bool trace;
  Frags calib;
  Histogram latency;                // every untraced window's requests
  std::vector<double> queue_depths;  // traced runs: shard queues, once per slice

  Window run(double seconds, bool traced) {
    for (auto& c : callers) {
      c->traced = traced;
      c->first_pending = true;
      c->first_of_window.reset();
      c->ops = c->bytes = 0;
      c->latency = Histogram();
    }
    Window w;
    w.traced = traced;
    const uint8_t* src = ctx.in.objects[0].bytes.data();
    const size_t bytes = ctx.in.data_bytes();
    std::vector<double> ceiling;
    for (int s = 0; s < kSlices; ++s) {
      const int64_t t0 = now_ns();
      ctx.gate.resume();
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / kSlices));
      if (trace && !traced) {
        double depth = 0;
        for (const auto& sh : ctx.stack.service->stats().shards)
          depth += static_cast<double>(sh.queue_depth);
        queue_depths.push_back(depth);
      }
      ctx.gate.pause(callers.size());
      w.seconds += static_cast<double>(now_ns() - t0) / 1e9;
      ceiling.push_back(sample_gbps(
          bytes, [&] { std::memcpy(calib.bytes.data(), src, bytes); }, kCeilingSampleSeconds));
    }
    w.memcpy_gbps = median(ceiling);
    Histogram h;
    for (auto& c : callers) {
      w.ops += c->ops;
      w.bytes += c->bytes;
      h.merge(c->latency);
      if (c->first_of_window && !matches(ctx.in, *c->first_of_window, c->check.ptrs.data()))
        ++c->mismatches;
    }
    w.p50_ns = h.quantile(0.50);
    w.p99_ns = h.quantile(0.99);
    if (!traced) latency.merge(h);
    return w;
  }
};

// ---- per-layer static measures -------------------------------------------

struct PaperRow {
  const char* metric;
  double enc, dec;  // §7.5 values; 0 = the paper gives none
};
const PaperRow kPaperRows[] = {
    {"xor_ops.base", 755, 1368},
    {"xor_ops.compressed", 385, 511},
    {"instructions.fused", 146, 206},
    {"mem_accesses.base", 2265, 4104},
    {"mem_accesses.compressed", 1155, 1533},
    {"mem_accesses.fused", 677, 923},
    {"mem_accesses.scheduled", 0, 0},
    {"nvar.scheduled", 88, 125},
    {"ccap.scheduled", 167, 205},
};

void add_stage_metrics(const char* prefix, const xorec::slp::PipelineResult& r, bool enc,
                       std::vector<Metric>& out) {
  using xorec::slp::ExecForm;
  const auto base = xorec::slp::measure(r.base, ExecForm::Binary);
  const auto co = xorec::slp::measure(r.compressed.value(), ExecForm::Binary);
  const auto fu = xorec::slp::measure(r.fused.value(), ExecForm::Fused);
  const auto sc = xorec::slp::measure(r.scheduled.value(), ExecForm::Fused);
  const size_t values[] = {base.xor_ops,      co.xor_ops,      fu.instructions,
                           base.mem_accesses, co.mem_accesses, fu.mem_accesses,
                           sc.mem_accesses,   sc.nvar,         sc.ccap};
  for (size_t i = 0; i < std::size(kPaperRows); ++i) {
    const double paper = enc ? kPaperRows[i].enc : kPaperRows[i].dec;
    out.push_back({std::string(prefix) + "." + kPaperRows[i].metric,
                   static_cast<double>(values[i]), "count",
                   paper ? "paper " + std::to_string(static_cast<int>(paper)) : "paper -"});
  }
}

/// SLP compile times and static measures, on a private-cache codec so the
/// service's cache counters stay untouched.
void add_slp_metrics(const Inputs& in, std::vector<Metric>& out) {
  int64_t t0 = now_ns();
  const auto codec = xorec::make_codec(kSpec + ",cache=private");
  const double enc_ms = static_cast<double>(now_ns() - t0) / 1e6;
  std::vector<double> dec_ms;
  size_t xor_total = 0, mem_total = 0;
  std::shared_ptr<const xorec::ReconstructPlan> paper_plan;
  for (const Pattern& p : in.patterns) {
    t0 = now_ns();
    auto plan = codec->plan_reconstruct(p.available, p.erased);
    dec_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    xor_total += plan->xor_count();
    mem_total += plan->schedule_stats().mem_accesses;
    if (!paper_plan) paper_plan = plan;  // rank 0 = {2,4,5,6}
  }
  add_stage_metrics("slp.enc", *codec->encode_pipeline(), true, out);
  add_stage_metrics("slp.dec", *paper_plan->decode_pipeline(), false, out);
  out.push_back({"slp.dec.xor_ops.patterns_total", static_cast<double>(xor_total), "count",
                 "16 patterns"});
  out.push_back({"slp.dec.mem_accesses.patterns_total", static_cast<double>(mem_total),
                 "count", "16 patterns"});
  out.push_back({"slp.compile_ms.enc", enc_ms, "ms", ""});
  out.push_back({"slp.compile_ms.dec_p50", median(dec_ms), "ms", "16 patterns"});
}

/// Mean wire bytes (request frame + response frame) over the first 1024
/// requests of caller 0's stream: a deterministic count of the mix.
double bytes_per_request(const Inputs& in) {
  RequestStream stream(in, 0);
  const double spec = static_cast<double>(kSpec.size());
  const double head = static_cast<double>(xorec::net::wire::kFrameHeaderSize);
  const double fl = static_cast<double>(in.frag_len);
  double total = 0;
  constexpr int kCount = 1024;
  for (int i = 0; i < kCount; ++i) {
    const Request r = stream.next();
    const double req =
        r.op == Op::Encode ? kK : static_cast<double>(pattern_of(in, r).available.size());
    const double resp = static_cast<double>(output_count(in, r));
    total += 2 * head + spec + (req + resp) * fl;
  }
  return total / kCount;
}

/// Per-layer timings from the replays: medians of per-replay values, and
/// ratios paired within each replay. Self times are one layer's median
/// minus the median of the layer below it on the same inputs. Workloads
/// without a socket (`tcp` false) have no round trip; their net self time is
/// the framing alone, building the request frame and binding its body.
void add_replay_metrics(const std::vector<Replay>& replays, bool tcp, std::vector<Metric>& out) {
  const auto quantile_of = [&](auto value, double q) {
    std::vector<double> v;
    for (const Replay& x : replays) v.push_back(value(x));
    return quantile(std::move(v), q);
  };
  const auto us = [&](int64_t Replay::*ns, double q) {
    return quantile_of([=](const Replay& x) { return static_cast<double>(x.*ns) / 1e3; }, q);
  };
  const auto gbps = [&](double Replay::*bytes, int64_t Replay::*ns) {  // bytes per ns
    return quantile_of([=](const Replay& x) { return x.*bytes / static_cast<double>(x.*ns); },
                       0.5);
  };
  const auto ratio = [&](int64_t Replay::*num, int64_t Replay::*den) {
    return quantile_of(
        [=](const Replay& x) { return static_cast<double>(x.*num) / static_cast<double>(x.*den); },
        0.5);
  };
  const std::string n = std::to_string(replays.size()) + " replays";
  const std::string paired = "paired per replay";
  const double api = us(&Replay::api, 0.5);
  const double execute = us(&Replay::execute, 0.5);
  const auto framing_us = [](const Replay& x) {
    return static_cast<double>(x.build + x.bind) / 1e3;
  };
  const Metric net_self =
      tcp ? Metric{"net.self_us_p50", us(&Replay::roundtrip, 0.5) - api, "us",
                   "round trip - in-process call"}
          : Metric{"net.self_us_p50", quantile_of(framing_us, 0.5), "us",
                   "no socket: build + bind frame"};
  out.insert(out.end(), {
      {"kernel.xor_gbps", gbps(&Replay::data_bytes, &Replay::kernel_xor), "GB/s", n},
      {"kernel.memcpy_gbps", gbps(&Replay::data_bytes, &Replay::kernel_memcpy), "GB/s", n},
      {"kernel.xor_x_memcpy", ratio(&Replay::kernel_memcpy, &Replay::kernel_xor), "x", paired},
      {"ec.plan_lookup_us_p50", us(&Replay::lookup, 0.5), "us", n},
      {"runtime.execute_us_p50", execute, "us", n},
      {"runtime.execute_gbps", gbps(&Replay::data_bytes, &Replay::execute), "GB/s", n},
      {"runtime.execute_x_memcpy", ratio(&Replay::kernel_memcpy, &Replay::execute), "x", paired},
      {"runtime.execute_x_kernel", ratio(&Replay::kernel_xor, &Replay::execute), "x", paired},
      {"api.call_us_p50", api, "us", n},
      {"api.call_us_p99", us(&Replay::api, 0.99), "us", n},
      {"api.self_us_p50", api - execute, "us", "call - execute"},
      net_self,
      {"net.crc32_gbps", gbps(&Replay::crc_bytes, &Replay::crc), "GB/s", n},
      {"net.build_frame_us", us(&Replay::build, 0.5), "us", n},
      {"net.bind_frame_body_us", us(&Replay::bind, 0.5), "us", n},
      {"baseline.isal_encode_gbps", gbps(&Replay::data_bytes, &Replay::isal), "GB/s",
       kBaselineSpec},
      {"baseline.rs_over_isal", ratio(&Replay::isal, &Replay::rs), "x", paired},
  });
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      // name, object bytes, objects, callers, shards, encode share, tcp, verify each
      {"encode_10mb", size_t{10} << 20, 1, 1, 1, 1.0, false, false},
      {"degraded_read_64k", size_t{64} << 10, 64, 2, 2, 0.0, false, true},
      {"tcp_mixed_64k", size_t{64} << 10, 64, 2, 2, 0.8, true, true},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& d : workloads())
    if (name == d.name) return &d;
  return nullptr;
}

RunResult run_workload(const RunOptions& opt) {
  const WorkloadDef& def = *opt.def;
  const Inputs in = make_inputs(def, opt.seed);
  RunResult res;

  // Cold set-ups. The first one serves the timed phase; the others are
  // spread between its windows, so the median covers the whole run rather
  // than its first seconds.
  std::vector<double> setup_s;
  uint64_t mismatches = 0;
  const auto cold_setup = [&] {
    std::unique_ptr<Stack> s;
    const int64_t t0 = now_ns();
    if (!build_stack(in, s)) ++mismatches;
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return s;
  };
  const std::unique_ptr<Stack> stack = cold_setup();
  const size_t more_setups = std::max(
      kMinSetups, static_cast<size_t>(std::ceil(kMinSetupSeconds / setup_s[0]))) - 1;
  const xorec::CacheStats setup_cache = stack->cache->stats();

  const auto baseline = xorec::make_codec(kBaselineSpec);
  const xorec::PlanFootprint fp = stack->handle->codec().plan_footprint();
  Context ctx{in,
              *stack,
              nullptr,
              stack->handle->codec(),
              *baseline,
              {fp.matrix_fp, fp.matrix_fp2, fp.config_fp, {}},
              xorec::kernel::kernel_table(xorec::kernel::Isa::Auto),
              {}};
  std::unique_ptr<SpanLog> spans;
  if (opt.trace) {
    spans = std::make_unique<SpanLog>(kSpanCapacity);
    ctx.spans = spans.get();
  }
  std::vector<std::unique_ptr<Caller>> callers;
  for (size_t i = 0; i < def.callers; ++i) {
    auto& c = callers.emplace_back(std::make_unique<Caller>(in, i, opt.trace));
    if (def.tcp) c->client = stack->clients[i].get();
  }

  verifier_self_test(in, first_request(def));

  // The timed phase: a warm-up window, then opt.seconds 1 s windows; traced
  // runs trace every other one. The other set-ups run between windows, while
  // the callers are parked, and are torn down before the next window.
  Phase phase{ctx, callers, opt.trace, Frags(kK, in.frag_len), {}, {}};
  std::vector<std::thread> threads;
  for (auto& c : callers) threads.emplace_back([&ctx, &c] { caller_loop(ctx, *c); });
  ctx.gate.pause(callers.size());
  phase.run(kWarmupSeconds, false);
  phase.latency = Histogram();
  for (auto& c : callers) c->attempted = c->failed_calls = 0;
  const int64_t origin = now_ns();
  const xorec::CacheStats cache0 = stack->cache->stats();
  const size_t windows_total = static_cast<size_t>(opt.seconds);
  std::vector<Window> windows;
  std::exception_ptr setup_error;  // rethrown once the callers have exited
  for (size_t w = 0; w < windows_total && !setup_error; ++w) {
    windows.push_back(phase.run(1.0, opt.trace && w % 2 == 1));
    const size_t due = (w + 1) * more_setups / windows_total - w * more_setups / windows_total;
    try {
      for (size_t i = 0; i < due; ++i) (void)cold_setup();
    } catch (...) {
      setup_error = std::current_exception();
    }
  }
  const xorec::CacheStats cache1 = stack->cache->stats();
  ctx.gate.finish();
  for (auto& t : threads) t.join();
  if (setup_error) std::rethrow_exception(setup_error);

  // Totals; encode_10mb compares its last request here, outside the windows.
  uint64_t failed_calls = 0;
  std::vector<Replay> replays;
  for (auto& c : callers) {
    if (!def.verify_each && c->last_out && !matches(in, c->last, c->last_out)) ++c->mismatches;
    res.attempted += c->attempted;
    failed_calls += c->failed_calls;
    mismatches += c->mismatches;
    replays.insert(replays.end(), c->replays.begin(), c->replays.end());
    if (!c->first_error.empty())
      std::fprintf(stderr, "bench_ledger: caller %zu: first failure: %s\n", c->index,
                   c->first_error.c_str());
  }
  res.failed = failed_calls + mismatches;
  res.correct = mismatches == 0;

  // End-to-end: paired ratios against the memcpy ceiling sampled across
  // each window, so host speed drift cancels; medians over the windows.
  std::vector<double> x_memcpy, p50_x, p99_x, rate, gbps, memcpy_gbps, traced_rate;
  for (const Window& w : windows) {
    if (w.traced) {
      traced_rate.push_back(w.ops_per_s());
      continue;
    }
    x_memcpy.push_back(w.gbps() / w.memcpy_gbps);
    p50_x.push_back(w.p50_ns / w.memcpy_ns(in.data_bytes()));
    p99_x.push_back(w.p99_ns / w.memcpy_ns(in.data_bytes()));
    rate.push_back(w.ops_per_s());
    gbps.push_back(w.gbps());
    memcpy_gbps.push_back(w.memcpy_gbps);
  }
  const std::string n_windows = "median of " + std::to_string(x_memcpy.size()) + " windows";
  const std::string n_samples = std::to_string(phase.latency.count()) + " samples";
  res.end_to_end = {
      {"setup_s", median(setup_s), "s",
       "median of " + std::to_string(setup_s.size()) + " cold set-ups"},
      {"throughput_x_memcpy", median(x_memcpy), "x", n_windows},
      {"latency_p50_x_memcpy", median(p50_x), "x", n_windows + ", " + n_samples},
      {"latency_p99_x_memcpy", median(p99_x), "x", n_windows + ", " + n_samples},
      {"peak_rss_mb", peak_rss_mb(), "MiB", "ru_maxrss"},
  };
  const Metric error_ratio{
      "error_ratio",
      res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted) : 0,
      "ratio", std::to_string(res.attempted) + " attempted"};
  res.info = {
      {"ops_per_s", median(rate), "1/s", "raw, " + n_windows},
      {"data_gbps", median(gbps), "GB/s", "raw, " + n_windows},
      {"memcpy_gbps", median(memcpy_gbps), "GB/s", n_windows},
      {"latency_p50_us", phase.latency.quantile(0.50) / 1e3, "us", "raw, " + n_samples},
      {"latency_p99_us", phase.latency.quantile(0.99) / 1e3, "us", "raw, " + n_samples},
  };
  if (!opt.trace) {
    res.info.insert(res.info.begin(), error_ratio);
    return res;
  }

  // Per-layer: replays of the traced windows, plus counters read around the
  // timed phase.
  auto& pl = res.per_layer;
  pl.push_back(error_ratio);
  add_replay_metrics(replays, def.tcp, pl);
  add_slp_metrics(in, pl);
  const size_t hits = cache1.hits - cache0.hits, misses = cache1.misses - cache0.misses;
  pl.push_back({"ec.plan_cache.hit_ratio",
                hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0,
                "ratio", std::to_string(hits + misses) + " lookups"});
  pl.push_back({"ec.plan_cache.misses_timed", static_cast<double>(misses), "count", "must be 0"});
  pl.push_back({"ec.plan_cache.compile_ms_per_miss",
                setup_cache.misses ? static_cast<double>(setup_cache.compile_ns) / 1e6 /
                                         static_cast<double>(setup_cache.misses)
                                   : 0,
                "ms", std::to_string(setup_cache.misses) + " set-up misses"});
  double depth = 0;
  for (double d : phase.queue_depths) depth += d / static_cast<double>(phase.queue_depths.size());
  pl.push_back({"api.queue_depth_mean", depth, "jobs",
                std::to_string(phase.queue_depths.size()) + " polls, one per slice"});
  pl.push_back({"api.failed_jobs", static_cast<double>(failed_calls), "count", ""});
  pl.push_back({"api.throughput_gbps", median(gbps), "GB/s", "raw, untraced windows"});
  const xorec::net::NetServerStats ns =
      def.tcp ? stack->server->stats() : xorec::net::NetServerStats{};
  pl.push_back({"net.bytes_per_request", bytes_per_request(in), "B", "first 1024 requests"});
  pl.push_back({"net.writev_segments_per_response",
                ns.responses ? static_cast<double>(ns.writev_segments) /
                                   static_cast<double>(ns.responses)
                             : 0,
                "count", std::to_string(ns.responses) + " responses"});
  pl.push_back({"net.backpressure_stalls", static_cast<double>(ns.backpressure_stalls), "count",
                ""});
  pl.push_back({"net.errors", static_cast<double>(ns.errors), "count", ""});
  pl.push_back({"trace.overhead_ratio", median(traced_rate) / median(rate), "x",
                "traced / untraced ops_per_s"});
  // Group by layer, keeping each layer's order.
  std::stable_sort(pl.begin(), pl.end(), [](const Metric& a, const Metric& b) {
    return a.name.substr(0, a.name.find('.')) < b.name.substr(0, b.name.find('.'));
  });

  res.info.push_back({"trace.spans", static_cast<double>(spans->size()), "count",
                      std::to_string(spans->dropped()) + " dropped"});
  if (!opt.trace_out.empty() && !spans->write_chrome(opt.trace_out, origin))
    std::fprintf(stderr, "bench_ledger: cannot write %s\n", opt.trace_out.c_str());
  return res;
}

}  // namespace ledger
