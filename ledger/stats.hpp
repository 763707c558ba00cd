// Measurement primitives of the ledger: a fixed-memory log-linear latency
// histogram, order statistics, the paired-ratio throughput sampler and the
// in-memory span log of the traced run.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ledger {

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency histogram with fixed memory (HdrHistogram-style buckets): exact
/// below 1024 ns, then 512 linear sub-buckets per power of two (0.2%
/// relative width) up to 2^42 ns. Quantiles interpolate by rank inside the
/// bucket, so two runs rarely print the same value unless they measured it.
class Histogram {
 public:
  static constexpr int kSubBits = 9;
  static constexpr int kMaxExp = 41;
  static constexpr size_t kExact = size_t{1} << (kSubBits + 1);
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = kExact + (kMaxExp - kSubBits) * kSub;

  void record(int64_t ns) {
    const uint64_t v = std::min<uint64_t>(ns < 0 ? 0 : static_cast<uint64_t>(ns),
                                          (uint64_t{1} << (kMaxExp + 1)) - 1);
    ++buckets_[index(v)];
    ++count_;
  }
  void merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
  }
  uint64_t count() const { return count_; }

  /// The q-quantile in ns (0 when empty).
  double quantile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_ - 1);
    uint64_t before = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t c = buckets_[i];
      if (c == 0 || static_cast<double>(before + c) <= target) {
        before += c;
        continue;
      }
      uint64_t lo = i, width = 1;
      if (i >= kExact) {
        const size_t j = i - kExact;
        const int shift = static_cast<int>(j / kSub) + 1;
        lo = (kSub + j % kSub) << shift;
        width = uint64_t{1} << shift;
      }
      const double frac = (target - static_cast<double>(before) + 0.5) / static_cast<double>(c);
      return static_cast<double>(lo) + frac * static_cast<double>(width);
    }
    return 0;
  }

 private:
  static size_t index(uint64_t v) {
    if (v < kExact) return static_cast<size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits + 1
    const int shift = e - kSubBits;
    return kExact + static_cast<size_t>(shift - 1) * kSub + ((v >> shift) - kSub);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets);
  uint64_t count_ = 0;
};

/// Linear-interpolated quantile of a sample (0 when empty).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t i = static_cast<size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One throughput sample of `fn` over `bytes_per_call`, in GB/s, lasting at
/// least `min_seconds`: the paired-ratio estimator's unit. Callers divide two
/// samples taken back to back, so clock and thermal drift land on both sides
/// of the ratio. The same estimator as bench/bench_exec_backend.cpp's, which
/// fixes `min_seconds` at 20 ms.
template <typename Fn>
double sample_gbps(size_t bytes_per_call, Fn&& fn, double min_seconds = 0.02) {
  size_t iters = 1;
  for (;;) {
    const int64_t t0 = now_ns();
    for (size_t i = 0; i < iters; ++i) fn();
    const double sec = static_cast<double>(now_ns() - t0) / 1e9;
    if (sec >= min_seconds || iters >= (size_t{1} << 20))
      return static_cast<double>(bytes_per_call) * static_cast<double>(iters) / sec / 1e9;
    iters = sec > 0 ? std::max(iters * 2, static_cast<size_t>(1.25 * min_seconds * iters / sec))
                    : iters * 2;
  }
}

/// Layer boundaries a span can mark. `Request` is a caller's top call; the
/// others are replays of a sampled request, one layer each.
enum class SpanName : uint8_t {
  Request,
  NetRoundtrip,
  ApiCall,
  PlanLookup,
  Execute,
  KernelXor,
  KernelMemcpy,
  Crc32,
  BuildFrame,
  BindFrameBody,
  RsEncode,
  IsalEncode,
};

inline const char* span_name(SpanName n) {
  static const char* const names[] = {
      "request",         "net.roundtrip", "api.call",     "ec.plan_lookup",
      "runtime.execute", "kernel.xor",    "kernel.memcpy", "net.crc32",
      "net.build_frame", "net.bind_frame_body", "baseline.rs_encode",
      "baseline.isal_encode"};
  return names[static_cast<size_t>(n)];
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;
  uint32_t parent = 0;  // span id of the cause; 0 = none
  uint16_t tid = 0;     // caller index
  SpanName name = SpanName::Request;
};

/// Preallocated, lock-free append-only span store. Spans past the capacity
/// are counted and dropped; nothing allocates while requests are timed.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity) : spans_(capacity) {}

  /// Stores `s` and returns its id (index + 1), or 0 when the log is full.
  uint32_t add(const Span& s) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    spans_[i] = s;
    return static_cast<uint32_t>(i + 1);
  }
  size_t size() const { return std::min(next_.load(), spans_.size()); }
  size_t dropped() const { return dropped_.load(); }

  /// Chrome trace-event JSON ("X" complete events, microseconds relative to
  /// `origin_ns`). Call after every writer has stopped.
  bool write_chrome(const std::string& path, int64_t origin_ns) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("{\"traceEvents\":[\n", f);
    const size_t n = size();
    for (size_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u,\"request\":%llu}}%s\n",
                   span_name(s.name), static_cast<unsigned>(s.tid),
                   static_cast<double>(s.start_ns - origin_ns) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1, s.parent,
                   static_cast<unsigned long long>(s.request), i + 1 < n ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::atomic<size_t> next_{0};
  std::atomic<size_t> dropped_{0};
};

}  // namespace ledger
