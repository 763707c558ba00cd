// The warm encode and plan-execute hot paths never touch the heap: pointer
// tables are per thread and reused, and the executor's per-caller scratch
// (pebble arena, source/argument tables) comes from its freelist. A warm
// plan lookup is one plan-cache hit on a per-thread key and allocates
// nothing either.
//
// This file replaces the global operator new/delete for the whole test
// binary. The replacements forward to malloc/free and count allocations only
// on a thread whose counting flag is set, so every other test is unaffected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/service.hpp"
#include "ec/plan_cache.hpp"

namespace {

thread_local bool g_counting = false;
thread_local size_t g_news = 0;

void* counted_alloc(size_t n) {
  if (g_counting) ++g_news;
  return std::malloc(n ? n : 1);
}

}  // namespace

void* operator new(size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace xorec {
namespace {

/// operator new calls made by `fn` on this thread.
template <typename Fn>
size_t news_during(Fn&& fn) {
  g_news = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_news;
}

TEST(HotPathAllocation, CountsAllocationsOnThisThread) {
  // The probe itself works: a vector allocates.
  EXPECT_EQ(news_during([] { std::vector<int> v(16); }), 1u);
}

TEST(HotPathAllocation, WarmEncodeAndExecuteAllocateNothing) {
  // Strips of 3000 bytes span several 1024-byte rows, so the peeled grid
  // runs too.
  const size_t frag_len = 8 * 3000;
  for (const char* exec : {"interp", "lowered"}) {
    SCOPED_TRACE(exec);
    const auto codec = make_codec(std::string("rs(10,4)@block=1024,exec=") + exec);
    std::vector<std::vector<uint8_t>> frags(14, std::vector<uint8_t>(frag_len));
    std::mt19937 rng(3);
    for (size_t f = 0; f < 10; ++f)
      for (uint8_t& b : frags[f]) b = static_cast<uint8_t>(rng());
    std::vector<const uint8_t*> data;
    std::vector<uint8_t*> parity;
    for (size_t f = 0; f < 10; ++f) data.push_back(frags[f].data());
    for (size_t f = 10; f < 14; ++f) parity.push_back(frags[f].data());

    const std::vector<uint32_t> erased = {2, 4, 5, 6};
    std::vector<uint32_t> available;
    std::vector<const uint8_t*> avail_ptrs;
    for (uint32_t id = 0; id < 14; ++id)
      if (id != 2 && id != 4 && id != 5 && id != 6) {
        available.push_back(id);
        avail_ptrs.push_back(frags[id].data());
      }
    std::vector<std::vector<uint8_t>> rebuilt(erased.size(), std::vector<uint8_t>(frag_len));
    std::vector<uint8_t*> out;
    for (auto& r : rebuilt) out.push_back(r.data());
    const auto plan = codec->plan_reconstruct(available, erased);

    // Warm-up: the per-thread pointer tables reach their final size.
    codec->encode(data.data(), parity.data(), frag_len);
    plan->execute(avail_ptrs.data(), out.data(), frag_len);

    EXPECT_EQ(news_during([&] {
                for (int i = 0; i < 100; ++i) codec->encode(data.data(), parity.data(), frag_len);
              }),
              0u);
    EXPECT_EQ(news_during([&] {
                for (int i = 0; i < 100; ++i)
                  plan->execute(avail_ptrs.data(), out.data(), frag_len);
              }),
              0u);
    for (size_t i = 0; i < erased.size(); ++i) EXPECT_EQ(rebuilt[i], frags[erased[i]]);
  }
}

/// The paper's {2,4,5,6} RS(10,4) pattern over 64 KiB fragments.
struct DegradedRead {
  static constexpr size_t kFragLen = 64 * 1024;
  std::vector<uint32_t> erased{2, 4, 5, 6};
  std::vector<uint32_t> available;
  std::vector<std::vector<uint8_t>> frags;
  std::vector<const uint8_t*> avail_ptrs;
  std::vector<std::vector<uint8_t>> rebuilt;
  std::vector<uint8_t*> out;

  explicit DegradedRead(const Codec& codec) : frags(14, std::vector<uint8_t>(kFragLen)) {
    std::mt19937 rng(5);
    for (size_t f = 0; f < 10; ++f)
      for (uint8_t& b : frags[f]) b = static_cast<uint8_t>(rng());
    std::vector<const uint8_t*> data;
    std::vector<uint8_t*> parity;
    for (size_t f = 0; f < 10; ++f) data.push_back(frags[f].data());
    for (size_t f = 10; f < 14; ++f) parity.push_back(frags[f].data());
    codec.encode(data.data(), parity.data(), kFragLen);
    for (uint32_t id = 0; id < 14; ++id)
      if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
        available.push_back(id);
        avail_ptrs.push_back(frags[id].data());
      }
    rebuilt.assign(erased.size(), std::vector<uint8_t>(kFragLen));
    for (auto& r : rebuilt) out.push_back(r.data());
  }
  bool rebuilt_right() const {
    for (size_t i = 0; i < erased.size(); ++i)
      if (rebuilt[i] != frags[erased[i]]) return false;
    return true;
  }
};

TEST(HotPathAllocation, WarmPlanLookupAllocatesNothing) {
  const auto codec = make_codec("rs(10,4)@block=1024");
  const DegradedRead r(*codec);
  const auto plan = codec->plan_reconstruct(r.available, r.erased);  // miss: builds
  (void)codec->plan_reconstruct(r.available, r.erased);              // warm the key buffer

  std::shared_ptr<const ReconstructPlan> again;
  EXPECT_EQ(news_during([&] {
              for (int i = 0; i < 100; ++i) again = codec->plan_reconstruct(r.available, r.erased);
            }),
            0u);
  EXPECT_EQ(again.get(), plan.get());  // the cached plan itself, not a rebuilt copy
}

TEST(HotPathAllocation, WarmServicePlanAndReconstructAllocateOnlyTheSubmit) {
  // The caller's side of a warm degraded read through a service: the plan
  // lookup allocates nothing, so what is left is the submit — the two
  // pointer-table copies, the job's std::function and its task state, plus
  // one queue block per 32 jobs. (Building a plan on every lookup made
  // this 51 per request.)
  CodecService::Options opt;
  opt.shards = 2;
  opt.plan_cache = std::make_shared<ec::PlanCache>(0, 2);
  CodecService service(opt);
  const ServiceHandle h = service.acquire("rs(10,4)@block=1024");
  DegradedRead r(h.codec());
  const auto request = [&] {
    const auto plan = h.plan_reconstruct(r.available, r.erased);
    h.reconstruct(plan, r.avail_ptrs.data(), r.out.data(), DegradedRead::kFragLen).get();
  };
  // Warm the plan, this thread's key and pointer tables (a get() may run
  // the job here), and the executor's scratch.
  for (int i = 0; i < 10; ++i) request();
  h.plan_reconstruct(r.available, r.erased)
      ->execute(r.avail_ptrs.data(), r.out.data(), DegradedRead::kFragLen);

  constexpr size_t kRequests = 320;
  const size_t news = news_during([&] {
    for (size_t i = 0; i < kRequests; ++i) request();
  });
  EXPECT_GE(news, kRequests * 4);
  EXPECT_LE(news, kRequests * 4 + kRequests / 32 + 1);
  EXPECT_TRUE(r.rebuilt_right());
}

}  // namespace
}  // namespace xorec
