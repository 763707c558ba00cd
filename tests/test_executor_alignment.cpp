// The executor's cache-line-aligned row grid (runtime/aligned_buffer.hpp):
// first_block_len() peels the first row so later rows of the caller's strips
// start on a cache line. The grid must never change a byte of output, for
// any block size, strip length, backend, ISA, or mix of strip line offsets.
#include <gtest/gtest.h>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/registry.hpp"
#include "ec/plan_cache.hpp"
#include "ec/rs_codec.hpp"
#include "runtime/aligned_buffer.hpp"
#include "runtime/executor.hpp"
#include "runtime/task_queue.hpp"

namespace xorec {
namespace {

using runtime::first_block_len;

// ---- the helper -------------------------------------------------------------

/// Strip pointers at the given line offsets. first_block_len never reads
/// through them, so they may share one small line-aligned buffer.
struct FakeStrips {
  alignas(64) uint8_t line[64] = {};
  std::vector<const uint8_t*> in;
  std::vector<uint8_t*> out;
  std::vector<uint32_t> refs;

  void add_in(size_t r, uint32_t w) {
    in.push_back(line + r);
    refs.insert(refs.begin() + static_cast<long>(in.size() - 1), w);
  }
  void add_out(size_t r, uint32_t w) {
    out.push_back(line + r);
    refs.push_back(w);
  }
  size_t first(size_t block, size_t strip_len) const {
    return first_block_len(block, strip_len, in, out, refs);
  }
};

TEST(FirstBlockLen, PeelsToTheCommonLineOffset) {
  FakeStrips s;
  for (int i = 0; i < 4; ++i) s.add_in(16, 3);
  s.add_out(16, 2);
  EXPECT_EQ(s.first(1024, 128 * 1024), 1024u - 16);
  EXPECT_EQ(s.first(512, 513), 512u - 16);
}

TEST(FirstBlockLen, AlignedStripsKeepTheFullBlock) {
  FakeStrips s;
  s.add_in(0, 5);
  s.add_out(0, 1);
  EXPECT_EQ(s.first(1024, 4096), 1024u);
}

TEST(FirstBlockLen, BlockNotAMultipleOf64KeepsTheFullBlock) {
  FakeStrips s;
  s.add_in(16, 1);
  s.add_out(16, 1);
  EXPECT_EQ(s.first(1000, 16000), 1000u);
  EXPECT_EQ(s.first(96 + 1, 1000), 97u);
}

TEST(FirstBlockLen, OneRowStripsKeepTheFullBlock) {
  FakeStrips s;
  s.add_in(16, 1);
  s.add_out(16, 1);
  EXPECT_EQ(s.first(1024, 1024), 1024u);
  EXPECT_EQ(s.first(1024, 816), 1024u);
  EXPECT_EQ(s.first(1024, 1), 1024u);
  EXPECT_EQ(s.first(1024, 1025), 1024u - 16);
}

TEST(FirstBlockLen, VoteIsWeightedByOperandReferences) {
  // Four inputs at +16 referenced once each lose to one output at +48
  // referenced five times.
  FakeStrips s;
  for (int i = 0; i < 4; ++i) s.add_in(16, 1);
  s.add_out(48, 5);
  EXPECT_EQ(s.first(1024, 4096), 1024u - 48);
  // Unreferenced strips do not vote at all.
  FakeStrips t;
  t.add_in(8, 0);
  t.add_in(8, 0);
  t.add_out(40, 1);
  EXPECT_EQ(t.first(1024, 4096), 1024u - 40);
}

TEST(FirstBlockLen, TiesGoToTheLowestOffset) {
  FakeStrips s;
  s.add_in(40, 2);
  s.add_in(8, 2);
  EXPECT_EQ(s.first(1024, 4096), 1024u - 8);
  FakeStrips t;  // a tie with the aligned strips keeps the full block
  t.add_in(63, 1);
  t.add_out(0, 1);
  EXPECT_EQ(t.first(1024, 4096), 1024u);
  FakeStrips none;  // no strips: nothing to align
  EXPECT_EQ(none.first(1024, 4096), 1024u);
}

TEST(FirstBlockLen, InputWeightsPrecedeOutputWeights) {
  // refs lists the inputs' weights, then the outputs'.
  FakeStrips s;
  s.add_out(32, 1);
  s.add_in(8, 3);
  s.add_in(16, 1);
  EXPECT_EQ(s.refs, (std::vector<uint32_t>{3, 1, 1}));
  EXPECT_EQ(s.first(1024, 4096), 1024u - 8);
}

// ---- byte identity of the peeled grid --------------------------------------

constexpr size_t kData = 10, kParity = 4, kW = ec::RsCodec::kStripsPerFragment;
constexpr size_t kIn = kData * kW, kOut = kParity * kW;

/// Input/output strips of rs(10,4) in one pool, each at its own line offset,
/// with guard bytes around every strip.
class StripPool {
 public:
  StripPool(size_t strip_len, const std::vector<size_t>& residues)
      : stride_((strip_len + 2 * 64 + 63) / 64 * 64), pool_(residues.size() * stride_ + 64) {
    const uintptr_t raw = reinterpret_cast<uintptr_t>(pool_.data());
    uint8_t* base = pool_.data() + (64 - raw % 64) % 64;
    for (size_t i = 0; i < residues.size(); ++i)
      strips_.push_back(base + i * stride_ + 64 + residues[i]);
    std::fill(pool_.begin(), pool_.end(), kGuard);
  }
  uint8_t* strip(size_t i) const { return strips_[i]; }
  /// Every byte outside the strips still holds the guard pattern (strips
  /// lie in address order).
  bool guards_intact(size_t strip_len) const {
    const uint8_t* from = pool_.data();
    const auto guarded = [](const uint8_t* a, const uint8_t* b) {
      return std::all_of(a, b, [](uint8_t v) { return v == kGuard; });
    };
    for (uint8_t* s : strips_) {
      if (!guarded(from, s)) return false;
      from = s + strip_len;
    }
    return guarded(from, pool_.data() + pool_.size());
  }

 private:
  static constexpr uint8_t kGuard = 0xA5;
  size_t stride_;
  std::vector<uint8_t> pool_;
  std::vector<uint8_t*> strips_;
};

/// Data fragments (random) and their parity from the reference codec,
/// `naive_xor(10,4)@exec=interp`, on contiguous fragment buffers.
struct Reference {
  std::vector<std::vector<uint8_t>> frags;  // data then parity
  explicit Reference(size_t strip_len) {
    const size_t frag_len = kW * strip_len;
    std::mt19937 rng(static_cast<uint32_t>(strip_len));
    frags.assign(kData + kParity, std::vector<uint8_t>(frag_len));
    std::vector<const uint8_t*> data;
    std::vector<uint8_t*> parity;
    for (size_t f = 0; f < kData; ++f) {
      for (uint8_t& b : frags[f]) b = static_cast<uint8_t>(rng());
      data.push_back(frags[f].data());
    }
    for (size_t f = kData; f < kData + kParity; ++f) parity.push_back(frags[f].data());
    make_codec("naive_xor(10,4)@exec=interp")->encode(data.data(), parity.data(), frag_len);
  }
  /// Strip s of fragment f, the SLP constant / output numbering.
  const uint8_t* strip(size_t f, size_t s, size_t strip_len) const {
    return frags[f].data() + s * strip_len;
  }
};

/// Line offsets of the 80 input and 32 output strips for one case.
struct ResidueCase {
  std::string name;
  std::vector<size_t> residues;  // kIn inputs, then kOut outputs
};

std::vector<ResidueCase> residue_cases() {
  std::vector<ResidueCase> cases;
  for (size_t r : {0, 8, 16, 48, 63})
    cases.push_back({"all+" + std::to_string(r), std::vector<size_t>(kIn + kOut, r)});
  ResidueCase mixed{"in+16,out+0", std::vector<size_t>(kIn + kOut, 0)};
  std::fill(mixed.residues.begin(), mixed.residues.begin() + kIn, 16);
  cases.push_back(mixed);
  ResidueCase alt{"alternating+16/+48", {}};
  for (size_t i = 0; i < kIn + kOut; ++i) alt.residues.push_back(i % 2 ? 48 : 16);
  cases.push_back(alt);
  return cases;
}

using GridParam = std::tuple<runtime::ExecBackend, kernel::Isa, size_t>;

class ExecutorAlignment : public ::testing::TestWithParam<GridParam> {};

TEST_P(ExecutorAlignment, PeeledGridIsByteIdentical) {
  const auto [backend, isa, block] = GetParam();
  runtime::ExecOptions opt;
  opt.block_size = block;
  opt.isa = isa;
  opt.backend = backend;
  const ec::RsCodec rs(kData, kParity);
  const ec::CompiledProgram enc(*rs.encode_pipeline(), opt);

  for (size_t strip_len : {size_t{1}, size_t{63}, block - 1, block, block + 1, 3 * block + 5,
                           16 * block}) {
    const Reference ref(strip_len);
    for (const ResidueCase& rc : residue_cases()) {
      SCOPED_TRACE(::testing::Message() << "strip_len=" << strip_len << " " << rc.name);
      StripPool pool(strip_len, rc.residues);
      std::vector<const uint8_t*> in(kIn);
      std::vector<uint8_t*> out(kOut);
      for (size_t i = 0; i < kIn; ++i) {
        in[i] = pool.strip(i);
        std::copy_n(ref.strip(i / kW, i % kW, strip_len), strip_len, pool.strip(i));
      }
      for (size_t o = 0; o < kOut; ++o) {
        out[o] = pool.strip(kIn + o);
        std::fill_n(out[o], strip_len, uint8_t{0x3C});
      }
      enc.exec.run(in.data(), out.data(), strip_len);
      for (size_t o = 0; o < kOut; ++o)
        ASSERT_TRUE(std::equal(out[o], out[o] + strip_len,
                               ref.strip(kData + o / kW, o % kW, strip_len)))
            << "output strip " << o;
      ASSERT_TRUE(pool.guards_intact(strip_len)) << "write outside a strip";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExecutorAlignment,
    ::testing::Combine(::testing::Values(runtime::ExecBackend::Interp,
                                         runtime::ExecBackend::Lowered),
                       ::testing::Values(kernel::Isa::Auto, kernel::Isa::Word64),
                       ::testing::Values(size_t{512}, size_t{1024}, size_t{1000})),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::string(runtime::exec_backend_name(std::get<0>(info.param))) + "_" +
             kernel::isa_name(std::get<1>(info.param)) + "_B" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ExecutorAlignmentCodec, MisalignedFragmentsEncodeAndReconstruct) {
  // Through the public API: fragments 16 bytes past a line (a glibc mmap'd
  // std::vector) and 63 past, strips spanning many rows.
  const size_t strip_len = 3 * 1024 + 5, frag_len = kW * strip_len;
  const Reference ref(strip_len);
  for (const char* exec : {"interp", "lowered"}) {
    const auto codec = make_codec(std::string("rs(10,4)@block=1024,exec=") + exec);
    for (size_t r : {16, 63}) {
      SCOPED_TRACE(::testing::Message() << exec << " +" << r);
      std::vector<std::vector<uint8_t>> bufs(kData + kParity,
                                             std::vector<uint8_t>(frag_len + 128));
      std::vector<uint8_t*> frag(kData + kParity);
      for (size_t f = 0; f < frag.size(); ++f) {
        const uintptr_t raw = reinterpret_cast<uintptr_t>(bufs[f].data());
        frag[f] = bufs[f].data() + (64 - raw % 64) % 64 + r;
        if (f < kData) std::copy(ref.frags[f].begin(), ref.frags[f].end(), frag[f]);
      }
      codec->encode(std::vector<const uint8_t*>(frag.begin(), frag.begin() + kData).data(),
                    frag.data() + kData, frag_len);
      for (size_t f = kData; f < frag.size(); ++f)
        ASSERT_TRUE(std::equal(frag[f], frag[f] + frag_len, ref.frags[f].begin()))
            << "parity fragment " << f;

      // The paper's decode pattern, rebuilt into misaligned buffers.
      const std::vector<uint32_t> erased = {2, 4, 5, 6};
      std::vector<uint32_t> available;
      std::vector<const uint8_t*> avail_ptrs;
      for (uint32_t id = 0; id < kData + kParity; ++id)
        if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
          available.push_back(id);
          avail_ptrs.push_back(frag[id]);
        }
      std::vector<uint8_t*> out;
      for (uint32_t id : erased) {
        std::fill_n(frag[id], frag_len, uint8_t{0});
        out.push_back(frag[id]);
      }
      codec->plan_reconstruct(available, erased)->execute(avail_ptrs.data(), out.data(),
                                                          frag_len);
      for (uint32_t id : erased)
        ASSERT_TRUE(std::equal(frag[id], frag[id] + frag_len, ref.frags[id].begin()))
            << "rebuilt fragment " << id;
    }
  }
}

// ---- row-range split ----------------------------------------------------------

/// Run `fn` as a task of `q`, where a call of >= 2 × kMinSplitRows rows
/// splits into row parts.
template <typename Fn>
void in_queue(runtime::TaskQueue& q, Fn&& fn) {
  q.submit(std::forward<Fn>(fn)).get();
}

/// Move the calling thread to an allowed CPU other than `cpu`, if there is
/// one. A queue worker woken from the test thread may be placed on the test
/// thread's CPU, and a scheduler that does not balance load leaves it there:
/// then it gets no time until the test thread's whole job has run.
void move_off_cpu(int cpu) {
#if defined(__linux__)
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (cpu < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (c == cpu || !CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
#else
  (void)cpu;
#endif
}

int current_cpu() {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

class ExecutorSplit : public ::testing::TestWithParam<runtime::ExecBackend> {};

TEST_P(ExecutorSplit, RowPartsAreByteIdentical) {
  runtime::ExecOptions opt;
  opt.block_size = 1024;
  opt.backend = GetParam();
  const ec::RsCodec rs(kData, kParity);
  const ec::CompiledProgram enc(*rs.encode_pipeline(), opt);
  runtime::TaskQueue q(2);

  // 2, 4 and kMaxSplitParts parts; no length is a multiple of B or of a
  // part's rows.
  constexpr size_t kRows = runtime::Executor::kMinSplitRows;
  for (size_t strip_len : {(2 * kRows + 1) * 1024 + 5, (4 * kRows + 1) * 1024 + 333,
                           (20 * kRows + 3) * 1024 + 1}) {
    const Reference ref(strip_len);
    for (const ResidueCase& rc : residue_cases()) {
      if (rc.name != "all+16" && rc.name != "alternating+16/+48") continue;
      SCOPED_TRACE(::testing::Message() << "strip_len=" << strip_len << " " << rc.name);
      StripPool pool(strip_len, rc.residues);
      std::vector<const uint8_t*> in(kIn);
      std::vector<uint8_t*> out(kOut);
      for (size_t i = 0; i < kIn; ++i) {
        in[i] = pool.strip(i);
        std::copy_n(ref.strip(i / kW, i % kW, strip_len), strip_len, pool.strip(i));
      }
      for (size_t o = 0; o < kOut; ++o) {
        out[o] = pool.strip(kIn + o);
        std::fill_n(out[o], strip_len, uint8_t{0x3C});
      }
      ASSERT_LT(first_block_len(1024, strip_len, in, out,
                                std::vector<uint32_t>(kIn + kOut, 1)),
                1024u)
          << "the first row is not peeled";
      in_queue(q, [&] { enc.exec.run(in.data(), out.data(), strip_len); });
      for (size_t o = 0; o < kOut; ++o)
        ASSERT_TRUE(std::equal(out[o], out[o] + strip_len,
                               ref.strip(kData + o / kW, o % kW, strip_len)))
            << "output strip " << o;
      ASSERT_TRUE(pool.guards_intact(strip_len)) << "write outside a strip";
    }
  }
}

TEST_P(ExecutorSplit, CodecEncodeAndReconstructInATaskMatchTheReference) {
  // Through the public API, fragments 16 bytes past a line, strips long
  // enough to split inside a task.
  const size_t strip_len = (5 * runtime::Executor::kMinSplitRows + 3) * 1024 + 5;
  const size_t frag_len = kW * strip_len;
  const Reference ref(strip_len);
  const auto codec = make_codec(std::string("rs(10,4)@block=1024,exec=") +
                                runtime::exec_backend_name(GetParam()));
  runtime::TaskQueue q(2);
  std::vector<std::vector<uint8_t>> bufs(kData + kParity, std::vector<uint8_t>(frag_len + 128));
  std::vector<uint8_t*> frag(kData + kParity);
  for (size_t f = 0; f < frag.size(); ++f) {
    const uintptr_t raw = reinterpret_cast<uintptr_t>(bufs[f].data());
    frag[f] = bufs[f].data() + (64 - raw % 64) % 64 + 16;
    if (f < kData) std::copy(ref.frags[f].begin(), ref.frags[f].end(), frag[f]);
  }
  const std::vector<const uint8_t*> data(frag.begin(), frag.begin() + kData);
  in_queue(q, [&] { codec->encode(data.data(), frag.data() + kData, frag_len); });
  for (size_t f = kData; f < frag.size(); ++f)
    ASSERT_TRUE(std::equal(frag[f], frag[f] + frag_len, ref.frags[f].begin()))
        << "parity fragment " << f;

  const std::vector<uint32_t> erased = {2, 4, 5, 6};
  std::vector<uint32_t> available;
  std::vector<const uint8_t*> avail_ptrs;
  for (uint32_t id = 0; id < kData + kParity; ++id)
    if (std::find(erased.begin(), erased.end(), id) == erased.end()) {
      available.push_back(id);
      avail_ptrs.push_back(frag[id]);
    }
  std::vector<uint8_t*> out;
  for (uint32_t id : erased) {
    std::fill_n(frag[id], frag_len, uint8_t{0});
    out.push_back(frag[id]);
  }
  const auto plan = codec->plan_reconstruct(available, erased);
  in_queue(q, [&] { plan->execute(avail_ptrs.data(), out.data(), frag_len); });
  for (uint32_t id : erased)
    ASSERT_TRUE(std::equal(frag[id], frag[id] + frag_len, ref.frags[id].begin()))
        << "rebuilt fragment " << id;
}

TEST_P(ExecutorSplit, LargeJobOnAOneWorkerQueueRunsOnTwoThreads) {
  // The encode_10mb shape: 1 MiB fragments (128 KiB strips, 128 rows at
  // B = 1K), one worker, and the caller runs its own job. The worker is held
  // on another CPU until the job starts, then takes the job's helper and
  // runs parts beside the caller: two scratch arenas in use at once.
  runtime::ExecOptions opt;
  opt.block_size = 1024;
  opt.backend = GetParam();
  const ec::RsCodec rs(kData, kParity);
  const ec::CompiledProgram enc(*rs.encode_pipeline(), opt);
  const size_t strip_len = (size_t{1} << 20) / kW;
  const Reference ref(strip_len);
  std::vector<const uint8_t*> in(kIn);
  for (size_t i = 0; i < kIn; ++i) in[i] = ref.strip(i / kW, i % kW, strip_len);
  std::vector<std::vector<uint8_t>> out_bufs(kOut, std::vector<uint8_t>(strip_len));
  std::vector<uint8_t*> out;
  for (auto& b : out_bufs) out.push_back(b.data());

  // Outside any task the call stays on this thread.
  enc.exec.run(in.data(), out.data(), strip_len);
  ASSERT_EQ(enc.exec.scratch_stats().high_water, 1u);

  runtime::TaskQueue q(1);
  for (int attempt = 0; attempt < 20 && enc.exec.scratch_stats().high_water < 2; ++attempt) {
    std::atomic<bool> holding{false}, go{false};
    const int caller_cpu = current_cpu();
    auto hold = q.submit([&] {
      move_off_cpu(caller_cpu);
      holding = true;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!go && std::chrono::steady_clock::now() < deadline) std::this_thread::yield();
    });
    while (!holding) std::this_thread::yield();
    in_queue(q, [&] {
      go = true;
      enc.exec.run(in.data(), out.data(), strip_len);
    });
    hold.get();
    for (size_t o = 0; o < kOut; ++o)
      ASSERT_TRUE(std::equal(out[o], out[o] + strip_len,
                             ref.strip(kData + o / kW, o % kW, strip_len)))
          << "output strip " << o;
  }
  EXPECT_GE(enc.exec.scratch_stats().high_water, 2u) << "no part ran on the idle worker";
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecutorSplit,
                         ::testing::Values(runtime::ExecBackend::Interp,
                                           runtime::ExecBackend::Lowered),
                         [](const ::testing::TestParamInfo<runtime::ExecBackend>& info) {
                           return std::string(runtime::exec_backend_name(info.param));
                         });

}  // namespace
}  // namespace xorec
