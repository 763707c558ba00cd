// BatchCoder: an async multi-stripe coding session over one codec.
//
// The ROADMAP's scale direction: one-shot encode()/reconstruct() calls
// cannot express "repair a million stripes"; a session can. Jobs are
// submitted (returning a runtime::TaskFuture, std::future<void>'s surface)
// and started FIFO by a dedicated runtime::TaskQueue worker group —
// stripe-level parallelism — and flush() (or the destructor) is the
// completion barrier. A caller that wait()s or get()s a job no worker has
// started yet runs it on its own thread, so a lone caller never waits for a
// worker hand-off. A job over a large stripe also lends its block rows to
// the session's idle workers (runtime/executor.hpp), so a lone caller's
// 10 MiB encode runs on the caller and a worker at once.
//
//   xorec::BatchCoder batch("rs(10,4)@block=1024,batch=8");
//   auto plan = batch.codec().plan_reconstruct(available_ids, erased_ids);
//   for (auto& stripe : stripes)
//     futures.push_back(batch.submit_reconstruct(plan, stripe.avail, stripe.out,
//                                                stripe.frag_len));
//   batch.flush();   // or futures[i].get() individually
//
// The `batch=` spec key sizes the session: `batch=auto` (or omitting it)
// picks the worker count from a one-shot measured calibration
// (auto_batch_workers below), `batch=N` uses N workers. Everything else
// in the spec builds the codec as usual (api/registry.hpp) — plain
// make_codec() rejects `batch=` so the key can't be silently dropped.
//
// Buffer ownership: the pointer ARRAYS passed to submit_* are copied at
// submission; the fragment BUFFERS they point to stay caller-owned and must
// outlive the job (future ready / flush() returned). Jobs never touch two
// stripes' buffers at once, so submitting disjoint stripes is data-race
// free; submitting overlapping buffers is the caller's race to lose.
//
// Exceptions thrown by a job (e.g. unrecoverable pattern on the plan-less
// reconstruct path) are captured in that job's future; flush() itself never
// throws for job failures.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/codec.hpp"
#include "runtime/task_queue.hpp"

namespace xorec {

/// The `batch=auto` worker count: measured, not guessed. The first call
/// runs a tiny encode sweep (a small disabled-pipeline RS codec, a fixed
/// job batch per candidate worker count up to the hardware concurrency) and
/// picks the count with the best wall-clock throughput; the result is
/// memoized for the process, so every later auto session starts instantly.
/// More workers must be 10% faster than the incumbent count to displace it
/// (pick_with_margin below), so ties favor fewer workers (oversubscribed
/// machines and single-core containers stop pretending to have
/// parallelism).
size_t auto_batch_workers();

/// The index of the candidate a calibration sweep keeps. `times` are the
/// candidates' measured times in sweep order; candidate 0 is the first
/// incumbent, and each later one displaces the incumbent only when it beats
/// the incumbent's own time by more than `margin` (0.10 = 10% faster). A
/// near-miss never lowers the bar, so a run of small steps that add up to
/// a real win still wins. `times` must be non-empty.
size_t pick_with_margin(const std::vector<double>& times, double margin);

class BatchCoder {
 public:
  /// Session over an existing codec. threads == 0 runs the measured
  /// calibration ("auto", see auto_batch_workers).
  explicit BatchCoder(std::shared_ptr<const Codec> codec, size_t threads = 0);

  /// Spec-string construction: "rs(10,4)@block=1024,batch=8". The batch=
  /// key (auto | N >= 1) sizes this session; the rest builds the codec.
  explicit BatchCoder(const std::string& spec);

  /// A codec-LESS session: the shard-affinity shape CodecService routes
  /// mixed-codec traffic through. Every submit must carry its own codec
  /// (the explicit-codec overloads below) or a plan; the codec-bound
  /// conveniences throw std::logic_error. threads == 0 is "auto" again.
  explicit BatchCoder(size_t threads);

  /// Destructor is a flush(): blocks until every submitted job has run.
  ~BatchCoder() = default;

  BatchCoder(const BatchCoder&) = delete;
  BatchCoder& operator=(const BatchCoder&) = delete;

  /// False for codec-less shard sessions, where codec() throws.
  bool has_codec() const { return codec_ != nullptr; }
  const Codec& codec() const;
  std::shared_ptr<const Codec> codec_ptr() const { return codec_; }
  size_t threads() const { return queue_.threads(); }
  size_t submitted() const { return submitted_; }
  /// Jobs submitted but not yet finished (the shard queue depth).
  size_t pending() const { return queue_.depth(); }

  /// Encode one stripe: data_fragments() input pointers, parity_fragments()
  /// output pointers, frag_len as in Codec::encode.
  runtime::TaskFuture submit_encode(const uint8_t* const* data, uint8_t* const* parity,
                                    size_t frag_len);

  /// Explicit-codec encode: the multi-codec shard path (CodecService) —
  /// this session's own codec, if any, is bypassed.
  runtime::TaskFuture submit_encode(std::shared_ptr<const Codec> codec,
                                    const uint8_t* const* data, uint8_t* const* parity,
                                    size_t frag_len);

  /// Repair one stripe with a prepared plan (the degraded-read fast path —
  /// plan once, submit per stripe). available_frags is parallel to
  /// plan->available(), out to plan->erased().
  runtime::TaskFuture submit_reconstruct(std::shared_ptr<const ReconstructPlan> plan,
                                         const uint8_t* const* available_frags,
                                         uint8_t* const* out, size_t frag_len);

  /// Plan-less convenience: the plan lookup happens inside the job (memoized
  /// per codec); bad ids / unrecoverable patterns surface via the future.
  runtime::TaskFuture submit_reconstruct(std::vector<uint32_t> available,
                                         const uint8_t* const* available_frags,
                                         std::vector<uint32_t> erased, uint8_t* const* out,
                                         size_t frag_len);

  /// Explicit-codec plan-less reconstruct (multi-codec shard path).
  runtime::TaskFuture submit_reconstruct(std::shared_ptr<const Codec> codec,
                                         std::vector<uint32_t> available,
                                         const uint8_t* const* available_frags,
                                         std::vector<uint32_t> erased, uint8_t* const* out,
                                         size_t frag_len);

  /// Barrier: returns when every job submitted so far has finished.
  void flush() { queue_.wait_idle(); }

 private:
  struct Session {
    std::shared_ptr<const Codec> codec;
    size_t threads;
  };
  explicit BatchCoder(Session s) : BatchCoder(std::move(s.codec), s.threads) {}
  static Session parse_session(const std::string& spec);

  std::shared_ptr<const Codec> codec_;
  runtime::TaskQueue queue_;
  std::atomic<size_t> submitted_{0};
};

}  // namespace xorec
