#include "api/batch.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "api/registry.hpp"
#include "ec/rs_codec.hpp"

namespace xorec {

size_t pick_with_margin(const std::vector<double>& times, double margin) {
  size_t best = 0;
  for (size_t i = 1; i < times.size(); ++i)
    if (times[i] < times[best] * (1.0 - margin)) best = i;
  return best;
}

namespace {

/// One calibration candidate: run the prepared encode jobs through a
/// TaskQueue with `workers` threads, return the wall time. Each job owns
/// its parity buffers (disjoint writes; inputs are shared read-only).
double time_encode_batch(const Codec& codec, size_t workers, size_t frag_len,
                         const std::vector<const uint8_t*>& data,
                         std::vector<std::vector<uint8_t*>>& parity_ptrs) {
  runtime::TaskQueue q(workers);
  const auto t0 = std::chrono::steady_clock::now();
  for (auto& p : parity_ptrs)
    q.submit([&codec, &data, &p, frag_len] { codec.encode(data.data(), p.data(), frag_len); });
  q.wait_idle();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

size_t measure_auto_workers() {
  const size_t hw = std::max<size_t>(1, std::thread::hardware_concurrency());
  if (hw == 1) return 1;

  // A tiny, compile-cheap workload: RS(4,2) with the optimizer disabled
  // (naive pipeline — we are measuring the machine's appetite for stripe
  // parallelism, not the SLP).
  ec::CodecOptions opt;
  opt.pipeline.compress = slp::CompressKind::None;
  opt.pipeline.fuse = false;
  opt.pipeline.schedule = slp::ScheduleKind::None;
  opt.shared_cache = false;  // calibration must not pollute the shared cache
  const ec::RsCodec codec(4, 2, opt);
  const size_t frag_len = codec.fragment_multiple() * 2048;  // 16 KiB fragments

  constexpr size_t kJobs = 64;
  std::vector<std::vector<uint8_t>> data_bufs(codec.data_fragments(),
                                              std::vector<uint8_t>(frag_len, 0xA5));
  std::vector<const uint8_t*> data;
  for (const auto& f : data_bufs) data.push_back(f.data());
  std::vector<std::vector<std::vector<uint8_t>>> parity_bufs(
      kJobs, std::vector<std::vector<uint8_t>>(codec.parity_fragments(),
                                               std::vector<uint8_t>(frag_len)));
  std::vector<std::vector<uint8_t*>> parity_ptrs(kJobs);
  for (size_t j = 0; j < kJobs; ++j)
    for (auto& f : parity_bufs[j]) parity_ptrs[j].push_back(f.data());

  std::vector<size_t> candidates{1};
  for (size_t c = 2; c < hw; c *= 2) candidates.push_back(c);
  if (candidates.back() != hw) candidates.push_back(hw);

  time_encode_batch(codec, 1, frag_len, data, parity_ptrs);  // warmup
  std::vector<double> times;
  for (size_t c : candidates)
    times.push_back(time_encode_batch(codec, c, frag_len, data, parity_ptrs));
  // Require a real win over fewer workers: 10% slack filters timing noise
  // and keeps the count low on machines where scaling is flat.
  return candidates[pick_with_margin(times, 0.10)];
}

size_t resolve_threads(size_t threads) {
  return threads > 0 ? threads : auto_batch_workers();
}

std::shared_ptr<const Codec> checked(std::shared_ptr<const Codec> codec) {
  if (!codec) throw std::invalid_argument("BatchCoder: null codec");
  return codec;
}

}  // namespace

size_t auto_batch_workers() {
  static const size_t measured = measure_auto_workers();
  return measured;
}

BatchCoder::BatchCoder(std::shared_ptr<const Codec> codec, size_t threads)
    : codec_(checked(std::move(codec))), queue_(resolve_threads(threads)) {}

BatchCoder::BatchCoder(size_t threads) : queue_(resolve_threads(threads)) {}

const Codec& BatchCoder::codec() const {
  if (!codec_)
    throw std::logic_error(
        "BatchCoder: codec-less shard session — submits must name their codec");
  return *codec_;
}

BatchCoder::Session BatchCoder::parse_session(const std::string& spec) {
  CodecSpec cs = parse_spec(spec);
  const size_t threads = cs.batch_threads;
  // batch= belongs to this session, not the codec — strip it so the family
  // builders (which reject the key) accept the rest of the spec.
  cs.option_keys.erase(std::remove(cs.option_keys.begin(), cs.option_keys.end(), "batch"),
                       cs.option_keys.end());
  return {std::shared_ptr<const Codec>(make_codec(cs)), threads};
}

BatchCoder::BatchCoder(const std::string& spec) : BatchCoder(parse_session(spec)) {}

std::future<void> BatchCoder::submit_encode(const uint8_t* const* data,
                                            uint8_t* const* parity, size_t frag_len) {
  return submit_encode(codec_ptr(), data, parity, frag_len);
}

std::future<void> BatchCoder::submit_encode(std::shared_ptr<const Codec> codec,
                                            const uint8_t* const* data,
                                            uint8_t* const* parity, size_t frag_len) {
  if (!codec)
    throw std::logic_error("BatchCoder: submit_encode on a session with no codec");
  std::vector<const uint8_t*> d(data, data + codec->data_fragments());
  std::vector<uint8_t*> p(parity, parity + codec->parity_fragments());
  ++submitted_;
  return queue_.submit(
      [codec = std::move(codec), d = std::move(d), p = std::move(p), frag_len] {
        codec->encode(d.data(), p.data(), frag_len);
      });
}

std::future<void> BatchCoder::submit_reconstruct(std::shared_ptr<const ReconstructPlan> plan,
                                                 const uint8_t* const* available_frags,
                                                 uint8_t* const* out, size_t frag_len) {
  if (!plan) throw std::invalid_argument("BatchCoder: null plan");
  std::vector<const uint8_t*> avail(available_frags,
                                    available_frags + plan->available().size());
  std::vector<uint8_t*> o(out, out + plan->erased().size());
  ++submitted_;
  return queue_.submit(
      [plan = std::move(plan), avail = std::move(avail), o = std::move(o), frag_len] {
        plan->execute(avail.data(), o.data(), frag_len);
      });
}

std::future<void> BatchCoder::submit_reconstruct(std::vector<uint32_t> available,
                                                 const uint8_t* const* available_frags,
                                                 std::vector<uint32_t> erased,
                                                 uint8_t* const* out, size_t frag_len) {
  return submit_reconstruct(codec_ptr(), std::move(available), available_frags,
                            std::move(erased), out, frag_len);
}

std::future<void> BatchCoder::submit_reconstruct(std::shared_ptr<const Codec> codec,
                                                 std::vector<uint32_t> available,
                                                 const uint8_t* const* available_frags,
                                                 std::vector<uint32_t> erased,
                                                 uint8_t* const* out, size_t frag_len) {
  if (!codec)
    throw std::logic_error("BatchCoder: submit_reconstruct on a session with no codec");
  std::vector<const uint8_t*> avail(available_frags, available_frags + available.size());
  std::vector<uint8_t*> o(out, out + erased.size());
  ++submitted_;
  return queue_.submit([codec = std::move(codec), available = std::move(available),
                        erased = std::move(erased), avail = std::move(avail),
                        o = std::move(o), frag_len] {
    codec->reconstruct(available, avail.data(), erased, o.data(), frag_len);
  });
}

}  // namespace xorec
