#include "api/codec.hpp"

#include <algorithm>
#include <stdexcept>

namespace xorec {

// ---- ReconstructPlan -------------------------------------------------------

ReconstructPlan::ReconstructPlan(std::string codec_name, size_t fragment_multiple,
                                 std::vector<uint32_t> available,
                                 std::vector<uint32_t> erased)
    : codec_name_(std::move(codec_name)),
      fragment_multiple_(fragment_multiple),
      available_(std::move(available)),
      erased_(std::move(erased)) {}

const PlanStats& ReconstructPlan::schedule_stats() const {
  std::call_once(stats_once_, [&] { stats_ = compute_stats(); });
  return stats_;
}

const PlanReadSet& ReconstructPlan::read_set() const {
  std::call_once(read_set_once_, [&] { read_set_ = compute_read_set(); });
  return read_set_;
}

PlanReadSet ReconstructPlan::compute_read_set() const {
  PlanReadSet rs;
  if (erased_.empty()) return rs;  // no-op plan reads nothing
  rs.fragments = available_;
  std::sort(rs.fragments.begin(), rs.fragments.end());
  rs.fragment_strips.assign(rs.fragments.size(),
                            static_cast<uint32_t>(fragment_multiple_));
  rs.strips = rs.fragments.size() * fragment_multiple_;
  return rs;
}

void ReconstructPlan::execute(const uint8_t* const* available_frags, uint8_t* const* out,
                              size_t frag_len) const {
  if (frag_len == 0 || frag_len % fragment_multiple_ != 0)
    throw std::invalid_argument(codec_name_ + " plan: frag_len " +
                                std::to_string(frag_len) +
                                " is not a positive multiple of " +
                                std::to_string(fragment_multiple_));
  if (erased_.empty()) return;
  execute_impl(available_frags, out, frag_len);
}

namespace {

/// The base-class fallback: no compiled program, every execute() re-runs the
/// codec's one-shot reconstruct. Borrows the codec — see api/codec.hpp.
class FallbackPlan final : public ReconstructPlan {
 public:
  FallbackPlan(const Codec* codec, std::vector<uint32_t> available,
               std::vector<uint32_t> erased)
      : ReconstructPlan(codec->name(), codec->fragment_multiple(), std::move(available),
                        std::move(erased)),
        codec_(codec) {}

 protected:
  void execute_impl(const uint8_t* const* available_frags, uint8_t* const* out,
                    size_t frag_len) const override {
    codec_->reconstruct(available(), available_frags, erased(), out, frag_len);
  }

 private:
  const Codec* codec_;
};

}  // namespace

// ---- Codec -----------------------------------------------------------------

void Codec::check_frag_len(size_t frag_len) const {
  const size_t m = fragment_multiple();
  if (frag_len == 0 || frag_len % m != 0)
    throw std::invalid_argument(name() + ": frag_len " + std::to_string(frag_len) +
                                " is not a positive multiple of " + std::to_string(m));
}

void Codec::check_id_sets(const std::vector<uint32_t>& available,
                          const std::vector<uint32_t>& erased) const {
  const size_t total = total_fragments();
  // 0 = unseen, 1 = available, 2 = erased. Per thread and reused, so a warm
  // plan lookup allocates nothing here.
  thread_local std::vector<uint8_t> seen;
  seen.assign(total, 0);
  for (uint32_t id : available) {
    if (id >= total)
      throw std::out_of_range(name() + ": available id " + std::to_string(id) +
                              " out of range [0, " + std::to_string(total) + ")");
    if (seen[id] != 0)
      throw std::invalid_argument(name() + ": duplicate available id " + std::to_string(id));
    seen[id] = 1;
  }
  for (uint32_t id : erased) {
    if (id >= total)
      throw std::out_of_range(name() + ": erased id " + std::to_string(id) +
                              " out of range [0, " + std::to_string(total) + ")");
    if (seen[id] == 1)
      throw std::invalid_argument(name() + ": fragment " + std::to_string(id) +
                                  " both available and erased");
    if (seen[id] == 2)
      throw std::invalid_argument(name() + ": duplicate erased id " + std::to_string(id));
    seen[id] = 2;
  }
  // No survivor-count check here: MDS codecs need data_fragments() survivors
  // and enforce that themselves, but non-MDS XOR codes can recover solvable
  // patterns from fewer (their F2 solver is the authority).
}

void Codec::encode(const uint8_t* const* data, uint8_t* const* parity,
                   size_t frag_len) const {
  check_frag_len(frag_len);
  encode_impl(data, parity, frag_len);
}

std::shared_ptr<const ReconstructPlan> Codec::plan_reconstruct(
    const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const {
  check_id_sets(available, erased);
  return plan_reconstruct_impl(available, erased);
}

std::shared_ptr<const ReconstructPlan> Codec::plan_reconstruct_impl(
    const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const {
  return std::make_shared<FallbackPlan>(this, available, erased);
}

void Codec::reconstruct(const std::vector<uint32_t>& available,
                        const uint8_t* const* available_frags,
                        const std::vector<uint32_t>& erased, uint8_t* const* out,
                        size_t frag_len) const {
  check_frag_len(frag_len);
  check_id_sets(available, erased);
  if (erased.empty()) return;
  reconstruct_impl(available, available_frags, erased, out, frag_len);
}

void Codec::encode(std::span<const uint8_t* const> data, std::span<uint8_t* const> parity,
                   size_t frag_len) const {
  if (data.size() != data_fragments() || parity.size() != parity_fragments())
    throw std::invalid_argument(name() + ": encode expects " +
                                std::to_string(data_fragments()) + " data and " +
                                std::to_string(parity_fragments()) +
                                " parity buffers, got " + std::to_string(data.size()) +
                                " and " + std::to_string(parity.size()));
  encode(data.data(), parity.data(), frag_len);
}

void Codec::reconstruct(std::span<const uint32_t> available,
                        std::span<const uint8_t* const> available_frags,
                        std::span<const uint32_t> erased, std::span<uint8_t* const> out,
                        size_t frag_len) const {
  if (available.size() != available_frags.size())
    throw std::invalid_argument(name() + ": available ids and buffers differ in length");
  if (erased.size() != out.size())
    throw std::invalid_argument(name() + ": erased ids and output buffers differ in length");
  reconstruct(std::vector<uint32_t>(available.begin(), available.end()),
              available_frags.data(),
              std::vector<uint32_t>(erased.begin(), erased.end()), out.data(), frag_len);
}

}  // namespace xorec
