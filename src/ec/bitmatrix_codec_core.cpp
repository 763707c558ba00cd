#include "ec/bitmatrix_codec_core.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <tuple>

#include "ec/repair_layout.hpp"
#include "slp/metrics.hpp"

namespace xorec::ec {

namespace {

/// Fill `dst` with the strip pointers of `count` fragments, fragment-major
/// (fragment f's strips occupy w·f .. w·f+w-1), reusing dst's capacity — the
/// execute() hot path runs one plan over millions of stripes and must stay
/// allocation-free after warmup.
template <typename Byte>
void strips_into(std::vector<Byte*>& dst, Byte* const* frags, size_t count, size_t w,
                 size_t frag_len) {
  const size_t strip_len = frag_len / w;
  dst.resize(count * w);
  for (size_t f = 0; f < count; ++f)
    for (size_t s = 0; s < w; ++s) dst[f * w + s] = frags[f] + s * strip_len;
}

/// The compiled two-step repair plan: a decode program over a fixed subset
/// of the survivors, then a parity re-encode over the (partly rebuilt) data.
/// Self-contained: co-owns the programs, copies the index maps — the codec
/// may be destroyed while the plan keeps serving stripes. make_plan builds
/// one per (codec identity and name, caller's id order) and caches the
/// finished object in the PlanCache, so every warm plan_reconstruct and
/// plan-less reconstruct of that order shares it, along with its lazily
/// computed read set and stats.
class BitmatrixReconstructPlan final : public ReconstructPlan {
 public:
  struct DataStep {
    std::shared_ptr<const CompiledProgram> program;
    std::vector<size_t> in_pos;   // indices into available()
    std::vector<size_t> out_pos;  // indices into `out` (canonical sorted order)
  };
  struct ParityStep {
    std::shared_ptr<const CompiledProgram> program;
    std::vector<RepairLayout::Source> data_src;  // k entries, data frags in order
    std::vector<size_t> out_pos;                 // indices into `out`
  };

  BitmatrixReconstructPlan(std::string codec_name, size_t w,
                           std::vector<uint32_t> available, std::vector<uint32_t> erased,
                           std::optional<DataStep> data, std::optional<ParityStep> parity)
      : ReconstructPlan(std::move(codec_name), w, std::move(available), std::move(erased)),
        w_(w),
        data_(std::move(data)),
        parity_(std::move(parity)) {}

  const slp::PipelineResult* decode_pipeline() const override {
    return data_ ? &data_->program->pipeline : nullptr;
  }

 protected:
  void execute_impl(const uint8_t* const* available_frags, uint8_t* const* out,
                    size_t frag_len) const override {
    // Pointer tables are per thread and reused across calls: thread-safe,
    // and allocation-free once warm (sizes are fixed per plan).
    thread_local std::vector<const uint8_t*> in_frags;
    thread_local std::vector<uint8_t*> out_frags;
    thread_local std::vector<const uint8_t*> in_strips;
    thread_local std::vector<uint8_t*> out_strips;

    const size_t strip_len = frag_len / w_;
    if (data_) {
      in_frags.resize(data_->in_pos.size());
      for (size_t i = 0; i < in_frags.size(); ++i)
        in_frags[i] = available_frags[data_->in_pos[i]];
      out_frags.resize(data_->out_pos.size());
      for (size_t i = 0; i < out_frags.size(); ++i) out_frags[i] = out[data_->out_pos[i]];
      strips_into(in_strips, in_frags.data(), in_frags.size(), w_, frag_len);
      strips_into(out_strips, out_frags.data(), out_frags.size(), w_, frag_len);
      data_->program->exec.run(in_strips.data(), out_strips.data(), strip_len);
    }
    if (parity_) {
      in_frags.resize(parity_->data_src.size());
      for (size_t d = 0; d < in_frags.size(); ++d) {
        const RepairLayout::Source& src = parity_->data_src[d];
        in_frags[d] = src.from_out ? out[src.pos] : available_frags[src.pos];
      }
      out_frags.resize(parity_->out_pos.size());
      for (size_t i = 0; i < out_frags.size(); ++i) out_frags[i] = out[parity_->out_pos[i]];
      strips_into(in_strips, in_frags.data(), in_frags.size(), w_, frag_len);
      strips_into(out_strips, out_frags.data(), out_frags.size(), w_, frag_len);
      parity_->program->exec.run(in_strips.data(), out_strips.data(), strip_len);
    }
  }

  /// The true repair read set, from each program's compile-time read
  /// summary (CompiledProgram::const_reads). Data step constants index the
  /// strips of its input subset; parity step constants index the k·w data
  /// strips, where from_out sources are the plan's own outputs (already
  /// local to the repairing caller) and survivor sources are real reads.
  PlanReadSet compute_read_set() const override {
    // Collect (survivor fragment id, strip) pairs as flat codes so one
    // sort/unique dedupes strips read by both steps.
    std::vector<uint64_t> codes;
    if (data_) {
      for (uint32_t c : data_->program->const_reads)
        if (c / w_ < data_->in_pos.size())
          codes.push_back(static_cast<uint64_t>(available()[data_->in_pos[c / w_]]) * w_ +
                          c % w_);
    }
    if (parity_) {
      for (uint32_t c : parity_->program->const_reads) {
        if (c / w_ >= parity_->data_src.size()) continue;
        const RepairLayout::Source& src = parity_->data_src[c / w_];
        if (src.from_out) continue;  // rebuilt by this plan — no survivor read
        codes.push_back(static_cast<uint64_t>(available()[src.pos]) * w_ + c % w_);
      }
    }
    std::sort(codes.begin(), codes.end());
    codes.erase(std::unique(codes.begin(), codes.end()), codes.end());
    PlanReadSet rs;
    rs.strips = codes.size();
    for (uint64_t code : codes) {
      const uint32_t frag = static_cast<uint32_t>(code / w_);
      if (rs.fragments.empty() || rs.fragments.back() != frag) {
        rs.fragments.push_back(frag);
        rs.fragment_strips.push_back(0);
      }
      ++rs.fragment_strips.back();
    }
    return rs;
  }

  PlanStats compute_stats() const override {
    PlanStats s;
    for (const CompiledProgram* prog :
         {data_ ? data_->program.get() : nullptr, parity_ ? parity_->program.get() : nullptr}) {
      if (!prog) continue;
      const auto m =
          slp::measure(prog->pipeline.final_program(), prog->pipeline.final_form());
      s.xor_ops += m.xor_ops;
      s.instructions += m.instructions;
      s.mem_accesses += m.mem_accesses;
      s.nvar = std::max(s.nvar, m.nvar);
      s.ccap = std::max(s.ccap, m.ccap);
      ++s.steps;
    }
    return s;
  }

 private:
  size_t w_;
  std::optional<DataStep> data_;
  std::optional<ParityStep> parity_;
};

}  // namespace

BitmatrixCodecCore::BitmatrixCodecCore(size_t data_blocks, size_t parity_blocks,
                                       size_t strips_per_block,
                                       const bitmatrix::BitMatrix& parity, CodecOptions opt,
                                       std::string name, uint64_t strategy_salt)
    : k_(data_blocks),
      m_(parity_blocks),
      w_(strips_per_block),
      opt_(std::move(opt)),
      name_(std::move(name)) {
  // Pin the ISA the executors will actually run (host degrade and the
  // XOREC_FORCE_ISA clamp applied): keyed on the requested name, a codec
  // built under one override could be handed programs bound to another ISA.
  opt_.exec.isa = kernel::kernel_table(opt_.exec.isa).isa;
  config_fp_ = PlanCache::fingerprint_config(opt_.pipeline, opt_.exec) ^ strategy_salt;
  // A cached plan reports the name of the codec that built it, so codecs
  // that share programs but not a name must not share plans.
  plan_config_fp_ = config_fp_ ^ std::hash<std::string>{}(name_);
  std::tie(matrix_fp_, matrix_fp2_) = PlanCache::fingerprint_matrix(parity, k_, m_, w_);
  // Private caches are single-shard so cache=N keeps exact LRU capacity
  // semantics; the shared service spreads over PlanCache::kDefaultShards.
  cache_ = opt_.plan_cache    ? opt_.plan_cache
           : opt_.shared_cache ? PlanCache::process_shared()
                               : std::make_shared<PlanCache>(opt_.decode_cache_capacity, 1);
  // The encoder is a cached artifact too: building a second codec instance
  // of the same identity reuses the compiled encoding SLP.
  enc_ = cached({}, [&] { return compile(parity, "enc"); });
}

std::shared_ptr<CompiledProgram> BitmatrixCodecCore::compile(const bitmatrix::BitMatrix& m,
                                                             const std::string& tag) const {
  return std::make_shared<CompiledProgram>(
      slp::optimize(m, opt_.pipeline, name_ + "-" + tag), opt_.exec);
}

std::shared_ptr<CompiledProgram> BitmatrixCodecCore::cached(
    const std::vector<uint32_t>& key,
    const std::function<std::shared_ptr<CompiledProgram>()>& build) const {
  return cache_->get_or_build(PlanKey{matrix_fp_, matrix_fp2_, config_fp_, key}, build);
}

std::vector<uint32_t> BitmatrixCodecCore::decode_key(const std::vector<uint32_t>& erased,
                                                     const std::vector<uint32_t>& inputs) {
  std::vector<uint32_t> key = erased;
  key.push_back(kPatternSep);
  key.insert(key.end(), inputs.begin(), inputs.end());
  return key;
}

std::vector<uint32_t> BitmatrixCodecCore::parity_key(const std::vector<uint32_t>& parity_ids) {
  std::vector<uint32_t> key = parity_ids;
  key.push_back(kPatternSep);
  key.push_back(kPatternSep);
  return key;
}

bool BitmatrixCodecCore::pattern_ids(const std::vector<uint32_t>& pattern,
                                     size_t total_fragments,
                                     std::vector<uint32_t>& available,
                                     std::vector<uint32_t>& erased) {
  available.clear();
  erased.clear();
  const auto sep = std::find(pattern.begin(), pattern.end(), kPatternSep);
  if (sep == pattern.end()) return false;  // encoder key or foreign format
  erased.assign(pattern.begin(), sep);
  if (erased.empty()) return false;
  const auto rest = sep + 1;
  if (rest != pattern.end() && *rest == kPatternSep) {
    // Parity subset: everything not erased is a survivor.
    if (rest + 1 != pattern.end()) return false;
    for (uint32_t id = 0; id < total_fragments; ++id)
      if (std::find(erased.begin(), erased.end(), id) == erased.end())
        available.push_back(id);
    return true;
  }
  available.assign(rest, pattern.end());
  return !available.empty();
}

void BitmatrixCodecCore::encode(const uint8_t* const* data, uint8_t* const* parity,
                                size_t frag_len) const {
  // Per-thread pointer tables, reused across calls: allocation-free once warm.
  thread_local std::vector<const uint8_t*> in;
  thread_local std::vector<uint8_t*> out;
  strips_into(in, data, k_, w_, frag_len);
  strips_into(out, parity, m_, w_, frag_len);
  enc_->exec.run(in.data(), out.data(), frag_len / w_);
}

std::shared_ptr<const ReconstructPlan> BitmatrixCodecCore::make_plan(
    const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased,
    const DataPlanFn& plan_data, const ParityPlanFn& plan_parity) const {
  // The plan key in the caller's id order, built in a per-thread buffer so
  // a warm lookup allocates nothing; only a miss copies it into the cache.
  thread_local PlanKey key;
  key.matrix_fp = matrix_fp_;
  key.matrix_fp2 = matrix_fp2_;
  key.config_fp = plan_config_fp_;
  key.pattern.clear();
  key.pattern.push_back(PlanKey::kPlanTag);
  key.pattern.insert(key.pattern.end(), available.begin(), available.end());
  key.pattern.push_back(kPatternSep);
  key.pattern.insert(key.pattern.end(), erased.begin(), erased.end());
  if (auto plan = cache_->find_plan(key)) return plan;

  const RepairLayout layout(k_, k_ + m_, available, erased);

  // Canonical (sorted) erased-data order for the cache key and output map.
  std::vector<uint32_t> erased_sorted;
  std::vector<size_t> out_pos_sorted;
  std::optional<BitmatrixReconstructPlan::DataStep> data_step;
  std::vector<PlanKey> uses;  // the programs' keys, refreshed on every plan hit
  if (!layout.erased_data.empty()) {
    std::vector<uint32_t> avail_sorted = available;
    std::sort(avail_sorted.begin(), avail_sorted.end());

    std::vector<size_t> perm(layout.erased_data.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
    std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
      return layout.erased_data[a] < layout.erased_data[b];
    });
    for (size_t i : perm) {
      erased_sorted.push_back(layout.erased_data[i]);
      out_pos_sorted.push_back(layout.out_pos_data[i]);
    }

    const RecoveryPlan rp = plan_data(avail_sorted, erased_sorted);
    uses.push_back({matrix_fp_, matrix_fp2_, config_fp_, decode_key(erased_sorted, rp.inputs)});
    BitmatrixReconstructPlan::DataStep step;
    step.program = rp.program;
    step.in_pos.reserve(rp.inputs.size());
    for (uint32_t id : rp.inputs) {
      if (layout.pos_of_id[id] == RepairLayout::kAbsent)
        throw std::logic_error(name_ + ": recovery plan selected unavailable fragment " +
                               std::to_string(id));
      step.in_pos.push_back(layout.pos_of_id[id]);
    }
    step.out_pos = out_pos_sorted;
    data_step = std::move(step);
  }

  std::optional<BitmatrixReconstructPlan::ParityStep> parity_step;
  if (!layout.erased_parity.empty()) {
    BitmatrixReconstructPlan::ParityStep step;
    step.program = plan_parity(layout.erased_parity);
    uses.push_back({matrix_fp_, matrix_fp2_, config_fp_, parity_key(layout.erased_parity)});
    // Which data blocks the compiled program actually reads, from its
    // compile-time read summary. Locality codes (LRC) rebuild a local parity
    // from its group alone — unread blocks need no source buffer (they get a
    // valid but never-dereferenced placeholder).
    std::vector<bool> touched(k_, false);
    for (uint32_t c : step.program->const_reads)
      if (c < k_ * w_) touched[c / w_] = true;
    step.data_src.reserve(k_);
    for (size_t d = 0; d < k_; ++d)
      step.data_src.push_back(touched[d]
                                  ? layout.data_source(d, erased_sorted, out_pos_sorted, name_)
                                  : RepairLayout::Source{/*from_out=*/true, /*pos=*/0});
    step.out_pos = layout.out_pos_parity;
    parity_step = std::move(step);
  }

  return cache_->insert_plan(
      key, std::make_shared<BitmatrixReconstructPlan>(name_, w_, available, erased,
                                                      std::move(data_step),
                                                      std::move(parity_step)),
      std::move(uses));
}

}  // namespace xorec::ec
