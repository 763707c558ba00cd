#include "ec/rs_codec.hpp"

#include <algorithm>
#include <stdexcept>

#include "bitmatrix/bitmatrix.hpp"

namespace xorec::ec {

namespace {

gf::Matrix checked_code_matrix(MatrixFamily family, size_t n, size_t p) {
  if (n == 0 || p == 0 || n + p > 255)
    throw std::invalid_argument("RsCodec: need n >= 1, p >= 1, n + p <= 255");
  return make_code_matrix(family, n, p);
}

/// Encoding SLP input: the parity rows only (data fragments are stored
/// verbatim), expanded to the w = 8 bitmatrix view.
bitmatrix::BitMatrix parity_bitmatrix(const gf::Matrix& code, size_t n, size_t p) {
  std::vector<size_t> parity_rows(p);
  for (size_t i = 0; i < p; ++i) parity_rows[i] = n + i;
  return bitmatrix::expand(code.select_rows(parity_rows));
}

std::string rs_name(const CodecOptions& opt, size_t n, size_t p) {
  const char* fam = "rs";
  switch (opt.family) {
    case MatrixFamily::IsalVandermonde: fam = "rs"; break;
    case MatrixFamily::ReducedVandermonde: fam = "vand"; break;
    case MatrixFamily::Cauchy: fam = "cauchy"; break;
  }
  std::string name =
      std::string(fam) + "(" + std::to_string(n) + "," + std::to_string(p) + ")";
  // Name the pipeline configuration too, or the name would rebuild a
  // differently-optimized codec. Non-default shapes with no spec token get
  // an invalid suffix on purpose: failing loudly in make_codec beats
  // silently rebuilding the wrong pipeline. Inverse of the passes=/sched=
  // presets in api/registry.cpp apply_option — keep the two in sync.
  const auto& pl = opt.pipeline;
  const bool xrp = pl.compress == slp::CompressKind::XorRePair;
  if (xrp && pl.fuse && pl.schedule == slp::ScheduleKind::Dfs)
    ;  // the default full pipeline
  else if (pl.compress == slp::CompressKind::None && !pl.fuse &&
           pl.schedule == slp::ScheduleKind::None)
    name += "@passes=base";
  else if (xrp && !pl.fuse && pl.schedule == slp::ScheduleKind::None)
    name += "@passes=compress";
  else if (xrp && pl.fuse && pl.schedule == slp::ScheduleKind::None)
    name += "@passes=fuse";
  else if (xrp && pl.fuse && pl.schedule == slp::ScheduleKind::Greedy) {
    name += "@sched=greedy";
    if (pl.greedy_capacity != slp::PipelineOptions{}.greedy_capacity)
      name += ",cap=" + std::to_string(pl.greedy_capacity);
  } else
    name += "@passes=custom";
  return name;
}

}  // namespace

gf::Matrix make_code_matrix(MatrixFamily family, size_t n, size_t p) {
  switch (family) {
    case MatrixFamily::IsalVandermonde: return gf::rs_isal_matrix(n, p);
    case MatrixFamily::ReducedVandermonde: return gf::rs_systematic_matrix(n, p);
    case MatrixFamily::Cauchy: return gf::rs_cauchy_matrix(n, p);
  }
  throw std::invalid_argument("make_code_matrix: unknown family");
}

RsCodec::RsCodec(size_t n, size_t p, CodecOptions opt)
    : code_(checked_code_matrix(opt.family, n, p)),
      core_(n, p, kStripsPerFragment, parity_bitmatrix(code_, n, p), opt,
            rs_name(opt, n, p)) {}

void RsCodec::encode_impl(const uint8_t* const* data, uint8_t* const* parity,
                          size_t frag_len) const {
  core_.encode(data, parity, frag_len);
}

std::vector<uint32_t> RsCodec::choose_survivors(const std::vector<uint32_t>& available) const {
  const size_t n = data_fragments();
  std::vector<uint32_t> sorted = available;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint32_t> survivors;
  survivors.reserve(n);
  for (uint32_t id : sorted)
    if (id < n && survivors.size() < n) survivors.push_back(id);
  for (uint32_t id : sorted)
    if (id >= n && survivors.size() < n) survivors.push_back(id);
  if (survivors.size() < n)
    throw std::invalid_argument("RsCodec: not enough surviving fragments to decode");
  std::sort(survivors.begin(), survivors.end());
  return survivors;
}

std::shared_ptr<CompiledProgram> RsCodec::decoder_for(
    const std::vector<uint32_t>& survivors, const std::vector<uint32_t>& erased_data) const {
  return core_.cached(
      BitmatrixCodecCore::decode_key(erased_data, survivors),
      [&]() -> std::shared_ptr<CompiledProgram> {
        std::vector<size_t> rows(survivors.begin(), survivors.end());
        auto minv = gf::decode_matrix(code_, rows);
        if (!minv) throw std::logic_error("RsCodec: singular decode submatrix (non-MDS?)");
        std::vector<size_t> recover_rows(erased_data.begin(), erased_data.end());
        return core_.compile(bitmatrix::expand(minv->select_rows(recover_rows)), "dec");
      });
}

std::shared_ptr<CompiledProgram> RsCodec::parity_subset_program(
    const std::vector<uint32_t>& parity_ids) const {
  return core_.cached(BitmatrixCodecCore::parity_key(parity_ids),
                      [&]() -> std::shared_ptr<CompiledProgram> {
                        std::vector<size_t> rows(parity_ids.begin(), parity_ids.end());
                        return core_.compile(bitmatrix::expand(code_.select_rows(rows)),
                                             "parity-subset");
                      });
}

std::shared_ptr<const CompiledProgram> RsCodec::decode_program(
    const std::vector<uint32_t>& erased_data) const {
  std::vector<uint32_t> available;
  for (uint32_t id = 0; id < total_fragments(); ++id)
    if (std::find(erased_data.begin(), erased_data.end(), id) == erased_data.end())
      available.push_back(id);
  std::vector<uint32_t> erased_sorted = erased_data;
  std::sort(erased_sorted.begin(), erased_sorted.end());
  return decoder_for(choose_survivors(available), erased_sorted);
}

std::shared_ptr<const ReconstructPlan> RsCodec::plan_reconstruct_impl(
    const std::vector<uint32_t>& available, const std::vector<uint32_t>& erased) const {
  return core_.make_plan(
      available, erased,
      [&](const std::vector<uint32_t>& avail_sorted,
          const std::vector<uint32_t>& erased_data) -> BitmatrixCodecCore::RecoveryPlan {
        const std::vector<uint32_t> survivors = choose_survivors(avail_sorted);
        return {decoder_for(survivors, erased_data), survivors};
      },
      [&](const std::vector<uint32_t>& erased_parity) {
        return parity_subset_program(erased_parity);
      });
}

void RsCodec::reconstruct_impl(const std::vector<uint32_t>& available,
                               const uint8_t* const* available_frags,
                               const std::vector<uint32_t>& erased, uint8_t* const* out,
                               size_t frag_len) const {
  plan_reconstruct_impl(available, erased)->execute(available_frags, out, frag_len);
}

}  // namespace xorec::ec
