// E10 — Figure 1: #⊕, #M, NVar, CCap of the *optimized* coding SLPs
// (Dfs(Fu(Co(P)))) for RS(8..10, 2..4), encode and decode sides.
//
// Decode uses the paper's P_dec convention: data fragments {2,4,5,6} erased,
// truncated to the codec's parity count (p=3 -> {2,4,5}, p=2 -> {2,4}).
//
// Paper values (Enc #⊕/#M/NVar/CCap | Dec #⊕/#M/NVar/CCap):
//   RS(8,4):  121/543/79/143  | 170/747/102/166
//   RS(9,4):  132/611/83/155  | 182/829/117/189
//   RS(10,4): 146/677/88/167  | 206/923/125/205
//   RS(8,3):   75/364/45/109  | 129/561/77/141
//   RS(9,3):   87/417/58/128  | 144/641/91/163
//   RS(10,3):  96/471/69/148  | 145/661/85/165
//   RS(8,2):   26/180/17/80   |  65/286/38/102
//   RS(9,2):   29/202/19/90   |  73/322/42/113
//   RS(10,2):  30/222/19/98   |  77/352/50/130
#include <cstdio>
#include <memory>
#include <vector>

#include "api/xorec.hpp"
#include "ec/rs_codec.hpp"
#include "slp/metrics.hpp"

using namespace xorec;

namespace {

/// The same measures for the registry's non-RS families, through the
/// generic plan interface: encode SLP from encode_pipeline(), decode SLP
/// from the single-block repair plan (data block 0 lost, everything else
/// available) — the repair shape the locality/piggyback families optimize.
void print_family_stats(const char* spec) {
  const auto codec = make_codec(spec);
  const auto& enc = *codec->encode_pipeline();
  const auto em = slp::measure(enc.final_program(), enc.final_form());

  std::vector<uint32_t> available;
  for (uint32_t id = 1; id < codec->total_fragments(); ++id) available.push_back(id);
  const auto plan = codec->plan_reconstruct(available, {0});
  const auto& dec = *plan->decode_pipeline();
  const auto dm = slp::measure(dec.final_program(), dec.final_form());

  std::printf("%-18s | %5zu %5zu %5zu %5zu | %5zu %5zu %5zu %5zu\n", spec,
              em.instructions, em.mem_accesses, em.nvar, em.ccap, dm.instructions,
              dm.mem_accesses, dm.nvar, dm.ccap);
}

}  // namespace

int main() {
  std::printf("Figure 1: optimized coding SLP measures (Dfs(Fu(XorRePair(P))))\n");
  std::printf("%-9s | %5s %5s %5s %5s | %5s %5s %5s %5s\n", "codec", "E#x", "E#M", "ENV",
              "ECC", "D#x", "D#M", "DNV", "DCC");
  for (size_t p : {4, 3, 2}) {
    for (size_t d : {8, 9, 10}) {
      ec::CodecOptions opt;
      opt.exec.block_size = 1024;
      ec::RsCodec codec(d, p, opt);
      const auto& enc = *codec.encode_pipeline();
      const auto em = slp::measure(*enc.scheduled, slp::ExecForm::Fused);

      std::vector<uint32_t> erased{2, 4, 5, 6};
      erased.resize(p);
      const auto dec = codec.decode_program(erased);
      const auto dm = slp::measure(*dec->pipeline.scheduled, slp::ExecForm::Fused);

      std::printf("RS(%2zu,%zu)  | %5zu %5zu %5zu %5zu | %5zu %5zu %5zu %5zu\n", d, p,
                  em.instructions, em.mem_accesses, em.nvar, em.ccap, dm.instructions,
                  dm.mem_accesses, dm.nvar, dm.ccap);
    }
  }
  std::printf("\nregistry families beyond RS (single-block repair as the decode "
              "side):\n");
  std::printf("%-18s | %5s %5s %5s %5s | %5s %5s %5s %5s\n", "codec", "E#x", "E#M",
              "ENV", "ECC", "D#x", "D#M", "DNV", "DCC");
  for (const char* spec : {"evenodd(8)", "rdp(8)", "star(8)", "rs16(8,2)",
                           "lrc(8,2,2)", "piggyback(8,3,2)", "sparse(8,3,45,1)"})
    print_family_stats(spec);

  std::printf("\n(#x follows the paper's fused-instruction count.)\n");
  return 0;
}
