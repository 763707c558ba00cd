// E1 / E8 / E9 — §2's performance strip and §7.5's stage tables.
//
// Static part (printed before timing): the P_enc and P_dec stage tables
//   P_enc  paper: #⊕ 755/385/146, #M 2265/1155/677, NVar 32/385/146/88,
//                 CCap 92/447/224/167
//   P_dec  paper ({2,4,5,6} erased): #⊕ 1368/511/206, #M 4104/1533/923,
//                 NVar 32/511/206/125, CCap 89/585/283/205
// Dynamic part: encode/decode throughput for Base -> Comp -> Fuse -> Sched
// (paper intel B=1K: 4.03 / 4.36 / 7.50 / 8.92 GB/s encode,
//                    2.35 / 3.32 / 5.51 / 6.67 GB/s decode).
#include "bench_common.hpp"
#include "bench_json.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "slp/metrics.hpp"

using namespace xorec;
using namespace xorec::bench;

namespace {

/// The static cost tables are deterministic, so they double as the
/// machine-readable artifact (BENCH_stage_summary.json).
std::vector<BenchRecord> g_records;

void print_stage_table(const char* title, const char* key, const slp::PipelineResult& r) {
  const auto base = slp::measure(r.base, slp::ExecForm::Binary);
  const auto co = slp::measure(*r.compressed, slp::ExecForm::Binary);
  const auto fu = slp::measure(*r.fused, slp::ExecForm::Fused);
  const auto sc = slp::measure(*r.scheduled, slp::ExecForm::Fused);
  std::printf("%s stage table (Base / Co / Fu(Co) / Dfs(Fu(Co))):\n", title);
  std::printf("  #xor  %5zu %5zu %5zu %5zu\n", base.xor_ops, co.xor_ops, fu.instructions,
              sc.instructions);
  std::printf("  #M    %5zu %5zu %5zu %5zu\n", base.mem_accesses, co.mem_accesses,
              fu.mem_accesses, sc.mem_accesses);
  std::printf("  NVar  %5zu %5zu %5zu %5zu\n", base.nvar, co.nvar, fu.nvar, sc.nvar);
  std::printf("  CCap  %5zu %5zu %5zu %5zu\n", base.ccap, co.ccap, fu.ccap, sc.ccap);
  const auto add = [&](const char* stage, size_t xors, size_t mem, size_t nvar,
                       size_t ccap) {
    const std::string cfg = std::string(key) + "/" + stage;
    g_records.push_back({"stage_table", cfg, "xor_ops", static_cast<double>(xors)});
    g_records.push_back({"stage_table", cfg, "mem_accesses", static_cast<double>(mem)});
    g_records.push_back({"stage_table", cfg, "nvar", static_cast<double>(nvar)});
    g_records.push_back({"stage_table", cfg, "ccap", static_cast<double>(ccap)});
  };
  add("base", base.xor_ops, base.mem_accesses, base.nvar, base.ccap);
  add("compressed", co.xor_ops, co.mem_accesses, co.nvar, co.ccap);
  add("fused", fu.instructions, fu.mem_accesses, fu.nvar, fu.ccap);
  add("scheduled", sc.instructions, sc.mem_accesses, sc.nvar, sc.ccap);
}

void print_cache_column(const char* what, const Codec& codec) {
  const CacheStats s = codec.cache_stats();
  std::printf("  cache[%s]%s: %zu entries, %zu hits, %zu misses, %zu evictions, "
              "%.2f ms compiling\n",
              what, s.shared ? " (shared)" : "", s.entries, s.hits, s.misses, s.evictions,
              s.compile_ns / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);

  const size_t n = 10, p = 4;
  const size_t block = 1024;  // the paper's chosen intel block size

  // Every stage codec is leased from ONE CodecService by spec string — the
  // serving shape: pooled instances, canonical-spec dedup, shared compiled
  // programs. (Before the service existed this bench hand-assembled
  // ec::RsCodec per stage.)
  CodecService service({.shards = 2, .workers_per_shard = 1});
  const std::string dims = "rs(" + std::to_string(n) + "," + std::to_string(p) + ")";
  const std::string opts = "@block=" + std::to_string(block) + ",isa=avx2";
  const auto lease = [&](const std::string& extra) {
    return service.acquire(dims + opts + extra);
  };

  // --- static tables -------------------------------------------------------
  {
    const ServiceHandle full = lease("");
    print_stage_table("P_enc (paper: 755/385/146; 2265/1155/677; 32/385/146/88; "
                      "92/447/224/167)",
                      "P_enc", *full.codec().encode_pipeline());
    // The generic plan API: every codec (not just RsCodec) exposes the
    // decode pipeline + cost measures of a solved erasure pattern this way.
    const std::vector<uint32_t> erased{2, 4, 5, 6};
    std::vector<uint32_t> available;
    for (uint32_t id = 0; id < n + p; ++id)
      if (std::find(erased.begin(), erased.end(), id) == erased.end())
        available.push_back(id);
    const auto plan = full.plan_reconstruct(available, erased);
    print_stage_table("P_dec (paper: 1368/511/206; 4104/1533/923; 32/511/206/125; "
                      "89/585/283/205)",
                      "P_dec", *plan->decode_pipeline());
    std::printf("P_dec plan totals: #xor=%zu #M=%zu (xor_count/schedule_stats)\n",
                plan->xor_count(), plan->schedule_stats().mem_accesses);
    print_cache_column("rs(10,4) full", full.codec());
  }

  // --- throughput per stage ------------------------------------------------
  auto cluster = std::make_shared<RsCluster>(n, p, frag_len_for(n));
  struct Stage {
    const char* name;
    const char* extra;  // appended to the shared dims@block,isa spec
  };
  const Stage stages[] = {
      {"base", ",passes=base"},
      {"compressed", ",passes=compress"},
      {"fused", ",passes=fuse"},
      {"scheduled", ""},
      // The execution-backend axis on the fully scheduled program:
      // "scheduled" runs the default lowered straight-line kernels; this row
      // pins the interpreting executor on the SAME compiled plan.
      {"interp", ",exec=interp"},
  };
  for (const Stage& s : stages) {
    auto codec = lease(s.extra).codec_ptr();
    register_encode(std::string("stage_encode/") + s.name, codec, cluster);
    register_decode(std::string("stage_decode/") + s.name, codec, cluster, {2, 4, 5, 6});
  }

  // The fully scheduled stage through batch sessions over the POOLED codec
  // (8 stripes/flush): t1 isolates session overhead, t4 shows stripe-level
  // scaling.
  {
    auto codec = lease("").codec_ptr();
    auto enc_set = make_cluster_set(*codec, 8);
    auto dec_set = make_decode_set(*codec, 8, {2, 4, 5, 6});
    for (size_t t : {1u, 4u}) {
      register_encode_batch("stage_encode_batch/scheduled/t" + std::to_string(t), codec,
                            enc_set, t);
      register_decode_batch("stage_decode_batch/scheduled/t" + std::to_string(t), codec,
                            dec_set, t);
    }
  }

  benchmark::RunSpecifiedBenchmarks();

  // The service's aggregated view: the "scheduled" pool was leased three
  // times (tables + throughput + batch) but built ONCE.
  const ServiceStats stats = service.stats();
  for (const PoolStats& pool : stats.pools)
    std::printf("pool \"%s\": %zu clients, %zu plans, %zu cached programs, exec=%s/%s\n",
                pool.spec.c_str(), pool.clients, pool.plans, pool.cached_programs,
                pool.exec_backend.c_str(), pool.exec_isa.c_str());

  const char* env = std::getenv("XOREC_STAGE_JSON");
  const std::string path = env && *env ? env : "BENCH_stage_summary.json";
  {
    std::ofstream out(path);
    write_bench_json(out, "bench_stage_summary",
                     {{"code", dims}, {"block", std::to_string(block)},
                      {"erased", "2,4,5,6"}},
                     g_records);
  }
  std::printf("wrote %s (%zu records)\n", path.c_str(), g_records.size());
  benchmark::Shutdown();
  return 0;
}
