#include "api/registry.hpp"

#include <algorithm>
#include <cctype>
#include <map>
#include <mutex>
#include <stdexcept>

#include "altcodes/evenodd.hpp"
#include "altcodes/lrc.hpp"
#include "altcodes/piggyback.hpp"
#include "altcodes/rdp.hpp"
#include "altcodes/rs16.hpp"
#include "altcodes/sparse.hpp"
#include "altcodes/star.hpp"
#include "altcodes/xor_code.hpp"
#include "baseline/isal_style.hpp"
#include "ec/rs_codec.hpp"

namespace xorec {

namespace {

[[noreturn]] void fail(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("make_codec: " + why + " in spec \"" + spec + "\"");
}

size_t parse_uint(const std::string& spec, const std::string& tok, const std::string& what) {
  if (tok.empty()) fail(spec, "empty " + what);
  size_t v = 0;
  for (char c : tok) {
    if (!std::isdigit(static_cast<unsigned char>(c)))
      fail(spec, what + " \"" + tok + "\" is not a non-negative integer");
    v = v * 10 + static_cast<size_t>(c - '0');
    if (v > (1u << 30)) fail(spec, what + " \"" + tok + "\" is out of range");
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

void apply_option(CodecSpec& cs, const std::string& key, const std::string& value) {
  auto& opt = cs.options;
  const auto uint_value = [&] { return parse_uint(cs.spec, value, "option " + key); };
  if (key == "block") {
    const size_t b = uint_value();
    if (b == 0) fail(cs.spec, "block size must be positive");
    opt.exec.block_size = b;
  } else if (key == "warmup") {
    // Plan-profile replay for CodecService::acquire; make_codec refuses
    // specs carrying it (below) so the key is never silently ignored.
    if (value.empty()) fail(cs.spec, "warmup needs a profile path");
    cs.warmup_path = value;
  } else if (key == "cache") {
    // Plan-cache placement: the process-shared service (default), a private
    // per-codec cache, or a private cache with an explicit LRU capacity.
    if (value == "shared") {
      opt.shared_cache = true;
    } else if (value == "private") {
      opt.shared_cache = false;
    } else {
      opt.shared_cache = false;
      opt.decode_cache_capacity = uint_value();
    }
  } else if (key == "cap") {
    const size_t c = uint_value();
    if (c < 2) fail(cs.spec, "cap must be at least 2 blocks, got \"" + value + "\"");
    opt.pipeline.greedy_capacity = c;
  } else if (key == "isa") {
    if (auto isa = kernel::parse_isa(value.c_str())) opt.exec.isa = *isa;
    else fail(cs.spec, "isa must be scalar|word64|avx2|avx512|neon|auto, got \"" + value + "\"");
  } else if (key == "exec") {
    if (auto b = runtime::parse_exec_backend(value.c_str())) opt.exec.backend = *b;
    else fail(cs.spec, "exec must be interp|lowered, got \"" + value + "\"");
  } else if (key == "passes") {
    // Preset -> pipeline mapping; rs_codec.cpp rs_name() is its inverse —
    // keep the two in sync.
    if (value == "base") {
      opt.pipeline.compress = slp::CompressKind::None;
      opt.pipeline.fuse = false;
      opt.pipeline.schedule = slp::ScheduleKind::None;
    } else if (value == "compress") {
      opt.pipeline.compress = slp::CompressKind::XorRePair;
      opt.pipeline.fuse = false;
      opt.pipeline.schedule = slp::ScheduleKind::None;
    } else if (value == "fuse") {
      opt.pipeline.compress = slp::CompressKind::XorRePair;
      opt.pipeline.fuse = true;
      opt.pipeline.schedule = slp::ScheduleKind::None;
    } else if (value == "full") {
      opt.pipeline.compress = slp::CompressKind::XorRePair;
      opt.pipeline.fuse = true;
      opt.pipeline.schedule = slp::ScheduleKind::Dfs;
    } else {
      fail(cs.spec, "passes must be base|compress|fuse|full, got \"" + value + "\"");
    }
  } else if (key == "sched") {
    if (value == "none") opt.pipeline.schedule = slp::ScheduleKind::None;
    else if (value == "dfs") opt.pipeline.schedule = slp::ScheduleKind::Dfs;
    else if (value == "greedy") opt.pipeline.schedule = slp::ScheduleKind::Greedy;
    else fail(cs.spec, "sched must be none|dfs|greedy, got \"" + value + "\"");
  } else if (key == "matrix") {
    if (value == "isal") opt.family = ec::MatrixFamily::IsalVandermonde;
    else if (value == "vand") opt.family = ec::MatrixFamily::ReducedVandermonde;
    else if (value == "cauchy") opt.family = ec::MatrixFamily::Cauchy;
    else fail(cs.spec, "matrix must be isal|vand|cauchy, got \"" + value + "\"");
  } else {
    std::string valid;
    for (const std::string& k : spec_option_keys()) valid += (valid.empty() ? "" : ", ") + k;
    fail(cs.spec, "unknown option \"" + key + "\" (valid: " + valid + ")");
  }
}

// ---- builders --------------------------------------------------------------

void need_args(const CodecSpec& cs, size_t min, size_t max) {
  if (cs.args.size() < min || cs.args.size() > max)
    fail(cs.spec, "family \"" + cs.family + "\" takes " + std::to_string(min) +
                      (min == max ? "" : ".." + std::to_string(max)) + " argument(s), got " +
                      std::to_string(cs.args.size()));
}

constexpr size_t kDefaultParity = 4;

bool has_option(const CodecSpec& cs, const std::string& key) {
  return std::find(cs.option_keys.begin(), cs.option_keys.end(), key) !=
         cs.option_keys.end();
}

std::unique_ptr<Codec> build_rs(const CodecSpec& cs, ec::MatrixFamily family) {
  need_args(cs, 1, 2);
  ec::CodecOptions opt = cs.options;
  // The family name picks the matrix; an explicit matrix= override wins
  // (documented as the RS matrix family override).
  if (!has_option(cs, "matrix")) opt.family = family;
  return std::make_unique<ec::RsCodec>(cs.args[0], cs.arg(1, kDefaultParity), opt);
}

std::unique_ptr<Codec> build_naive_xor(const CodecSpec& cs) {
  need_args(cs, 1, 2);
  // naive_xor IS the disabled pipeline; a passes=/sched= request (or the
  // scheduler knob cap=) contradicts the family rather than configuring it.
  for (const char* key : {"passes", "sched", "cap"})
    if (has_option(cs, key))
      fail(cs.spec, std::string("family \"naive_xor\" is the disabled pipeline; \"") +
                        key + "\" does not apply (use the rs family to pick passes)");
  ec::CodecOptions opt = cs.options;  // keep block/isa/threads overrides
  opt.pipeline.compress = slp::CompressKind::None;
  opt.pipeline.fuse = false;
  opt.pipeline.schedule = slp::ScheduleKind::None;
  return std::make_unique<ec::RsCodec>(cs.args[0], cs.arg(1, kDefaultParity), opt);
}

std::unique_ptr<Codec> build_isal(const CodecSpec& cs) {
  need_args(cs, 1, 2);
  // The GF-table baseline has no SLP pipeline or blocked executor: every
  // execution option except matrix= would be silently meaningless.
  for (const std::string& key : cs.option_keys)
    if (key != "matrix")
      fail(cs.spec, "family \"isal\" has no SLP pipeline/executor; option \"" + key +
                        "\" does not apply (only matrix= does)");
  return std::make_unique<baseline::IsalStyleCodec>(cs.args[0], cs.arg(1, kDefaultParity),
                                                    cs.options.family);
}

std::unique_ptr<Codec> build_rs16(const CodecSpec& cs) {
  need_args(cs, 1, 2);
  const size_t n = cs.args[0], p = cs.arg(1, kDefaultParity);
  // GF(2^16) Cauchy supports n + p <= 65535, but SLP compile time and the
  // bitmatrix size grow fast; keep the registry to sane storage geometries
  // (construct XorCodec(rs16_spec(...)) directly for bigger experiments).
  if (n + p > 255)
    fail(cs.spec, "rs16 via the registry is limited to n + p <= 255");
  if (has_option(cs, "matrix"))
    fail(cs.spec, "rs16 is Cauchy by construction; matrix= does not apply");
  return std::make_unique<altcodes::XorCodec>(altcodes::rs16_spec(n, p), cs.options);
}

std::unique_ptr<Codec> build_lrc(const CodecSpec& cs) {
  need_args(cs, 3, 3);
  if (has_option(cs, "matrix"))
    fail(cs.spec, "family \"lrc\" fixes its matrices (XOR locals + Cauchy globals); "
                  "matrix= does not apply");
  const size_t k = cs.args[0], l = cs.args[1], g = cs.args[2];
  if (k == 0 || l == 0 || l > k)
    fail(cs.spec, "lrc(k,l,g) needs 1 <= l <= k data blocks per group split");
  if (l + g == 0 || (g > 0 && k + g > 255))
    fail(cs.spec, "lrc(k,l,g) needs k + g <= 255 for the Cauchy globals");
  if (k > 128) fail(cs.spec, "lrc via the registry is limited to k <= 128 data blocks");
  return std::make_unique<altcodes::XorCodec>(altcodes::lrc_spec(k, l, g), cs.options);
}

constexpr size_t kDefaultSubstripes = 2;
constexpr size_t kDefaultSparseSeed = 1;

std::unique_ptr<Codec> build_piggyback(const CodecSpec& cs) {
  need_args(cs, 2, 3);
  if (has_option(cs, "matrix"))
    fail(cs.spec, "family \"piggyback\" fixes its base matrix (Cauchy per substripe); "
                  "matrix= does not apply");
  const size_t k = cs.args[0], m = cs.args[1], sub = cs.arg(2, kDefaultSubstripes);
  if (k > 128)
    fail(cs.spec, "piggyback via the registry is limited to k <= 128 data blocks");
  if (sub > 8)
    fail(cs.spec, "piggyback via the registry is limited to sub <= 8 substripes "
                  "(w = 8*sub strips scales SLP compile time fast)");
  try {
    return std::make_unique<altcodes::PiggybackCodec>(k, m, sub, cs.options);
  } catch (const std::invalid_argument& e) {
    fail(cs.spec, e.what());
  }
}

std::unique_ptr<Codec> build_sparse(const CodecSpec& cs) {
  need_args(cs, 3, 4);
  if (has_option(cs, "matrix"))
    fail(cs.spec, "family \"sparse\" draws its own random bitmatrix; matrix= does not "
                  "apply");
  const size_t k = cs.args[0], m = cs.args[1], d = cs.args[2];
  const size_t seed = cs.arg(3, kDefaultSparseSeed);
  try {
    return std::make_unique<altcodes::XorCodec>(altcodes::sparse_spec(k, m, d, seed),
                                                cs.options);
  } catch (const std::invalid_argument& e) {
    fail(cs.spec, e.what());
  }
}

/// Array-code layouts need a prime parameter; deployments ask for k data
/// disks. Pick the smallest legal prime and shorten (altcodes::shorten_spec).
std::unique_ptr<Codec> build_array(const CodecSpec& cs, size_t parities,
                                   altcodes::XorCodeSpec (*make)(size_t),
                                   size_t prime_for_k(size_t)) {
  need_args(cs, 1, 2);
  if (has_option(cs, "matrix"))
    fail(cs.spec, "family \"" + cs.family +
                      "\" is a fixed XOR construction; matrix= does not apply");
  const size_t k = cs.args[0];
  if (k == 0) fail(cs.spec, "need at least one data disk");
  // The layout prime scales the bitmatrix as ~(k^2)^2 bits; beyond real
  // storage-array widths that means minutes of SLP compile or OOM. Fail
  // fast instead (construct XorCodec(evenodd_spec(...)) directly to go big).
  if (k > 128)
    fail(cs.spec, "array codes via the registry are limited to k <= 128 data disks");
  if (cs.args.size() == 2 && cs.args[1] != parities)
    fail(cs.spec, "family \"" + cs.family + "\" has exactly " + std::to_string(parities) +
                      " parity disks, got " + std::to_string(cs.args[1]));
  size_t prime = prime_for_k(k);
  while (!altcodes::is_prime(prime)) ++prime;
  return std::make_unique<altcodes::XorCodec>(altcodes::shorten_spec(make(prime), k),
                                              cs.options);
}

struct Registry {
  std::mutex mu;
  std::map<std::string, CodecBuilder> families;
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;
    auto& f = reg->families;
    f["rs"] = [](const CodecSpec& cs) { return build_rs(cs, ec::MatrixFamily::IsalVandermonde); };
    f["vand"] = [](const CodecSpec& cs) {
      return build_rs(cs, ec::MatrixFamily::ReducedVandermonde);
    };
    f["cauchy"] = [](const CodecSpec& cs) { return build_rs(cs, ec::MatrixFamily::Cauchy); };
    f["naive_xor"] = build_naive_xor;
    f["isal"] = build_isal;
    f["rs16"] = build_rs16;
    f["lrc"] = build_lrc;
    f["piggyback"] = build_piggyback;
    f["sparse"] = build_sparse;
    f["evenodd"] = [](const CodecSpec& cs) {
      // EVENODD(p) has p data disks: smallest prime >= max(k, 3).
      return build_array(cs, 2, altcodes::evenodd_spec,
                         [](size_t k) { return std::max<size_t>(k, 3); });
    };
    f["rdp"] = [](const CodecSpec& cs) {
      // RDP(p) has p - 1 data disks: smallest prime >= max(k + 1, 3).
      return build_array(cs, 2, altcodes::rdp_spec,
                         [](size_t k) { return std::max<size_t>(k + 1, 3); });
    };
    f["star"] = [](const CodecSpec& cs) {
      // STAR(p) has p data disks: smallest prime >= max(k, 3).
      return build_array(cs, 3, altcodes::star_spec,
                         [](size_t k) { return std::max<size_t>(k, 3); });
    };
    return reg;
  }();
  return *r;
}

}  // namespace

CodecSpec parse_spec(const std::string& raw) {
  CodecSpec cs;
  for (char c : raw)
    if (!std::isspace(static_cast<unsigned char>(c))) cs.spec += c;
  const std::string& s = cs.spec;
  if (s.empty()) fail(raw, "empty spec");

  size_t i = 0;
  while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) || s[i] == '_')) ++i;
  cs.family = s.substr(0, i);
  if (cs.family.empty()) fail(s, "missing family name");

  if (i < s.size() && s[i] == '(') {
    const size_t close = s.find(')', i);
    if (close == std::string::npos) fail(s, "unbalanced '('");
    const std::string inner = s.substr(i + 1, close - i - 1);
    if (!inner.empty())
      for (const std::string& tok : split(inner, ','))
        cs.args.push_back(parse_uint(s, tok, "argument"));
    i = close + 1;
  }

  if (i < s.size()) {
    if (s[i] != '@') fail(s, std::string("unexpected character '") + s[i] + "'");
    const std::string opts = s.substr(i + 1);
    if (opts.empty()) fail(s, "empty option list after '@'");
    for (const std::string& kv : split(opts, ',')) {
      const size_t eq = kv.find('=');
      if (eq == std::string::npos || eq == 0)
        fail(s, "option \"" + kv + "\" is not key=value");
      apply_option(cs, kv.substr(0, eq), kv.substr(eq + 1));
      cs.option_keys.push_back(kv.substr(0, eq));
    }
  }
  // Cross-key validation on the final pipeline shape (keys apply in order,
  // so a later passes= can legally reset an earlier sched=).
  if (has_option(cs, "cap") && cs.options.pipeline.schedule != slp::ScheduleKind::Greedy)
    fail(s, "cap= requires sched=greedy");
  return cs;
}

std::unique_ptr<Codec> make_codec(const CodecSpec& spec) {
  if (std::find(spec.option_keys.begin(), spec.option_keys.end(), "warmup") !=
      spec.option_keys.end())
    fail(spec.spec, "warmup= names a service profile, not a codec option; acquire "
                    "through xorec::CodecService instead");
  CodecBuilder builder;
  {
    Registry& r = registry();
    std::lock_guard lk(r.mu);
    const auto it = r.families.find(spec.family);
    if (it == r.families.end()) {
      std::string known;
      for (const auto& [name, _] : r.families) known += (known.empty() ? "" : ", ") + name;
      fail(spec.spec.empty() ? spec.family : spec.spec,
           "unknown codec family \"" + spec.family + "\" (registered: " + known + ")");
    }
    builder = it->second;
  }
  return builder(spec);
}

std::unique_ptr<Codec> make_codec(const std::string& spec) {
  return make_codec(parse_spec(spec));
}

std::string canonical_spec(const CodecSpec& cs) {
  const ec::CodecOptions def;  // the defaults every canonical token is measured against
  const auto& o = cs.options;

  // The RS matrix families are one family with a matrix= override; the
  // canonical form names the effective matrix through the family, so
  // "rs(9,3)@matrix=cauchy" and "cauchy(9,3)" share a pool entry. Note the
  // parsed options carry the matrix only when matrix= was spelled out — the
  // family name itself implies it otherwise (build_rs applies it later).
  std::string family = cs.family;
  bool emit_matrix = has_option(cs, "matrix") && o.family != def.family;
  if (family == "rs" || family == "vand" || family == "cauchy") {
    if (has_option(cs, "matrix")) {
      switch (o.family) {
        case ec::MatrixFamily::IsalVandermonde: family = "rs"; break;
        case ec::MatrixFamily::ReducedVandermonde: family = "vand"; break;
        case ec::MatrixFamily::Cauchy: family = "cauchy"; break;
      }
    }
    emit_matrix = false;
  }

  // Fill in the default-able positional args ("rs(10)" -> "rs(10,4)").
  std::vector<size_t> args = cs.args;
  if (args.size() == 1) {
    if (family == "rs" || family == "vand" || family == "cauchy" ||
        family == "naive_xor" || family == "isal" || family == "rs16")
      args.push_back(kDefaultParity);
    else if (family == "evenodd" || family == "rdp")
      args.push_back(2);
    else if (family == "star")
      args.push_back(3);
  }
  // The families with a trailing default-able arg ("piggyback(10,3)" ->
  // "piggyback(10,3,2)", "sparse(8,3,30)" -> "sparse(8,3,30,1)").
  if (family == "piggyback" && args.size() == 2) args.push_back(kDefaultSubstripes);
  if (family == "sparse" && args.size() == 3) args.push_back(kDefaultSparseSeed);

  // Pipeline spelling: invert the passes=/sched= presets (the same mapping
  // rs_name() in ec/rs_codec.cpp uses — keep the three in sync). Shapes the
  // grammar cannot spell (hand-built CodecOptions) keep the original
  // spelling rather than canonicalize wrongly.
  const auto& pl = o.pipeline;
  const auto sched_name = [](slp::ScheduleKind k) {
    switch (k) {
      case slp::ScheduleKind::None: return "none";
      case slp::ScheduleKind::Dfs: return "dfs";
      case slp::ScheduleKind::Greedy: return "greedy";
    }
    return "none";
  };
  std::string passes_tok, sched_tok;
  const bool xrp = pl.compress == slp::CompressKind::XorRePair;
  if (xrp && pl.fuse) {
    if (pl.schedule == slp::ScheduleKind::None)
      passes_tok = "passes=fuse";
    else if (pl.schedule != slp::ScheduleKind::Dfs)
      sched_tok = std::string("sched=") + sched_name(pl.schedule);
  } else if (pl.compress == slp::CompressKind::None && !pl.fuse) {
    passes_tok = "passes=base";
    if (pl.schedule != slp::ScheduleKind::None)
      sched_tok = std::string("sched=") + sched_name(pl.schedule);
  } else if (xrp && !pl.fuse) {
    passes_tok = "passes=compress";
    if (pl.schedule != slp::ScheduleKind::None)
      sched_tok = std::string("sched=") + sched_name(pl.schedule);
  } else {
    return cs.spec;  // not grammar-expressible
  }
  const bool emit_cap = pl.greedy_capacity != def.pipeline.greedy_capacity;
  if (emit_cap && pl.schedule != slp::ScheduleKind::Greedy)
    return cs.spec;  // cap= would not re-parse under this schedule

  // Option tokens in spec_option_keys() order; defaults are dropped, and
  // the service key warmup= never names a codec.
  std::vector<std::string> opts;
  if (o.exec.block_size != def.exec.block_size)
    opts.push_back("block=" + std::to_string(o.exec.block_size));
  if (o.exec.isa != def.exec.isa)
    opts.push_back(std::string("isa=") + kernel::isa_name(o.exec.isa));
  if (o.exec.backend != def.exec.backend)
    opts.push_back(std::string("exec=") + runtime::exec_backend_name(o.exec.backend));
  if (!passes_tok.empty()) opts.push_back(passes_tok);
  if (!sched_tok.empty()) opts.push_back(sched_tok);
  if (emit_cap) opts.push_back("cap=" + std::to_string(pl.greedy_capacity));
  if (!o.shared_cache && !o.plan_cache) {
    opts.push_back(o.decode_cache_capacity == def.decode_cache_capacity
                       ? "cache=private"
                       : "cache=" + std::to_string(o.decode_cache_capacity));
  }
  if (emit_matrix) {
    const char* m = o.family == ec::MatrixFamily::ReducedVandermonde ? "vand" : "cauchy";
    opts.push_back(std::string("matrix=") + m);
  }

  std::string out = family + "(";
  for (size_t i = 0; i < args.size(); ++i)
    out += (i ? "," : "") + std::to_string(args[i]);
  out += ")";
  for (size_t i = 0; i < opts.size(); ++i) out += (i ? "," : "@") + opts[i];
  return out;
}

std::string canonical_spec(const std::string& spec) {
  return canonical_spec(parse_spec(spec));
}

void register_codec_family(const std::string& family, CodecBuilder builder) {
  if (family.empty() || !builder)
    throw std::invalid_argument("register_codec_family: empty family or builder");
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  r.families[family] = std::move(builder);
}

const std::vector<std::string>& spec_option_keys() {
  // Keep in sync with apply_option above and the grammar in registry.hpp —
  // this list is what help text and error messages print.
  static const std::vector<std::string> keys = {"block", "isa",   "exec",   "passes",
                                                "sched", "cap",   "cache",  "matrix",
                                                "warmup"};
  return keys;
}

CacheStats plan_cache_stats() { return ec::PlanCache::aggregate_stats(); }

std::vector<std::string> registered_families() {
  Registry& r = registry();
  std::lock_guard lk(r.mu);
  std::vector<std::string> out;
  out.reserve(r.families.size());
  for (const auto& [name, _] : r.families) out.push_back(name);
  return out;  // std::map iterates sorted
}

}  // namespace xorec
