// The string-spec codec registry: every scenario the library supports is
// nameable from a flag.
//
//   auto codec = xorec::make_codec("rs(10,4)");
//   auto tuned = xorec::make_codec("cauchy(12,3)@block=1024,isa=avx2");
//   auto array = xorec::make_codec("evenodd(6,2)");
//
// Spec grammar (whitespace is ignored):
//   spec    := family '(' args ')' [ '@' options ]
//   family  := identifier           e.g. rs, vand, cauchy, evenodd, rdp,
//                                        star, rs16, naive_xor, isal
//   args    := unsigned integers, comma-separated (family-specific arity)
//   options := key '=' value pairs, comma-separated:
//     block=N        executor block size B in bytes (default 2048)
//     isa=K          scalar | word64 | avx2 | avx512 | neon | auto
//                    (default auto)
//     exec=K         interp | lowered — execution backend (default
//                    lowered: pre-resolved kernel calls); interp is the
//                    reference interpreter
//     passes=K       base | compress | fuse | full — optimizer preset
//     sched=K        none | dfs | greedy — scheduling pass
//     cap=N          greedy abstract-cache capacity in blocks (>= 2,
//                    default 32; sched=greedy only)
//     cache=K        shared (process-wide PlanCache, default) | private
//                    (per-codec) | N (private with LRU capacity N, 0 = unbounded)
//     matrix=K       isal | vand | cauchy — RS matrix family override
//     warmup=PATH    plan-profile file to replay before serving (no commas
//                    or whitespace in PATH). Only meaningful to
//                    CodecService::acquire (api/service.hpp) — plain
//                    make_codec rejects it rather than silently dropping it
//
// Built-in families (k data + m parity fragments):
//   rs(n[,p])        RS over GF(2^8), ISA-L Vandermonde matrix (p default 4)
//   vand(n[,p])      RS, reduced-Vandermonde matrix
//   cauchy(n[,p])    RS, systematic Cauchy matrix
//   rs16(n[,p])      RS over GF(2^16) (w = 16 strips), Cauchy
//   evenodd(k[,2])   EVENODD array code, shortened to k data disks
//   rdp(k[,2])       Row-Diagonal Parity, shortened to k data disks
//   star(k[,3])      STAR (3 parities), shortened to k data disks
//   lrc(k,l,g)       locality code: l local XOR groups + g Cauchy globals
//   piggyback(k,m[,sub])  piggybacked RS: sub (default 2) Cauchy substripes
//                    with last-substripe parity piggybacks — reduced-read
//                    single-block repair once m >= 3 (w = 8*sub strips)
//   sparse(k,m,d[,seed])  random sparse parity bitmatrix at density d%,
//                    regenerated from seed (default 1); small shapes reject
//                    non-MDS draws via rank checks
//   naive_xor(n[,p]) RS with every optimizer pass disabled (the "Base")
//   isal(n[,p])      GF-table ISA-L-style baseline (no SLP pipeline)
//
// New families can be registered at runtime (register_codec_family), which
// is how user-defined XOR codes join the same surface — see
// examples/custom_code.cpp.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/codec.hpp"
#include "ec/bitmatrix_codec_core.hpp"

namespace xorec {

/// A parsed spec string: family, positional arguments, execution options.
struct CodecSpec {
  std::string family;
  std::vector<size_t> args;
  ec::CodecOptions options;
  std::vector<std::string> option_keys;  // which '@' keys were given, in order
  std::string spec;  // the original string, whitespace-stripped
  /// warmup= value: the plan-profile path CodecService::acquire replays.
  std::string warmup_path;

  /// The positional arg at `i`, or `fallback` when fewer were given.
  size_t arg(size_t i, size_t fallback) const {
    return i < args.size() ? args[i] : fallback;
  }
};

/// Parse a spec string. Throws std::invalid_argument (with the offending
/// spec quoted) on malformed input, unknown option keys or bad values.
/// Does not check the family exists — make_codec does that.
CodecSpec parse_spec(const std::string& spec);

/// The canonical spelling of a spec — ONE string per semantic codec
/// configuration, so equivalent spellings share a CodecService pool entry:
/// key order is fixed, options equal to their defaults are dropped,
/// default-able positional args are filled in ("rs(10)" -> "rs(10,4)"),
/// matrix= folds into the RS family name ("rs(9,3)@matrix=cauchy" ->
/// "cauchy(9,3)"), and the service key warmup= is stripped (it configures a
/// service, not the codec). Idempotent; round-trips through parse_spec.
/// Throws std::invalid_argument on malformed input.
std::string canonical_spec(const std::string& spec);
std::string canonical_spec(const CodecSpec& spec);

/// Build a codec from a spec string or a parsed spec.
/// Throws std::invalid_argument for unknown families or bad arguments.
std::unique_ptr<Codec> make_codec(const std::string& spec);
std::unique_ptr<Codec> make_codec(const CodecSpec& spec);

/// Builds the codec from a parsed spec; registered per family.
using CodecBuilder = std::function<std::unique_ptr<Codec>(const CodecSpec&)>;

/// Register (or replace) a codec family under `family`.
void register_codec_family(const std::string& family, CodecBuilder builder);

/// Sorted names of all registered families.
std::vector<std::string> registered_families();

/// The '@' option keys the spec grammar accepts, in documentation order —
/// the single source for help text and error messages (grammar above).
const std::vector<std::string>& spec_option_keys();

/// Process-global plan-compilation counters: the SUM over every live
/// ec::PlanCache instance — the shared service cache plus all private and
/// injected ones. Counters are scoped per cache instance, so this accessor
/// aggregates without letting a private codec's traffic pollute the shared
/// service's own hit rate: for the shared-cache-only view use
/// Codec::cache_stats() on a shared-cache codec (or
/// ec::PlanCache::process_shared()->stats()).
CacheStats plan_cache_stats();

}  // namespace xorec
