// Warmup-profile persistence for the plan-compilation service: a profile is
// the plan cache's KEY SET — which (codec spec, erasure pattern) pairs were
// compiled — NOT the compiled code. Replaying a profile (CodecService::
// warmup) re-derives and recompiles every program on the current machine
// and configuration, which keeps the file tiny, human-readable, portable
// across architectures, and immune to optimizer or executor changes.
//
// Text format, one record per line ('#' starts a comment):
//   xorec-plan-profile v1
//   codec <canonical-spec> fp <matrix_fp> <matrix_fp2> <config_fp>
//   pattern <ids...>            # key of one cached program; the key's
//                               # UINT32_MAX separators are written as '|'
//
// Pattern shapes (BitmatrixCodecCore::decode_key / parity_key):
//   (empty)            the encoder — recompiled when the pool codec is built
//   E... | I...        decode program: erased data ids E from input ids I
//   P... | |           parity re-encode subset P
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace xorec::ec {

struct PlanProfile {
  struct Entry {
    std::string spec;  // canonical codec spec (xorec::canonical_spec)
    uint64_t matrix_fp = 0, matrix_fp2 = 0, config_fp = 0;  // identity at save time
    std::vector<std::vector<uint32_t>> patterns;  // raw cache-key patterns
  };
  std::vector<Entry> entries;

  size_t pattern_count() const;
};

/// Write the profile; throws std::runtime_error when the file cannot be
/// written. Atomicity is best-effort (write to `path` directly).
void save_plan_profile(const std::string& path, const PlanProfile& profile);

/// Parse a profile; throws std::runtime_error on IO failure, a missing or
/// wrong header, or a malformed record (with the line quoted).
PlanProfile load_plan_profile(const std::string& path);

}  // namespace xorec::ec
