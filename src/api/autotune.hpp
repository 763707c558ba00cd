// Measured machine calibration behind the `block=auto` and `exec=auto` spec
// keys: §7.4 as a library utility. The paper tuned the executor block size B
// by hand per machine (B=1K on its intel box, B=2K on amd);
// auto_block_size() runs that sweep once per process — compile one encode
// SLP, time it at each candidate B, keep the winner — and memoizes the
// result, so every later `make_codec("...@block=auto")` resolves instantly.
// auto_exec_backend() applies the same treatment to the execution backend
// choice (interp vs lowered). examples/block_tuner remains the
// verbose, interactive version of the same experiment.
#pragma once

#include <cstddef>

#include "runtime/executor.hpp"

namespace xorec {

/// This machine's best executor block size in bytes, measured once and
/// memoized for the process. Candidates are the paper's §7.4 sweep
/// (512..8192); ties keep the smaller block (denser cache residency).
size_t auto_block_size();

/// This machine's best execution backend, measured once and memoized for
/// the process: interp vs lowered timed on the same RS(8,3) encode workload
/// as auto_block_size(). Interp must beat lowered by 5% to displace it
/// (hysteresis keeps the default on machines where the difference is
/// noise). Never returns Auto.
runtime::ExecBackend auto_exec_backend();

}  // namespace xorec
