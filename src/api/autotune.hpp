// Measured machine calibration behind the `block=auto` spec key: §7.4 as a
// library utility. The paper tuned the executor block size B by hand per
// machine (B=1K on its intel box, B=2K on amd); auto_block_size() runs that
// sweep once per process — compile one encode SLP, time it at each
// candidate B, keep the winner — and memoizes the result, so every later
// `make_codec("...@block=auto")` resolves instantly. examples/block_tuner
// remains the verbose, interactive version of the same experiment.
#pragma once

#include <cstddef>
#include <vector>

namespace xorec {

/// This machine's best executor block size in bytes, measured once and
/// memoized for the process. Candidates are the paper's §7.4 sweep
/// (512..8192); a larger block must be 5% faster than the incumbent to
/// displace it (ties keep the smaller block, denser cache residency).
size_t auto_block_size();

/// The index of the candidate a calibration sweep keeps. `times` are the
/// candidates' measured times in sweep order; candidate 0 is the first
/// incumbent, and each later one displaces the incumbent only when it beats
/// the incumbent's own time by more than `margin` (0.05 = 5% faster). A
/// near-miss never lowers the bar, so a run of small steps that add up to
/// a real win still wins. `times` must be non-empty.
size_t pick_with_margin(const std::vector<double>& times, double margin);

}  // namespace xorec
