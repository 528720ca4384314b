#ifndef LLBENCH_STATS_H_
#define LLBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace llbench {

/// Nearest-rank percentile q (0 < q < 1) of `samples`, or nullopt when
/// fewer than 10 samples lie beyond it: a tail percentile resting on a
/// handful of samples is noise, so it is omitted rather than reported.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Plain median (nullopt when empty); for per-run summaries over a few
/// repetitions, where the ten-beyond rule does not apply.
std::optional<double> Median(std::vector<double> samples);

}  // namespace llbench

#endif  // LLBENCH_STATS_H_
