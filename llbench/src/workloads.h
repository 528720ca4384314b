#ifndef LLBENCH_WORKLOADS_H_
#define LLBENCH_WORKLOADS_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace llbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (relative to the working directory) for span dumps.
  std::string out_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable report lines (workload-specific headline metrics,
  /// prediction sanity lines, correctness notes).
  std::vector<std::string> notes;
};

/// An engine call that should never fail did; the run is invalid and
/// prints no result.
class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Throws BenchError on an unexpected engine failure.
RunResult RunWorkload(const RunConfig& config);

}  // namespace llbench

#endif  // LLBENCH_WORKLOADS_H_
