#ifndef LLB_DB_STATS_H_
#define LLB_DB_STATS_H_

#include <cstdint>
#include <string>

#include "cache/cache_manager.h"
#include "recovery/write_graph.h"
#include "wal/log_manager.h"

namespace llb {

/// One snapshot of every counter the engine keeps. The benchmarks sample
/// deltas of this to regenerate the paper's figures.
struct DbStats {
  CacheStats cache;
  LogStats log;
  WriteGraphStats graph;
  uint64_t backups_taken = 0;
  uint64_t backup_pages_copied = 0;
  uint64_t backup_fence_updates = 0;

  // WAL epoch status (group commit; see LogManager).
  Epoch durable_epoch = kInvalidEpoch;
  Epoch open_epoch = kInvalidEpoch;

  /// Fraction of object flushes during active backup that required Iw/oF
  /// logging — the paper's Prob{log} (section 5).
  double ExtraLoggingProbability() const {
    if (cache.decisions == 0) return 0.0;
    return static_cast<double>(cache.decisions_logged) /
           static_cast<double>(cache.decisions);
  }

  std::string ToString() const;
};

}  // namespace llb

#endif  // LLB_DB_STATS_H_
