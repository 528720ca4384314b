#ifndef LLB_TORTURE_CONCURRENT_TORTURE_H_
#define LLB_TORTURE_CONCURRENT_TORTURE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "torture/torture_util.h"

namespace llb {

/// Knobs for the concurrent torture run: real threads racing through the
/// BackupProgress latch instead of the sweeper's scripted interleavings.
/// Deterministic *per thread* for a given seed (each updater replays the
/// same operation sequence); the cross-thread interleaving is whatever
/// the scheduler produces, which is the point — run it under TSan.
struct ConcurrentTortureOptions {
  uint64_t seed = 1;
  uint32_t partitions = 2;
  uint32_t pages_per_partition = 64;
  uint32_t cache_pages = 32;
  /// Minimum foreground steps per updater thread (one thread per
  /// partition, each driving its own partition): a Copy and a flush of
  /// its target, then a Transform left dirty. Updaters keep going until
  /// the last backup completes, so every sweep races them.
  uint32_t updates_per_thread = 300;
  uint32_t backup_steps = 8;
  /// Consecutive full backups the sweep thread takes while updaters run.
  uint32_t backups = 3;
  /// Concurrent sweep workers per backup (0 = legacy one-thread-per-
  /// partition parallel_partitions mode). With a value >= 2 the sweeps
  /// run on the database's persistent SweepThreadPool, racing pool
  /// workers against the updaters — the TSan tier for the sharded
  /// parallel sweep.
  uint32_t sweep_threads = 0;
  /// Whether a fourth thread polls Database::GatherStats concurrently
  /// (exercises the stats paths foreground threads read).
  bool poll_stats = true;
};

struct ConcurrentTortureReport {
  uint64_t updates_applied = 0;
  uint64_t backups_completed = 0;
  uint64_t pages_copied = 0;    // across all backup sweeps
  uint64_t identity_writes = 0; // Iw/oF records forced by Done/Doubt flushes
  uint64_t cleaner_installs = 0;   // write-back installs by cleaner threads
  uint64_t cleaner_decisions = 0;  // Iw/oF decisions inside those installs
  uint64_t stats_polls = 0;

  std::string ToString() const;
};

/// Runs updater threads (one per partition) against a backup thread
/// taking `backups` consecutive parallel-partition sweeps, with an
/// optional stats-poller thread. After the race: some flush must have
/// taken the Iw/oF path (identity_writes > 0), some write-back must have
/// run on a cleaner thread, one of them making an Iw/oF decision during a
/// backup (cleaner_installs, cleaner_decisions > 0), the database must match
/// the full-log oracle, every backup must be complete and clean, and the
/// last backup must support a full wipe + media recovery back to the
/// oracle state.
Result<ConcurrentTortureReport> RunConcurrentTorture(
    const ConcurrentTortureOptions& options);

}  // namespace llb

#endif  // LLB_TORTURE_CONCURRENT_TORTURE_H_
