#ifndef LLB_BACKUP_BACKUP_JOB_H_
#define LLB_BACKUP_BACKUP_JOB_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "backup/backup_progress.h"
#include "backup/backup_store.h"
#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "io/sweep_pool.h"
#include "io/transfer_pipeline.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"

namespace llb {

/// Bounded retries with deterministic exponential backoff for transient
/// faults during the sweep. IoError statuses are retried, as are
/// Corruption statuses (a checksum mismatch on a read may be a transient
/// bit-flip on the wire — the persistent kind still surfaces once the
/// retry budget is exhausted); other failures surface immediately.
struct RetryPolicy {
  /// Additional attempts after the first failure (0 = fail fast).
  uint32_t max_retries = 0;
  /// Sleep before the first retry, in microseconds (0 = no sleeping —
  /// the deterministic choice for tests). Each subsequent retry waits
  /// `backoff_multiplier` times longer.
  uint32_t backoff_start_us = 0;
  double backoff_multiplier = 2.0;
};

struct BackupJobOptions {
  /// Number of progress-reporting steps per partition (paper section 5's
  /// N). One step degenerates to "backup active / not active"; more steps
  /// mean finer fences and less extra logging.
  uint32_t steps = 8;
  /// Back up partitions on concurrent threads (each partition has its own
  /// fences and latch, so they interleave freely — paper 3.4). Legacy
  /// all-out switch: equivalent to sweep_threads = num_partitions.
  bool parallel_partitions = false;
  /// Number of concurrent sweep workers. Partitions are sharded across
  /// the workers (each worker claims the next unswept partition), so the
  /// device sees up to sweep_threads concurrent streams while every
  /// partition still has exactly one sweeper advancing its own (D, P)
  /// fences — the per-partition latch protocol is untouched, and fence
  /// advances on different partitions commute (DESIGN.md "Parallel
  /// sweeps"). 1 = serial. Clamped to the partition count.
  uint32_t sweep_threads = 1;
  /// Persistent worker pool to run sweep workers on. Not owned. When
  /// null, parallel sweeps fall back to transient std::threads, counted
  /// in BackupJobStats::threads_spawned. Database attaches its own pool
  /// to every job it drives, so Database-driven sweeps spawn zero
  /// transient threads.
  SweepThreadPool* pool = nullptr;
  /// Retry policy for transient IO errors on page copies and sweep
  /// metadata writes.
  RetryPolicy retry;
  /// Pages moved per device IO inside a step (the sweep's K): each step
  /// is planned as maximal contiguous runs of up to K pages, and each run
  /// is one latch-free read from S and one write into B under B's
  /// partition latch. The fence protocol is untouched: fences move only
  /// at step boundaries, so Done/Doubt/Pend classification of any
  /// concurrent flush is identical for every K.
  uint32_t batch_pages = 1;
  /// No-op, kept declared only because the benchmark harness still sets
  /// it; it goes with the next benchmark change. Every sweep moves its
  /// runs through the async window engine sized by queue_depth.
  bool pipelined = false;
  /// Runs in flight per sweep worker (TransferOptions::queue_depth; <= 1
  /// moves one run at a time): each window of queue_depth runs is read
  /// through Env::OpenAsync (io_uring where the kernel grants it, the
  /// portable thread pool elsewhere), then written with one sync per
  /// touched partition. Read-ahead stays bounded by the step's Doubt
  /// window: the pipeline never reaches past the plan it is handed, and
  /// plans stop at the pending fence.
  uint32_t queue_depth = 0;
  /// Persist a per-partition cursor in the backup store after every
  /// completed step, so an aborted Run can be continued with Resume
  /// instead of restarting from page 0. Costs one small durable write
  /// per step per partition.
  bool resumable = true;
  /// Write the backup in store format v2 (io/backup_codec.h): every page
  /// is RLE-compressed, zero pages shrink to a tiny frame, and — when
  /// dedup_base names a previous complete generation — pages unchanged
  /// since that generation become ref frames into its store. Recorded in
  /// the manifest, so Resume re-attaches the same encoder on its own.
  /// The manifest's raw_bytes/stored_bytes cover the pages moved by the
  /// run that completed the sweep.
  bool compress = false;
  /// Dedup target for compressed full backups (ignored without
  /// `compress`). Incremental sweeps only move changed pages — their
  /// LSNs never match the base — so Database sets this on fulls only.
  std::string dedup_base;
  /// Test/benchmark hook: invoked once per step, after the pending fence
  /// has been advanced but before the step's pages are copied — i.e.
  /// while the Doubt window [D, P) is genuinely in doubt. Runs without
  /// any latch held, so it may execute operations and flushes. An error
  /// aborts the backup.
  std::function<Status(PartitionId, uint32_t)> mid_step;
};

struct BackupJobStats {
  uint64_t pages_copied = 0;
  uint64_t fence_updates = 0;
  /// Transient IO errors observed by the sweep (including ones that a
  /// retry then absorbed).
  uint64_t io_faults = 0;
  /// Retry attempts performed under the RetryPolicy.
  uint64_t retries = 0;
  /// Partitions continued past page 0 by Resume.
  uint64_t partitions_resumed = 0;
  /// Page positions Resume skipped because the cursor showed them
  /// already durably in B.
  uint64_t pages_skipped_on_resume = 0;
  /// Runs moved; each is one device IO on its side of the pipeline
  /// (and, for writes, part of one durability round trip per window).
  uint64_t read_batches = 0;
  uint64_t write_batches = 0;
  /// Wall-clock time spent inside the read / write stages, in
  /// microseconds.
  uint64_t read_stage_us = 0;
  uint64_t write_stage_us = 0;
  /// Runs whose read from S failed its checksum and were re-read under
  /// the partition latch before the retry policy saw anything
  /// (TransferStats::checksum_rereads): torn reads and transient
  /// bit-flips heal here, so io_faults alone undercounts them.
  uint64_t checksum_rereads = 0;
  /// Transient threads created because no SweepThreadPool was attached
  /// (std::thread per partition worker). A job with a pool keeps this at
  /// exactly 0 — the regression guard for the persistent-worker design.
  uint64_t threads_spawned = 0;
};

/// The on-line backup process: sweeps the stable database S in backup
/// order, copying pages directly into the backup store B — bypassing the
/// cache manager entirely — while reporting progress through the backup
/// fences. Update activity continues concurrently; the cache manager's
/// backup-aware flush path (cache/cache_manager.h) keeps B recoverable.
///
/// Fault tolerance: transient IO errors are retried per the RetryPolicy.
/// If a sweep still fails, it leaves behind (1) an incomplete manifest
/// holding the original start_lsn, (2) a durable BackupCursor recording
/// each partition's last completed step boundary, and (3) the partition
/// fences, still up, so concurrent flushes keep being identity-logged.
/// Resume(name) then continues each partition from its cursor; the D/P
/// fence math stays correct because everything below the cursor is
/// durably in B (Done) and everything above is re-swept (Pending).
class BackupJob {
 public:
  BackupJob(Env* env, PageStore* stable, BackupCoordinator* coordinator,
            LogManager* log, uint32_t pages_per_partition,
            BackupJobOptions options);

  BackupJob(const BackupJob&) = delete;
  BackupJob& operator=(const BackupJob&) = delete;

  /// Takes a full backup named `name`. `start_lsn` must be the crash-redo
  /// scan start point captured at the moment the backup begins (the cache
  /// manager's RedoStartLsn()).
  Result<BackupManifest> Run(const std::string& name, Lsn start_lsn);

  /// Takes an incremental backup containing only `changed_pages`,
  /// chained to `base_name` (paper 6.1).
  Result<BackupManifest> RunIncremental(const std::string& name,
                                        const std::string& base_name,
                                        Lsn start_lsn,
                                        std::vector<PageId> changed_pages);

  /// Continues an aborted resumable backup from its persisted cursor.
  /// The start_lsn (and, for incrementals, the page list) comes from the
  /// incomplete manifest the aborted Run left behind. Correct only while
  /// the partition fences have stayed up since the abort (same
  /// coordinator, no Reset in between): the fences are what kept flushes
  /// into already-copied regions identity-logged.
  Result<BackupManifest> Resume(const std::string& name);

  /// Locked copy of the stats, safe to call while Run/RunIncremental/
  /// Resume is still executing on other threads (parallel partitions
  /// update the counters under stats_mu_).
  BackupJobStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Unlocked reference; only valid once the job has returned.
  const BackupJobStats& stats() const { return stats_; }

 private:
  /// Sweeps one partition from `start_from` (0 for a fresh run). `steps`
  /// comes from the manifest so resumed sweeps reuse the original fence
  /// boundaries. `cursor`, when non-null, is durably updated after every
  /// completed step. Page movement goes through `pipeline` (the shared
  /// TransferPipeline for this sweep), one step's Doubt window per plan.
  Status BackupPartition(TransferPipeline* pipeline, PartitionId partition,
                         const std::vector<uint32_t>* page_filter,
                         uint32_t steps, uint32_t start_from,
                         BackupCursor* cursor);

  /// Shared sweep driver for Run/RunIncremental/Resume. Fills in
  /// end_lsn, marks the manifest complete, and retires the cursor.
  Result<BackupManifest> Sweep(BackupManifest manifest, BackupCursor cursor,
                               bool resuming);

  /// Runs `body` once per partition on up to `SweepWorkers()` concurrent
  /// workers (pool tasks when a pool is attached, transient std::threads
  /// otherwise). Workers claim partitions from a shared counter, so any
  /// worker count ≤ the partition count keeps every partition
  /// single-sweeper.
  Status RunPartitions(const std::function<Status(PartitionId)>& body);

  /// Effective concurrent sweep-worker count for this job's options.
  uint32_t SweepWorkers() const;

  /// Runs fn, retrying IoError/Corruption failures per options_.retry.
  Status WithRetry(const std::function<Status()>& fn);

  /// Durably records that `partition` completed the step ending at
  /// `boundary`.
  Status UpdateCursor(BackupCursor* cursor, PartitionId partition,
                      uint32_t boundary);

  Env* const env_;
  PageStore* const stable_;
  BackupCoordinator* const coordinator_;
  LogManager* const log_;
  const uint32_t pages_per_partition_;
  const BackupJobOptions options_;
  std::mutex cursor_mu_;
  mutable std::mutex stats_mu_;
  BackupJobStats stats_;
};

}  // namespace llb

#endif  // LLB_BACKUP_BACKUP_JOB_H_
