#ifndef LLB_IO_TRANSFER_PIPELINE_H_
#define LLB_IO_TRANSFER_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "io/sweep_pool.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace llb {

/// A contiguous run of pages inside one partition — the unit of bulk
/// movement: one latch acquisition and one vectored device IO per side.
struct TransferRun {
  PartitionId partition = 0;
  uint32_t first_page = 0;
  uint32_t count = 0;
};

/// An ordered list of runs to move. Plans are cheap value types built by
/// the caller (backup sweep step, restore chain member, scrub repair
/// range) and handed to a TransferPipeline for execution.
class TransferPlan {
 public:
  /// Appends maximal contiguous runs covering the positions of
  /// [from, to) in `partition` that `page_filter` accepts (sorted page
  /// list; nullptr = every position), chopped at `batch_pages`.
  void AddRange(PartitionId partition, uint32_t from, uint32_t to,
                const std::vector<uint32_t>* page_filter,
                uint32_t batch_pages);

  /// Appends runs coalescing a sorted page-id list (partition-major):
  /// adjacent ids in the same partition merge into one run, again
  /// chopped at `batch_pages`. Scattered ids (incremental deltas, scrub
  /// damage) become many short runs — exactly the split the device needs.
  void AddPages(const std::vector<PageId>& pages, uint32_t batch_pages);

  /// Appends one run verbatim (scrub repairs execute one latched run at
  /// a time).
  void AddRun(const TransferRun& run) { runs_.push_back(run); }

  const std::vector<TransferRun>& runs() const { return runs_; }
  uint64_t pages() const;
  bool empty() const { return runs_.empty(); }

 private:
  std::vector<TransferRun> runs_;
};

/// Counters a pipeline accumulates across Run/RunParallel calls. All
/// updates happen under an internal mutex, so snapshots are safe while
/// transfers are still executing on other threads.
struct TransferStats {
  uint64_t pages_moved = 0;
  /// Runs moved; each is one device IO on its side of the pipeline
  /// (reads latch-free and checksum-verified at reap, writes under the
  /// window's partition latches).
  uint64_t read_batches = 0;
  uint64_t write_batches = 0;
  /// Wall-clock time inside the read / write stages, in microseconds.
  uint64_t read_stage_us = 0;
  uint64_t write_stage_us = 0;
  /// Transient threads created because no SweepThreadPool was attached
  /// (std::thread per RunParallel worker).
  uint64_t threads_spawned = 0;
  /// Runs whose optimistic unlatched read failed its checksum and were
  /// re-read under the partition latch (PageStore::AsyncRunReader). A
  /// torn read or a transient bit-flip heals here without ever reaching
  /// the io_wrapper, so this is where such faults are counted.
  uint64_t checksum_rereads = 0;

  void MergeFrom(const TransferStats& other);
};

struct TransferOptions {
  /// Runs in flight per window: each worker moves windows of up to
  /// max(1, queue_depth) runs with every read, then every write, in
  /// flight at once through PageStore's async reader/writer
  /// (Env::OpenAsync — io_uring on capable kernels, the portable thread
  /// pool elsewhere, which completes inline at depth 1). A window never
  /// reaches past the plan handed in, so callers bound what may be read
  /// ahead (the backup sweep passes one step's Doubt window at a time).
  /// Run length is the plan's: callers chop runs at their batch size.
  uint32_t queue_depth = 0;
  /// Pool for RunParallel workers. Not owned. When null, RunParallel
  /// falls back to transient std::threads, counted in threads_spawned.
  SweepThreadPool* pool = nullptr;
  /// Concurrent workers for RunParallel (clamped to the number of
  /// partitions in the plan; 1 = serial).
  uint32_t workers = 1;
  /// Wraps every device IO call (one window's reads, one window's
  /// writes). The backup sweep passes its retry policy here; null invokes
  /// the IO exactly once.
  std::function<Status(const std::function<Status()>&)> io_wrapper;
  /// Invoked between a run's read and its write with the images about to
  /// land in the destination. May mutate them (the scrubber appends
  /// identity-write log records and restamps LSNs); mutated images must
  /// be re-Sealed — the writer installs them raw, without re-sealing.
  std::function<Status(const TransferRun&, std::vector<PageImage>*)>
      transform;
  /// Invoked after a run is durably in the destination, with the images
  /// that were written (the scrubber heals S from here).
  std::function<Status(const TransferRun&, const std::vector<PageImage>&)>
      after_run;
};

/// Moves page runs between two PageStores over any Env: the run-oriented
/// copy engine factored out of the backup sweep (DESIGN.md "Shared
/// transfer pipeline") and shared by BackupJob (S -> B), media recovery
/// (B -> S) and the backup scrubber (S -> B repair ranges). The pipeline
/// itself knows nothing about fences, cursors or manifests — those stay
/// with the callers, wired in through the TransferOptions hooks.
///
/// Thread-safe: concurrent Run calls (the parallel backup sweep runs one
/// per partition sweeper) share only the stats and the idle movers, both
/// locked.
class TransferPipeline {
 public:
  TransferPipeline(PageStore* source, PageStore* dest,
                   TransferOptions options)
      : source_(source), dest_(dest), options_(options) {}

  TransferPipeline(const TransferPipeline&) = delete;
  TransferPipeline& operator=(const TransferPipeline&) = delete;

  /// Executes the plan's runs in order on the calling thread, one window
  /// of queue_depth runs at a time. Adds the number of pages durably
  /// written to *pages_moved (also on partial failure).
  Status Run(const TransferPlan& plan, uint64_t* pages_moved = nullptr);

  /// Shards the plan's runs by partition across up to options.workers
  /// concurrent workers (each partition's runs stay in order on one
  /// worker, so per-partition write ordering is preserved). Failure in
  /// one partition does not stop the others; the first error is
  /// returned.
  Status RunParallel(const TransferPlan& plan,
                     uint64_t* pages_moved = nullptr);

  /// Locked copy of the cumulative stats, safe mid-transfer.
  TransferStats StatsSnapshot() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

 private:
  Status CallIo(const std::function<Status()>& fn) {
    return options_.io_wrapper ? options_.io_wrapper(fn) : fn();
  }

  /// One worker's async reader/writer pair. Idle movers wait in the
  /// pipeline for the next Run, so a sweep opens its async channels and
  /// sizes its read slots once, not once per step.
  struct Mover {
    std::unique_ptr<PageStore::AsyncRunReader> reader;
    std::unique_ptr<PageStore::AsyncRunWriter> writer;
  };

  /// Executes a span of runs serially on an idle (or new) mover; the
  /// inner loop shared by Run and every RunParallel worker.
  Status ExecuteRuns(const TransferRun* runs, size_t count,
                     uint64_t* pages_moved);
  /// Moves the runs in windows of the mover's queue depth.
  Status MoveRuns(Mover* mover, const TransferRun* runs, size_t count,
                  uint64_t* pages_moved);
  /// Moves one window: all reads in flight, then all writes, then one
  /// durability barrier per touched partition.
  Status ExecuteWindow(Mover* mover, const TransferRun* window, size_t count,
                       uint64_t* pages_moved);

  PageStore* const source_;
  PageStore* const dest_;
  const TransferOptions options_;
  mutable std::mutex stats_mu_;
  TransferStats stats_;
  std::mutex movers_mu_;
  std::vector<std::unique_ptr<Mover>> idle_movers_;
};

}  // namespace llb

#endif  // LLB_IO_TRANSFER_PIPELINE_H_
