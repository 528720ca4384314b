#ifndef LLB_RECOVERY_INSTANT_RESTORE_H_
#define LLB_RECOVERY_INSTANT_RESTORE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "io/backup_codec.h"
#include "io/env.h"
#include "ops/op_registry.h"
#include "recovery/log_applier.h"
#include "recovery/media_recovery.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace llb {

struct InstantRestoreOptions {
  /// Pages per device IO when seeding closures from backup carriers and
  /// when installing restored pages into S (the restore's K, mirroring
  /// RestoreOptions::batch_pages).
  uint32_t batch_pages = 32;
  /// Soft cap on pages per background Step: the step's seed batch (its
  /// dependency closure may pull in a few more).
  uint32_t step_pages = 64;
};

/// Per-page index over an instant restore's media-recovery slice: for
/// each page, the slice records that write it. Influence closures and
/// their restricted replays then cost only the history of the pages they
/// touch, not passes over the whole slice.
class SliceIndex {
 public:
  /// The influence closure of a seed set: the least page set containing
  /// the seeds that also holds the readset and writeset of every slice
  /// record writing one of its pages, and those records.
  struct Closure {
    std::vector<PageId> pages;      // sorted
    std::vector<uint32_t> records;  // indices into records(), ascending
  };

  SliceIndex() = default;
  /// `records` must be in LSN order.
  explicit SliceIndex(std::vector<LogRecord> records);

  Closure ClosureOf(const std::vector<PageId>& seeds) const;

  const std::vector<LogRecord>& records() const { return records_; }

 private:
  std::vector<LogRecord> records_;
  std::unordered_map<PageId, std::vector<uint32_t>, PageIdHash> writers_;
};

/// Progress snapshot of an in-flight instant restore.
struct RestoreStatus {
  bool restoring = false;
  bool complete = false;
  uint64_t pages_total = 0;
  uint64_t pages_restored = 0;  // restored-bitmap population
  /// Pages restored by the on-demand fault path (including the
  /// dependency pages its closures pulled in).
  uint64_t pages_faulted = 0;
  /// Of pages_faulted, the extra dependency pages beyond the faulting
  /// pages themselves (closure overhead of logical operations).
  uint64_t closure_pages = 0;
  /// Pages restored by the background sweep.
  uint64_t sweep_pages = 0;
  uint64_t bitmap_saves = 0;
  /// Log tail frozen at the first restoring open; the media-recovery
  /// slice replays through here, crash redo resumes after it.
  Lsn recovery_tail = kInvalidLsn;
  double fraction = 0.0;  // pages_restored / pages_total
  /// Estimated microseconds of background sweeping left, extrapolated
  /// from the sweep's cumulative per-page rate (0 until the first
  /// productive step).
  uint64_t eta_us = 0;
};

/// The single-page and background phases of media recovery: brings a
/// wiped stable database back page by page while transactions run.
///
/// Discipline (DESIGN.md section 5e):
///
///  * A persisted restored-bitmap (DurableCursor cell) records which
///    pages of S are durably restored. A set bit is a *promise* — the
///    page's media-recovery state is in S — so bits are set in memory
///    only after the page is durably installed, and persisted afterwards
///    (crash in between re-restores idempotently; the same Done/Doubt
///    discipline as the backup fence: conservative, never optimistic).
///  * `recovery_tail` is the durable log tail captured at the FIRST
///    restoring open and pinned in the bitmap cell before any new
///    transaction appends. Records at or below it form the
///    media-recovery slice; records above it are new work. A page's bit
///    is durable before any record touching the page is: a transaction
///    faults every page it touches (install durable, bit set in memory)
///    before it appends its record, and SaveBitmap runs as the log's
///    commit barrier, so the commit that writes the record first saves
///    the bit. Every durable record above the tail therefore touches only
///    durably restored pages — which is what makes plain crash redo from
///    recovery_tail + 1 sound over a half-restored store. A bit no
///    durable record depends on (a read-only fault's) may be lost to a
///    crash; its page then re-restores to the same slice state.
///  * A fault on page X cannot simply replay X's log records in
///    isolation: logical operations recompute their writes from readset
///    pages at historical states. Instead the restorer computes X's
///    *influence closure* (SliceIndex: any record writing a closure page
///    contributes its whole readset and writeset), seeds the closure
///    from the newest backup carriers into a page map private to the
///    fault, replays the closure's records over it (identity-seeded,
///    LSN-tested — exactly RunRedoRange's semantics), and installs into
///    S only the closure pages whose bit is still clear (set pages may
///    already be newer than the slice state; they are never clobbered).
///    Physical and physiological operations have singleton closures, so
///    the common fault costs one carrier read plus that page's history;
///    the worst case degrades to restoring a partition's whole
///    dependency web — never to wrong answers.
///
/// Thread-safety: RestoreOnFault, Step, Drain and the accessors may run
/// concurrently (ResumeRedo runs before serving, Finalize after the last
/// fault). The restorer mutex is held only to compute a closure and *claim* its
/// unrestored pages, to set bits and drop claims as runs land, and for
/// bookkeeping — never across device IO. Seeding, replay and install run
/// unlocked, so faults on unrelated pages overlap; a fault or Step whose
/// closure meets another's claim waits on the condition variable and
/// retries. A waiting fault also makes a running Step yield between
/// runs (it drops its unlanded claims), and Step then sleeps until no
/// fault waits. Bitmap saves are group-committed: SaveBitmap (the log's
/// commit barrier) and Step return only after a save that started after
/// their bits were set, and callers that finish during a save share the
/// next one. RestoreOnFault runs as the cache's page-fault handler,
/// usually with the cache mutex released (under it only for a miss
/// inside apply); the restorer never calls into the cache or the log
/// while holding its mutex, so the lock order cache -> log commit ->
/// restorer holds.
class InstantRestorer {
 public:
  static Result<std::unique_ptr<InstantRestorer>> Open(
      Env* env, const std::string& bitmap_name, const std::string& backup_name,
      const OpRegistry& registry, PageStore* stable, LogManager* log,
      const InstantRestoreOptions& options = {});

  /// Decodes a persisted restored-bitmap cell into a progress snapshot
  /// without opening the restore (read-only; for status tooling). Fills
  /// *backup_name (when non-null) with the chain the restore is pinned
  /// to. NotFound when no restore is in progress.
  static Result<RestoreStatus> InspectBitmap(Env* env,
                                             const std::string& bitmap_name,
                                             std::string* backup_name);

  InstantRestorer(const InstantRestorer&) = delete;
  InstantRestorer& operator=(const InstantRestorer&) = delete;

  /// The prioritized single-page phase (cache page-fault handler): if
  /// `id` is not yet restored, restores its influence closure into S.
  /// Returns once the closure's pages are installed and synced on S and
  /// their bits set in memory; the bits become durable with the next
  /// SaveBitmap, which the log runs before it writes any record that
  /// could touch them. No-op for restored pages.
  Status RestoreOnFault(const PageId& id);

  /// Returns once every bit set before the call is in the durable
  /// bitmap cell, sharing a save with concurrent callers. Installed as
  /// the log's commit barrier while restoring (LogManager::CommitBarrier).
  Status SaveBitmap();

  /// The background phase: restores (up to) the next
  /// options.step_pages unrestored, unclaimed pages plus their closure,
  /// yielding early if a fault is waiting (and then sleeping until none
  /// is). Returns the number of pages durably restored this step; 0 with
  /// complete() false means the step yielded before moving anything.
  Result<uint64_t> Step();

  /// Runs Step until every page is restored.
  Status Drain();

  /// Crash redo for work accepted during a previous restoring session:
  /// replays records after recovery_tail against S. Safe over a
  /// half-restored store (see class comment); call once after Open,
  /// before serving transactions.
  Status ResumeRedo();

  /// True once every page's bit is set.
  bool complete() const;

  /// Removes the bitmap cell once no save is in flight. Call only when
  /// complete and no fault is in flight; idempotent.
  Status Finalize();

  Lsn recovery_tail() const { return recovery_tail_; }
  /// Geometry from the backup chain's base manifest (callers validate
  /// their own options against it).
  uint32_t partitions() const { return partitions_; }
  uint32_t pages_per_partition() const { return pages_per_partition_; }
  RestoreStatus status() const;

 private:
  InstantRestorer(Env* env, std::string bitmap_name, std::string backup_name,
                  const OpRegistry& registry, PageStore* stable,
                  LogManager* log, const InstantRestoreOptions& options,
                  RestoreChainPlan plan);

  Status Init();
  std::string EncodeBitmapLocked() const;

  uint64_t BitIndex(const PageId& id) const {
    return uint64_t{id.partition} * pages_per_partition_ + id.page;
  }
  bool TestBit(const std::vector<uint8_t>& bits, const PageId& id) const {
    uint64_t pos = BitIndex(id);
    return (bits[pos >> 3] & (1u << (pos & 7))) != 0;
  }
  void SetBitLocked(const PageId& id);

  /// Puts the closure's unrestored pages in *to_install and claims them,
  /// or returns false (claiming nothing) when another fault or step
  /// holds one of them.
  bool TryClaimLocked(const SliceIndex::Closure& closure,
                      std::vector<PageId>* to_install);

  /// Seeds a private page map with the closure's newest carrier images
  /// and replays the closure's records over it.
  Status ReplayClosure(const SliceIndex::Closure& closure,
                       LogApplier::PageMap* pages) const;

  /// Runs without mu_: replays the closure, then installs the claimed
  /// `to_install` into S run by run, setting each run's bits and dropping
  /// its claims as it lands. With `yield`, stops before a run while a
  /// fault waits (*yielded). Claims of runs that did not land are
  /// dropped on return; *installed counts the pages that did.
  Status RestoreClaimed(const SliceIndex::Closure& closure,
                        const std::vector<PageId>& to_install, bool yield,
                        uint64_t* installed, bool* yielded);

  /// Group commit: returns once every bit set before the call is in a
  /// completed bitmap save, leading a save when none is in flight.
  Status WaitSavedLocked(std::unique_lock<std::mutex>& lk);

  Env* const env_;
  const std::string bitmap_name_;
  const std::string backup_name_;
  const OpRegistry& registry_;
  PageStore* const stable_;
  LogManager* const log_;
  const InstantRestoreOptions options_;

  RestoreChainPlan plan_;
  std::vector<std::unique_ptr<PageStore>> carriers_;  // one per chain member
  /// Decodes format-v2 frame pages on the carrier seed path (v1 pages
  /// pass through untouched). Created in Init once the chain geometry is
  /// known.
  std::unique_ptr<codec::FrameDecoder> decoder_;
  uint32_t partitions_ = 0;
  uint32_t pages_per_partition_ = 0;
  uint64_t total_pages_ = 0;
  Lsn recovery_tail_ = kInvalidLsn;
  /// In-memory snapshot of the media-recovery slice
  /// [newest.start_lsn, recovery_tail], taken at Open before any new
  /// appends, and indexed by page. Closures and replays read this, never
  /// the live log; it is immutable after Init.
  SliceIndex slice_;

  mutable std::mutex mu_;
  /// Signalled when claims drop, a save finishes, or a fault stops
  /// waiting.
  std::condition_variable cv_;
  std::vector<uint8_t> bits_;
  /// restored_count_ as of the last completed save (bits are only ever
  /// set, so it names what a crash would keep).
  uint64_t saved_count_ = 0;
  bool saving_ = false;
  /// Unrestored pages an in-flight fault or step is restoring.
  std::unordered_set<PageId, PageIdHash> claimed_;
  /// Faults blocked on another's claim; a running Step yields to them.
  uint32_t faults_waiting_ = 0;
  uint64_t restored_count_ = 0;
  uint64_t faulted_pages_ = 0;
  uint64_t closure_extra_pages_ = 0;
  uint64_t sweep_pages_ = 0;
  uint64_t bitmap_saves_ = 0;
  uint64_t sweep_us_ = 0;
};

}  // namespace llb

#endif  // LLB_RECOVERY_INSTANT_RESTORE_H_
