#ifndef LLB_CACHE_CACHE_MANAGER_H_
#define LLB_CACHE_CACHE_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "backup/backup_progress.h"
#include "backup/incremental_tracker.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "ops/op_registry.h"
#include "recovery/write_graph.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"

namespace llb {

/// How flushes coordinate with an active backup.
enum class BackupPolicy {
  /// No coordination — the conventional fuzzy dump. Correct only for
  /// page-oriented operations; with logical operations the backup can be
  /// unrecoverable (the paper's Figure 1 problem).
  kNaive,
  /// Paper section 3: Iw/oF (identity-write logging) for every flushed
  /// object that is not known to be Pending.
  kGeneral,
  /// Paper section 4: tree-operation case analysis over (#X, #S(X)),
  /// logging only in the shaded region of Figure 4.
  kTree,
};

struct CacheOptions {
  size_t capacity_pages = 1024;
  BackupPolicy policy = BackupPolicy::kGeneral;
};

/// Counters used by the test suite and by the benchmarks that regenerate
/// the paper's figures.
struct CacheStats {
  // One hit or miss per page an operation declares and per ReadPage
  // (internal lookups count nothing). A miss is an S read, or a blind
  // miss: a writeset page outside the readset that was not resident, so
  // its operation reserved it and read nothing. blind_misses counts
  // those whose staged image became the frame without any read.
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t blind_misses = 0;
  uint64_t evictions = 0;
  uint64_t ops_applied = 0;
  uint64_t node_installs = 0;
  uint64_t pages_flushed = 0;
  uint64_t identity_writes = 0;  // Iw/oF page loggings
  // Identity writes that install a node with several vars without an
  // atomic multi-page write (the backup's Iw/oF is counted above only).
  uint64_t multivar_identity_writes = 0;

  // Install plans (every install releases the cache mutex for its
  // durability wait + stable write), and the times an operation or
  // flush had to wait for an in-flight install.
  uint64_t overlapped_installs = 0;
  uint64_t install_waits = 0;
  // Units an install plan left for a later one because their Iw record
  // may not become durable before their in-plan predecessors are on S;
  // each costs one more install round and its log wait.
  uint64_t iw_order_waits = 0;

  // Batched write-back: installs made by a dirty eviction (each carries
  // the victim plus up to kWriteBackBatch - 1 cold dirty pages of its
  // partition), the pages they wrote, and those written in more than one
  // write-graph level. The rest were flat: one level.
  uint64_t writeback_batches = 0;
  uint64_t writeback_pages = 0;
  uint64_t writeback_multilevel = 0;
  // Of those installs, the ones a cleaner thread made and the ones a
  // client thread made for its own eviction, and the Iw/oF decisions
  // (below) made inside cleaner installs.
  uint64_t cleaner_installs = 0;
  uint64_t client_writebacks = 0;
  uint64_t cleaner_decisions = 0;

  // Per-object flush decisions while a backup is active (Figure 5's
  // Prob{log} = decisions_logged / decisions).
  uint64_t decisions = 0;
  uint64_t decisions_logged = 0;
  // Restricted to objects with a nonempty successor set S(X) — matches
  // the section-5.2 model's "|S(X)| = 1" assumption (tree policy only).
  uint64_t decisions_succ = 0;
  uint64_t decisions_succ_logged = 0;

  // Region tallies of decided objects (Figure 3).
  uint64_t region_done = 0;
  uint64_t region_doubt = 0;
  uint64_t region_pend = 0;

  // Tree-policy case tallies (Figure 4's six regions).
  uint64_t tree_plain_pend_x = 0;        // Pend(X)
  uint64_t tree_plain_done_succ = 0;     // Done(S(X)) (or no successors)
  uint64_t tree_plain_doubt_ok = 0;      // Doubt&Doubt, dagger holds
  uint64_t tree_iwof_done_x = 0;         // Done(X) & !Done(S(X))
  uint64_t tree_iwof_pend_succ = 0;      // Doubt(X) & Pend(S(X))
  uint64_t tree_iwof_doubt_viol = 0;     // Doubt&Doubt, violation
};

/// The cache manager: a buffer pool whose flushing obeys the write graph,
/// extended with the paper's backup-aware flush path (section 3.5):
///
///   Done(X) / Doubt(X): install via Iw/oF — log an identity write of X
///     (putting its value on the media recovery log), then flush X to S.
///   Pend(X): just flush — the value will reach B when the sweep passes.
///
/// The whole per-node decision+log+flush sequence runs under the
/// partition's backup latch in share mode, so the fences cannot move
/// mid-flush.
///
/// Thread-safe; operations are serialized by an internal mutex, which
/// cache misses (outside apply) and install writes release for their
/// device IO. The backup job runs concurrently, touching only the page
/// stores and the backup latches.
///
/// While two or more client threads are inside ExecuteOp or ReadPage,
/// kCleaners cleaner threads (started on first need) write cold dirty
/// pages back so that clean frames stay available at the cold end; a lone
/// client writes back for itself (see CleanerLoop). A cleaner's failed
/// install is returned by the next ExecuteOp or ReadPage.
class CacheManager {
 public:
  CacheManager(PageStore* stable, LogManager* log, const OpRegistry* registry,
               std::unique_ptr<WriteGraph> graph,
               BackupCoordinator* coordinator, IncrementalTracker* tracker,
               CacheOptions options);
  /// Stops and joins the cleaners; an install in flight finishes first.
  ~CacheManager();

  CacheManager(const CacheManager&) = delete;
  CacheManager& operator=(const CacheManager&) = delete;

  /// Reads the current image of a page (through the cache).
  Status ReadPage(const PageId& id, PageImage* out);

  /// Installs (nullptr clears) the page-fault handler a restoring-mode
  /// database wires to its InstantRestorer: invoked on every cache miss,
  /// before the page is read from S, so a not-yet-restored page is
  /// restored on demand first. While a handler is installed, ExecuteOp
  /// pre-faults each operation's readset and writeset — blind-written
  /// pages included — before logging it, so a blind write's record never
  /// becomes durable (a concurrent Force can seal it) before the page it
  /// overwrites is durably restored and marked — a crash would otherwise
  /// let the fault path clobber the redone value.
  ///
  /// Misses run the handler and the S read with the cache mutex released
  /// (see GetFrame), so replacing a handler waits until no miss that
  /// runs the old one is in flight: once this returns, nothing calls the
  /// old handler again and its target may be destroyed. Must not be
  /// called from inside a handler.
  void SetPageFaultHandler(std::function<Status(const PageId&)> handler);

  /// The installed page-fault handler (empty when none), so a caller can
  /// wrap it.
  std::function<Status(const PageId&)> page_fault_handler() const;

  /// Executes an operation: applies it to the cached pages via its
  /// registered apply function, assigns its LSN, logs it, and registers
  /// it with the write graph. On return *rec carries the assigned LSN.
  /// A writeset page outside the readset is written blind: on a miss
  /// (outside restoring mode) nothing is read from S; the page is
  /// reserved under its load latch and its staged image becomes the frame
  /// at commit.
  Status ExecuteOp(LogRecord* rec);

  /// Installs the node owning `x` (flushing predecessors first), making
  /// x clean. No-op if x is not dirty.
  Status FlushPage(const PageId& x);

  /// Installs every uninstalled node (in dependency order) and forces the
  /// log.
  Status FlushAll();

  /// Writes a fuzzy checkpoint record (no flushing).
  Status Checkpoint();

  /// Current redo-scan start point.
  Lsn RedoStartLsn() const;

  /// Drops every clean page; fails if dirty pages remain (test hook).
  Status DropCleanPages();

  CacheStats stats() const;
  void ResetStats();

  /// Write-graph counters under the cache mutex: the graph mutates inside
  /// ExecuteOp/flush (which hold mu_), so an unlocked GetStats from a
  /// monitoring thread would race.
  WriteGraphStats GraphStats() const;

  /// Unlocked reference; callers must not race with operations/flushes.
  const WriteGraph& graph() const { return *graph_; }
  size_t CachedPageCount() const;
  bool IsDirty(const PageId& id) const;

 private:
  struct Frame {
    PageImage image;
    bool dirty = false;
    uint32_t pins = 0;  // pinned frames are never evicted
    // Part of an install plan between its phases 1 and 3. Such a page is
    // dirty until phase 3, so it stays resident while marked.
    bool installing = false;
    std::list<PageId>::iterator lru_pos;
    uint64_t stamp = 0;  // lru_clock_ at its last Touch: lru_ order
  };

  /// Who installs a plan: an explicit flush, a client thread evicting a
  /// dirty page, or a cleaner thread.
  enum class Installer { kFlush, kEviction, kCleaner };

  class CacheOpContext;
  class ClientScope;

  /// Returns the page's frame, loading it on a miss. Outside apply a
  /// miss marks the page loading (its load latch), makes room, releases
  /// mu_ for the fault handler and the S read, then re-locks and inserts
  /// the frame; other threads missing the same page wait on the latch.
  /// Inside apply the whole miss runs under mu_. A load sets *loaded;
  /// the caller counts the hit or miss.
  Status GetFrame(std::unique_lock<std::mutex>& lk, const PageId& id,
                  Frame** frame, bool* loaded);
  /// Evicts until `reserved` + 1 more frames fit within the capacity (or
  /// everything left is pinned): `reserved` counts the caller's blind
  /// reservations, which get their frames only at commit.
  Status EnsureRoom(std::unique_lock<std::mutex>& lk, size_t reserved = 0);
  /// Installs the node owning `x` after its predecessors. A write-back
  /// (an eviction or a cleaner) also takes the coldest dirty pages of x's
  /// partition, up to kWriteBackBatch pages in all. A cleaner first makes
  /// x's plan durable in the log with the mutex released, unless x's
  /// partition has a backup in progress.
  Status FlushPageLocked(std::unique_lock<std::mutex>& lk, const PageId& x,
                         Installer by = Installer::kFlush);
  /// Appends to `plan` the plans of the coldest unpinned, idle dirty
  /// pages of `victim`'s partition among the coldest capacity / 4 frames
  /// (for a cleaner: its partition's coldest capacity / 4 dirty frames),
  /// skipping nodes already planned, while the plan stays within the
  /// write-back batch. Unless the plan already forces the log, only pages
  /// whose operations are durable are added.
  void AddWriteBackVictims(const PageId& victim, Installer by,
                           std::vector<InstallUnit>* plan);
  /// The newest LSN a plan's install needs durable: its operations' and
  /// its pages'.
  Lsn PlanLsn(const std::vector<InstallUnit>& plan) const;
  /// Installs a whole plan in three phases: phase 1 under the cache mutex
  /// (decide + Iw appends + image snapshots + mark units installing),
  /// phase 2 with the mutex released but the partition backup latch still
  /// held in share mode (a log wait only if the plan logged Iw records or
  /// holds a page past the durable LSN, then the stable writes: one
  /// PageStore::WritePages per write-graph level, each durable before the
  /// next starts), phase 3 re-acquired (mark clean/installed, wake
  /// waiters). A node with several vars logs an identity write of each
  /// var, like an Iw/oF decision. Installs only the prefix before the
  /// first unit that must log an Iw record while a predecessor of it is
  /// in the plan, and sets *deferred when that left units out.
  /// A cleaner's install leaves its pages where they are in lru_, so
  /// they are the next evicted; every other install touches them.
  Status InstallPlan(std::unique_lock<std::mutex>& lk,
                     const std::vector<InstallUnit>& plan, Installer by,
                     bool* deferred);

  // Frame bookkeeping: lru_ holds every frame, clean_ the clean ones.
  void Touch(Frame& frame);
  Frame& AddFrame(const PageId& id);  // a clean frame at the MRU end
  void RemoveFrame(std::unordered_map<PageId, Frame, PageIdHash>::iterator it);
  void MarkDirty(Frame& frame);
  void MarkClean(const PageId& id, Frame& frame);

  // Cleaners.
  void CleanerLoop();
  /// True while a cleaner should install: no cleaner error awaits a
  /// client, and the clean and free frames plus the pages cleaners are
  /// writing fall below capacity / 4.
  bool CleanersNeeded() const;
  /// When cleaners are needed and another client is active: starts the
  /// cleaners on first need, or wakes an idle one.
  void WakeCleaners();
  /// The coldest dirty page no install, op or other cleaner holds.
  PageId CleanerVictim() const;
  /// Returns (and clears) a cleaner install's failure.
  Status TakeCleanerError();
  /// Whether a backup of `partition` is in progress (takes its latch in
  /// share mode, as an install's phase 1 does).
  bool BackupActive(PartitionId partition) const;
  /// Decides which vars of the unit need Iw/oF logging given backup
  /// progress (called with the partition backup latch held in share
  /// mode). Appends the pages to identity-write to *to_log.
  void DecideBackupLogging(const InstallUnit& unit,
                           const BackupProgress& progress,
                           std::vector<PageId>* to_log);

  PageStore* const stable_;
  LogManager* const log_;
  const OpRegistry* const registry_;
  const std::unique_ptr<WriteGraph> graph_;
  BackupCoordinator* const coordinator_;  // may be null
  IncrementalTracker* const tracker_;     // may be null
  const CacheOptions options_;

  mutable std::mutex mu_;
  std::function<Status(const PageId&)> page_fault_handler_;
  std::unordered_map<PageId, Frame, PageIdHash> frames_;
  std::list<PageId> lru_;  // front = most recent
  uint64_t lru_clock_ = 0;
  // Clean frames by Frame::stamp, coldest first: an eviction takes the
  // first unpinned one without walking past dirty frames.
  std::map<uint64_t, PageId> clean_;
  CacheStats stats_;

  // Install bookkeeping. While a plan is in phase 2 its nodes are marked
  // here and its pages by Frame::installing: writes to a marked page and
  // installs of a marked node wait on install_cv_ (reads stay allowed —
  // the installing image is frozen). in_apply_ is set while an
  // operation's apply function runs so a nested cache miss never releases
  // the mutex mid-apply (eviction falls back to clean pages or a
  // transient capacity overrun).
  std::unordered_set<uint64_t> installing_nodes_;
  std::condition_variable install_cv_;
  bool in_apply_ = false;

  // Load latches: pages whose miss is in flight with mu_ released or
  // that an operation reserved for a blind write, and how many of those
  // misses run the fault handler. load_cv_ wakes both threads waiting
  // for a page's load and SetPageFaultHandler.
  std::unordered_set<PageId, PageIdHash> loading_;
  uint32_t faults_in_flight_ = 0;
  std::condition_variable load_cv_;

  // Cleaners. active_clients_ counts threads inside ExecuteOp/ReadPage,
  // those waiting for mu_ included (so it is read without mu_ too);
  // cleaning_ holds each busy cleaner's victim, from its choice to the end
  // of its install; a client with no clean frame waits for one of those
  // installs when another client is active, as one of at most
  // cleaning_.size() eviction_waiters_. cleaner_pages_ counts the pages
  // cleaner installs have marked. cleaner_cv_ wakes idle cleaners (and
  // all of them on shutdown).
  std::vector<std::thread> cleaners_;
  std::condition_variable cleaner_cv_;
  std::atomic<uint32_t> active_clients_{0};
  uint32_t idle_cleaners_ = 0;
  size_t eviction_waiters_ = 0;
  size_t cleaner_pages_ = 0;
  std::vector<PageId> cleaning_;
  Status cleaner_error_;
  bool stop_cleaners_ = false;
};

}  // namespace llb

#endif  // LLB_CACHE_CACHE_MANAGER_H_
