#ifndef LLB_DB_DATABASE_H_
#define LLB_DB_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "backup/backup_catalog.h"
#include "backup/backup_job.h"
#include "backup/backup_progress.h"
#include "backup/backup_scrubber.h"
#include "backup/backup_store.h"
#include "backup/incremental_tracker.h"
#include "cache/cache_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "db/stats.h"
#include "io/env.h"
#include "ops/op_registry.h"
#include "recovery/instant_restore.h"
#include "recovery/media_recovery.h"
#include "recovery/redo.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"

namespace llb {

/// Which write graph governs flush ordering. Pick the narrowest class
/// that covers the operations a workload logs — narrower classes need
/// less backup-time logging (the paper's central trade-off).
enum class WriteGraphKind {
  /// Physical/physiological single-page operations only. No flush-order
  /// constraints (paper 1.1).
  kPageOriented,
  /// Arbitrary logical operations (paper 2.4/3).
  kGeneral,
  /// Tree operations: page-oriented plus write-new (paper 4).
  kTree,
};

struct DbOptions {
  uint32_t partitions = 1;
  uint32_t pages_per_partition = 1024;
  size_t cache_pages = 256;
  WriteGraphKind graph = WriteGraphKind::kGeneral;
  BackupPolicy backup_policy = BackupPolicy::kGeneral;
  uint32_t backup_steps = 8;
  bool parallel_backup = false;
  /// Pages per backup sweep IO (see BackupJobOptions::batch_pages).
  uint32_t backup_batch_pages = 1;
  /// No-op, kept declared only because the benchmark harness still reads
  /// it; it goes with the next benchmark change (see
  /// BackupJobOptions::pipelined).
  bool backup_pipelined = false;
  /// Concurrent sweep workers for backups driven through this database
  /// (see BackupJobOptions::sweep_threads). Workers come from the
  /// database's persistent SweepThreadPool, created lazily and reused
  /// across all backup runs — no per-backup thread churn. 1 = serial
  /// sweep.
  uint32_t backup_sweep_threads = 1;
  /// Pages per bulk device IO while an instant restore runs under this
  /// database: closure seeding from backup carriers and installs into S
  /// (see InstantRestoreOptions::batch_pages). Irrelevant outside
  /// OpenRestoring.
  uint32_t restore_batch_pages = 32;
  /// Runs in flight per worker for every bulk transfer this database
  /// drives — backup sweeps, instant-restore seeding and installs (see
  /// TransferOptions::queue_depth), through Env::OpenAsync (io_uring
  /// where the kernel grants it, the portable thread pool elsewhere).
  /// <= 1 moves one run at a time.
  uint32_t io_queue_depth = 0;
  /// Number of per-thread WAL append channels (LogManagerOptions::
  /// channels) of epoch-based group commit. Every count, including 1,
  /// runs the same path: flush decisions wait on the epoch watermark
  /// instead of forcing inline, and installs overlap their durability
  /// wait + stable write with concurrent updaters. More channels only
  /// spread append-lock contention; the log file's bytes are the same.
  uint32_t log_channels = 1;
  /// When >0, a background advancer group-commits every interval and
  /// waiters block on the watermark; 0 means the first durability
  /// waiter leads the commit and concurrent waiters piggyback on its
  /// single sync.
  uint32_t group_commit_interval_us = 0;
  /// Write backups in store format v2: page-content compression (RLE),
  /// zero-page frames, and dedup refs against the newest complete full
  /// generation (io/backup_codec.h). Restore, scrub and instant restore
  /// auto-detect the format per page, so v1 and v2 generations mix
  /// freely in one chain.
  bool backup_compress = false;
  /// Open as a warm standby: mutating entry points (Execute, flushes,
  /// checkpoints, backups) are refused, reads bypass the cache, and the
  /// log is fed by a StandbyApplier replaying shipped segments. The role
  /// is remembered durably in "<name>.role": a standby that was promoted
  /// reopens writable even when this flag is still set.
  bool standby = false;
};

/// The storage engine facade: stable database + recovery log + cache
/// manager + write graph + backup machinery, wired together.
///
/// Lifecycle:
///   1. Database::Open
///   2. register domain operations (e.g. RegisterBtreeOps(db->registry()))
///   3. db->Recover()  — crash redo; a no-op on a fresh database
///   4. execute operations / take backups
///
/// Crash simulation: MemEnv::CrashAndRestart() then reopen (steps 1-3).
/// Media recovery: destroy/corrupt the stable store while closed, then
/// RestoreFromBackup(...) and reopen.
class Database {
 public:
  static Result<std::unique_ptr<Database>> Open(Env* env,
                                                const std::string& name,
                                                const DbOptions& options);

  /// Instant restore: opens the database over a wiped (or half-restored)
  /// stable store and serves transactions immediately while media
  /// recovery from `backup_name`'s chain proceeds underneath. A page
  /// fault on a not-yet-restored page restores its influence closure on
  /// demand; RestoreStep / FinishRestore drive the background sweep that
  /// fills in the rest. Progress survives crashes via a durable
  /// restored-bitmap ("<name>.rbm") — reopen with OpenRestoring to
  /// resume. Refused with options.standby set. Call Recover() after
  /// registering domain operations, exactly like a normal open.
  static Result<std::unique_ptr<Database>> OpenRestoring(
      Env* env, const std::string& name, const DbOptions& options,
      const std::string& backup_name);

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Crash recovery: redo from the last checkpoint's scan start. Must be
  /// called after all domain operations are registered.
  ///
  /// In standby mode redo runs from LSN 1 instead: checkpoint records
  /// shipped from the primary anchor redo in the PRIMARY's cache state
  /// ("records before X are installed over there"), which says nothing
  /// about what this standby has flushed. Replaying the whole retained
  /// log is always sound (the per-page LSN test skips what is already
  /// installed).
  Status Recover();

  /// Executes one logged operation (see CacheManager::ExecuteOp).
  Status Execute(LogRecord* rec);

  /// Reads the current image of a page through the cache.
  Status ReadPage(const PageId& id, PageImage* out);

  /// Installs the node owning the page (respecting flush order).
  Status FlushPage(const PageId& id);

  /// Flushes everything and forces the log.
  Status FlushAll();

  /// Writes a fuzzy checkpoint record.
  Status Checkpoint();

  /// Forces the log (for tests that need buffered records durable).
  Status ForceLog();

  /// Reclaims log space: drops every record no recovery path can need —
  /// records below both the current crash-redo scan start and
  /// `oldest_backup_start_lsn` (the start_lsn of the oldest backup that
  /// should remain restorable; pass kInvalidLsn if no backup is kept).
  /// Writes a fresh checkpoint afterwards.
  Status TruncateLog(Lsn oldest_backup_start_lsn);

  /// Takes a full on-line backup. Safe to call from a separate thread
  /// while operations execute. `steps` overrides options.backup_steps
  /// when nonzero.
  Result<BackupManifest> TakeBackup(const std::string& backup_name,
                                    uint32_t steps = 0);

  /// Full control over the job (step count, parallelism, retry policy,
  /// mid-step hook). `stats_out`, when non-null, receives the job's
  /// stats — also filled in when the job fails, so an aborted sweep's
  /// fault counts remain observable.
  Result<BackupManifest> TakeBackupWithOptions(
      const std::string& backup_name, const BackupJobOptions& job,
      BackupJobStats* stats_out = nullptr);

  /// Takes an incremental backup of pages changed since the previous
  /// backup, chained to `base_name`.
  Result<BackupManifest> TakeIncrementalBackup(const std::string& backup_name,
                                               const std::string& base_name,
                                               uint32_t steps = 0);

  /// Continues an aborted resumable backup from its persisted cursor
  /// (see BackupJob::Resume). `stats_out`, when non-null, receives the
  /// resumed job's stats (retries, pages skipped, ...).
  Result<BackupManifest> ResumeBackup(const std::string& backup_name,
                                      const BackupJobOptions& job_options = {},
                                      BackupJobStats* stats_out = nullptr);

  /// The catalog's view of every backup generation of this database:
  /// ids, chain edges, states, validity LSNs, size accounting.
  Result<std::vector<BackupGeneration>> ListBackups();

  /// Applies a retention policy to the catalog: durably marks every
  /// unprotected COMPLETE generation PRUNED, then deletes the files of
  /// all PRUNED/CANCELLED generations. Never breaks a retained chain
  /// (base + dedup closure) and pins the chain an in-flight instant
  /// restore reads from. Returns the names newly pruned.
  Result<std::vector<std::string>> PruneBackups(
      const BackupRetentionPolicy& policy);

  /// Durably abandons a CREATING generation (e.g. after a crash when the
  /// sweep cursor is gone): flips it CANCELLED so the next PruneBackups
  /// sweeps its leftover files.
  Status CancelBackup(const std::string& backup_name);

  /// Verifies every page checksum and the manifest chain of a finished
  /// backup. Read-only: never mutates the backup, S, or the log.
  Result<ScrubReport> VerifyBackup(const std::string& backup_name);

  /// Verify plus repair: bad backup pages are re-copied from S under the
  /// fence protocol (identity write first), or rebuilt from the log when
  /// S is bad too (healing S as a side effect). Run quiesced — see
  /// BackupScrubber's repair caveats.
  Result<ScrubReport> ScrubBackup(const std::string& backup_name);

  /// Offline media recovery for the database called `name`: restores S
  /// from `backup_name`'s chain (base + incrementals, coalesced) and
  /// rolls the log forward. `registry` must hold the same operations the
  /// database logs with. Must NOT run while a Database over `name` is
  /// open — media recovery owns the store files. RestoreOptions carries
  /// the bulk-transfer knobs (batch_pages / queue_depth / threads) and the
  /// point-in-time / single-partition targets.
  static Result<MediaRecoveryReport> RestoreFromBackup(
      Env* env, const std::string& name, const std::string& backup_name,
      const OpRegistry& registry, const RestoreOptions& options = {});

  /// Point-in-time restore: rebuilds the database as of exactly `target`
  /// by picking the newest retained backup chain whose end LSN does not
  /// exceed the target, then rolling the log forward only through
  /// `target` (discarding the suffix). Refuses targets past the durable
  /// log tail, targets older than every retained backup, and targets
  /// that cut a multi-record atomic group (e.g. a B-tree split) in half
  /// — except the exact durable tail, which equals a plain restore. Same
  /// offline contract as RestoreFromBackup.
  static Result<MediaRecoveryReport> RestoreToLsn(
      Env* env, const std::string& name, Lsn target,
      const OpRegistry& registry, const RestoreOptions& options = {});

  /// True while operating as a warm standby (not yet promoted).
  bool standby() const { return standby_.load(std::memory_order_acquire); }

  /// True while an instant restore is still in flight under this
  /// database (faults restore on demand; backups/checkpoints refused).
  bool restoring() const { return restoring_.load(std::memory_order_acquire); }

  /// Runs one background restore sweep step (up to
  /// options.restore_batch_pages seed pages plus their closures),
  /// yielding to concurrent page faults. Returns pages durably restored;
  /// finalizes the restore automatically once every page is in. OK(0)
  /// when not restoring.
  Result<uint64_t> RestoreStep();

  /// Drives the background sweep to completion and finalizes: fault
  /// handler detached, a checkpoint written (re-anchoring crash redo now
  /// that checkpoint-based recovery is sound again), and the
  /// restored-bitmap removed. Idempotent; OK when not restoring.
  Status FinishRestore();

  /// Progress snapshot of the in-flight restore (all-zero, restoring =
  /// false once finished).
  RestoreStatus restore_status() const;

  /// Promotes a standby to a writable primary: writes a checkpoint
  /// anchoring crash redo at the promotion point, durably flips the role
  /// file, and re-enables the mutating entry points. The caller must
  /// have fully drained replication first (StandbyApplier::Drain until
  /// the lag is zero) — the checkpoint asserts that everything in the
  /// local log is installed in the stable store.
  Status Promote();

  OpRegistry* registry() { return &registry_; }
  /// The persistent worker pool every Database-driven backup runs on
  /// (partition sweepers). Starts empty; jobs grow
  /// it to what they need and the threads persist for the next backup.
  SweepThreadPool* sweep_pool() { return &sweep_pool_; }
  CacheManager* cache() { return cache_.get(); }
  LogManager* log() { return log_.get(); }
  PageStore* stable() { return stable_.get(); }
  BackupCoordinator* coordinator() { return &coordinator_; }
  Env* env() { return env_; }
  const DbOptions& options() const { return options_; }
  const std::string& name() const { return name_; }

  /// Conventional store/log names for a database called `name`.
  static std::string StableName(const std::string& name) {
    return name + ".stable";
  }
  static std::string LogName(const std::string& name) { return name + ".log"; }
  static std::string RoleName(const std::string& name) {
    return name + ".role";
  }
  /// Durable restored-bitmap cell of an in-flight instant restore.
  static std::string RestoreBitmapName(const std::string& name) {
    return name + ".rbm";
  }
  /// Durable backup catalog cell (see BackupCatalog).
  static std::string CatalogName(const std::string& name) {
    return BackupCatalog::FileName(name);
  }

  DbStats GatherStats() const;
  void ResetStats();

 private:
  Database(Env* env, std::string name, const DbOptions& options);

  Status Init();
  Status RequirePrimary(const char* op) const;
  Status RequireNotRestoring(const char* op) const;
  /// Final restore handshake; requires the restorer complete. Ordered
  /// for crash safety: detach the fault handler (cache mutex excludes
  /// in-flight faults), checkpoint, remove the bitmap cell, clear the
  /// flag. A crash anywhere in between reopens via OpenRestoring with a
  /// full bitmap and finalizes again — idempotent.
  Status FinalizeRestore();

  Env* const env_;
  const std::string name_;
  const DbOptions options_;

  OpRegistry registry_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageStore> stable_;
  BackupCoordinator coordinator_;
  IncrementalTracker tracker_;
  std::unique_ptr<CacheManager> cache_;
  /// Declared after the stores it sweeps: destroyed first, and idle by
  /// then (every job joins its futures before returning).
  SweepThreadPool sweep_pool_;

  /// Standby role flag: written by Init/Promote, read by every mutating
  /// entry point (possibly from other threads).
  std::atomic<bool> standby_{false};

  /// Instant-restore state: the backup chain head OpenRestoring was given
  /// (empty on a plain open), the flag the gates read, and the restorer
  /// (alive exactly while restoring_ is true).
  std::string restore_backup_name_;
  std::atomic<bool> restoring_{false};
  std::unique_ptr<InstantRestorer> restorer_;

  /// Atomics: updated by whichever thread runs a backup, read by
  /// GatherStats from concurrent foreground/monitoring threads.
  std::atomic<uint64_t> backups_taken_{0};
  std::atomic<uint64_t> backup_pages_copied_{0};
  std::atomic<uint64_t> backup_fence_updates_{0};
};

}  // namespace llb

#endif  // LLB_DB_DATABASE_H_
