#include "db/database.h"

#include "io/durable_cursor.h"
#include "recovery/checkpoint.h"
#include "recovery/general_write_graph.h"
#include "recovery/tree_write_graph.h"

namespace llb {

namespace {

constexpr char kRolePrimary[] = "primary";
constexpr char kRoleStandby[] = "standby";

std::unique_ptr<WriteGraph> MakeGraph(WriteGraphKind kind) {
  switch (kind) {
    case WriteGraphKind::kPageOriented:
      return std::make_unique<PageOrientedWriteGraph>();
    case WriteGraphKind::kGeneral:
      return std::make_unique<GeneralWriteGraph>();
    case WriteGraphKind::kTree:
      return std::make_unique<TreeWriteGraph>();
  }
  return std::make_unique<GeneralWriteGraph>();
}

}  // namespace

Database::Database(Env* env, std::string name, const DbOptions& options)
    : env_(env),
      name_(std::move(name)),
      options_(options),
      coordinator_(options.partitions) {}

Result<std::unique_ptr<Database>> Database::Open(Env* env,
                                                 const std::string& name,
                                                 const DbOptions& options) {
  if (options.partitions == 0 || options.pages_per_partition == 0) {
    return Status::InvalidArgument("database needs >= 1 partition and page");
  }
  std::unique_ptr<Database> db(new Database(env, name, options));
  LLB_RETURN_IF_ERROR(db->Init());
  return db;
}

Result<std::unique_ptr<Database>> Database::OpenRestoring(
    Env* env, const std::string& name, const DbOptions& options,
    const std::string& backup_name) {
  if (options.partitions == 0 || options.pages_per_partition == 0) {
    return Status::InvalidArgument("database needs >= 1 partition and page");
  }
  if (options.standby) {
    return Status::InvalidArgument(
        "instant restore opens a primary; standby catches up by log "
        "shipping instead");
  }
  if (backup_name.empty()) {
    return Status::InvalidArgument("instant restore needs a backup name");
  }
  std::unique_ptr<Database> db(new Database(env, name, options));
  db->restore_backup_name_ = backup_name;
  LLB_RETURN_IF_ERROR(db->Init());
  return db;
}

Status Database::Init() {
  LLB_ASSIGN_OR_RETURN(log_, LogManager::Open(env_, LogName(name_)));
  LLB_ASSIGN_OR_RETURN(
      stable_, PageStore::Open(env_, StableName(name_), options_.partitions));
  CacheOptions cache_options;
  cache_options.capacity_pages = options_.cache_pages;
  cache_options.policy = options_.backup_policy;
  cache_ = std::make_unique<CacheManager>(
      stable_.get(), log_.get(), &registry_, MakeGraph(options_.graph),
      &coordinator_, &tracker_, cache_options);

  if (!restore_backup_name_.empty()) {
    InstantRestoreOptions restore_options;
    restore_options.batch_pages = options_.restore_batch_pages;
    restore_options.step_pages = options_.restore_batch_pages;
    LLB_ASSIGN_OR_RETURN(
        restorer_,
        InstantRestorer::Open(env_, RestoreBitmapName(name_),
                              restore_backup_name_, registry_, stable_.get(),
                              log_.get(), restore_options));
    if (restorer_->partitions() != options_.partitions ||
        restorer_->pages_per_partition() != options_.pages_per_partition) {
      return Status::InvalidArgument(
          "OpenRestoring geometry does not match the backup chain (" +
          std::to_string(restorer_->partitions()) + "x" +
          std::to_string(restorer_->pages_per_partition()) + ")");
    }
    restoring_.store(true, std::memory_order_release);
  } else {
    // A leftover restored-bitmap means an instant restore never finished:
    // parts of S still hold pre-failure garbage. Refuse a plain open —
    // resume via OpenRestoring (or redo the restore offline, which
    // discards the cell).
    Result<std::string> cell =
        DurableCursor::Load(env_, RestoreBitmapName(name_));
    if (cell.ok()) {
      return Status::FailedPrecondition(
          "unfinished instant restore for '" + name_ +
          "'; reopen with OpenRestoring to resume it");
    }
    if (!cell.status().IsNotFound()) return cell.status();
  }

  if (options_.standby) {
    // The durable role file outranks the flag: a standby promoted in a
    // previous incarnation stays a primary across crashes.
    Result<std::string> role = DurableCursor::Load(env_, RoleName(name_));
    if (role.ok()) {
      standby_.store(*role != kRolePrimary, std::memory_order_release);
    } else if (role.status().IsNotFound()) {
      LLB_RETURN_IF_ERROR(
          DurableCursor::Save(env_, RoleName(name_), Slice(kRoleStandby)));
      standby_.store(true, std::memory_order_release);
    } else {
      return role.status();
    }
  }
  return Status::OK();
}

Status Database::RequirePrimary(const char* op) const {
  if (standby_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(std::string(op) +
                                      " refused on a standby (promote first)");
  }
  return Status::OK();
}

Status Database::RequireNotRestoring(const char* op) const {
  if (restoring_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        std::string(op) + " refused during instant restore (finish it first)");
  }
  return Status::OK();
}

Status Database::Recover() {
  if (restoring_.load(std::memory_order_acquire)) {
    // Crash redo for a restoring database: checkpoints predating the
    // media failure anchor in pre-failure cache state and say nothing
    // about the wiped store, so replay everything after the pinned
    // recovery tail instead. Sound over a half-restored store: a record
    // is durable past the tail only if every page it touches is durably
    // restored and marked. Faults restore a page (and set its bit in
    // memory) before its operation appends; the commit barrier saves the
    // bits before the commit writes any record.
    LLB_RETURN_IF_ERROR(restorer_->ResumeRedo());
    if (restorer_->complete()) return FinalizeRestore();
    log_->SetCommitBarrier([this] { return restorer_->SaveBitmap(); });
    cache_->SetPageFaultHandler(
        [this](const PageId& id) { return restorer_->RestoreOnFault(id); });
    return Status::OK();
  }
  Lsn start = 1;
  if (!standby_.load(std::memory_order_acquire)) {
    LLB_ASSIGN_OR_RETURN(start, FindCrashRedoStart(*log_));
  }
  return RunCrashRedo(log_.get(),
                      standby_.load(std::memory_order_acquire)
                          ? RedoTarget::kStandby
                          : RedoTarget::kDatabase,
                      registry_, stable_.get(), start)
      .status();
}

Status Database::Execute(LogRecord* rec) {
  LLB_RETURN_IF_ERROR(RequirePrimary("Execute"));
  return cache_->ExecuteOp(rec);
}

Status Database::ReadPage(const PageId& id, PageImage* out) {
  // Standby reads bypass the cache: the applier writes the stable store
  // directly, so cached images could go stale (and a stale cache would
  // poison the first operations after promotion).
  if (standby_.load(std::memory_order_acquire)) {
    return stable_->ReadPage(id, out);
  }
  return cache_->ReadPage(id, out);
}

Status Database::FlushPage(const PageId& id) {
  LLB_RETURN_IF_ERROR(RequirePrimary("FlushPage"));
  return cache_->FlushPage(id);
}

Status Database::FlushAll() {
  LLB_RETURN_IF_ERROR(RequirePrimary("FlushAll"));
  return cache_->FlushAll();
}

Status Database::Checkpoint() {
  LLB_RETURN_IF_ERROR(RequirePrimary("Checkpoint"));
  // A checkpoint asserts "records before the scan start are installed in
  // S" — false while pages of S still await media recovery.
  LLB_RETURN_IF_ERROR(RequireNotRestoring("Checkpoint"));
  return cache_->Checkpoint();
}

Result<uint64_t> Database::RestoreStep() {
  if (!restoring_.load(std::memory_order_acquire)) return uint64_t{0};
  LLB_ASSIGN_OR_RETURN(uint64_t moved, restorer_->Step());
  if (restorer_->complete()) {
    LLB_RETURN_IF_ERROR(FinalizeRestore());
  }
  return moved;
}

Status Database::FinishRestore() {
  if (!restoring_.load(std::memory_order_acquire)) return Status::OK();
  LLB_RETURN_IF_ERROR(restorer_->Drain());
  return FinalizeRestore();
}

Status Database::FinalizeRestore() {
  cache_->SetPageFaultHandler(nullptr);
  LLB_RETURN_IF_ERROR(cache_->Checkpoint());
  log_->SetCommitBarrier(nullptr);
  LLB_RETURN_IF_ERROR(restorer_->Finalize());
  restoring_.store(false, std::memory_order_release);
  restorer_.reset();
  return Status::OK();
}

RestoreStatus Database::restore_status() const {
  if (!restoring_.load(std::memory_order_acquire)) return RestoreStatus{};
  return restorer_->status();
}

Status Database::Promote() {
  if (!standby_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("Promote: not a standby");
  }
  // Order matters for crash safety (torture sweeps every point here):
  //  1. Checkpoint while still a standby. The cache is empty (Execute was
  //     refused), so the record anchors crash redo at the log tail —
  //     valid because the caller drained replication, i.e. every logged
  //     record is installed in the stable store. Crash after this, before
  //     the role flip: still a standby, redo-from-1 as usual.
  //  2. Durably flip the role file. Crash after: reopen finds "primary"
  //     and anchors redo at the checkpoint from step 1 — exactly right.
  //  3. Only then enable writes in this process.
  LLB_RETURN_IF_ERROR(cache_->Checkpoint());
  LLB_RETURN_IF_ERROR(
      DurableCursor::Save(env_, RoleName(name_), Slice(kRolePrimary)));
  standby_.store(false, std::memory_order_release);
  return Status::OK();
}

Status Database::ForceLog() { return log_->Force(); }

Status Database::TruncateLog(Lsn oldest_backup_start_lsn) {
  LLB_RETURN_IF_ERROR(RequirePrimary("TruncateLog"));
  // The in-flight restore still replays from its chain's start_lsn.
  LLB_RETURN_IF_ERROR(RequireNotRestoring("TruncateLog"));
  Lsn keep_from = cache_->RedoStartLsn();
  if (oldest_backup_start_lsn != kInvalidLsn &&
      oldest_backup_start_lsn < keep_from) {
    keep_from = oldest_backup_start_lsn;
  }
  LLB_RETURN_IF_ERROR(log_->TruncatePrefix(keep_from));
  // Re-anchor crash recovery: the old checkpoint records are gone.
  return cache_->Checkpoint();
}

Result<BackupManifest> Database::TakeBackup(const std::string& backup_name,
                                            uint32_t steps) {
  BackupJobOptions job_options;
  job_options.steps = steps != 0 ? steps : options_.backup_steps;
  job_options.parallel_partitions = options_.parallel_backup;
  job_options.batch_pages = options_.backup_batch_pages;
  job_options.queue_depth = options_.io_queue_depth;
  job_options.sweep_threads = options_.backup_sweep_threads;
  job_options.compress = options_.backup_compress;
  return TakeBackupWithOptions(backup_name, job_options);
}

Result<BackupManifest> Database::TakeBackupWithOptions(
    const std::string& backup_name, const BackupJobOptions& job_options,
    BackupJobStats* stats_out) {
  LLB_RETURN_IF_ERROR(RequirePrimary("TakeBackup"));
  // Backing up a store whose pages partly predate the media failure
  // would capture garbage with a manifest that claims otherwise.
  LLB_RETURN_IF_ERROR(RequireNotRestoring("TakeBackup"));
  // The media recovery log scan start point is the crash recovery log
  // scan start point at the time backup begins (paper 1.2). The log up to
  // here must be durable so a media recovery never misses operations.
  Lsn start_lsn = cache_->RedoStartLsn();
  LLB_RETURN_IF_ERROR(log_->Force());

  // Clear the change tracker at backup start: anything flushed during the
  // sweep is conservatively counted as changed for the next incremental.
  tracker_.SnapshotAndClear();

  // Every Database-driven job runs on the persistent pool: zero
  // transient threads per backup (stats().threads_spawned == 0).
  BackupJobOptions effective = job_options;
  if (effective.pool == nullptr) effective.pool = &sweep_pool_;

  // Register the generation CREATING in the catalog before the sweep
  // moves anything; the entry stays CREATING across a failed (resumable)
  // run and flips COMPLETE only once the finished manifest is durable.
  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  if (effective.compress && effective.dedup_base.empty()) {
    // Default dedup target: the newest complete FULL generation (an
    // incremental's store has holes, so a ref into it could read a
    // missing slot).
    const BackupGeneration* pick = nullptr;
    for (const BackupGeneration& g : catalog.generations()) {
      if (g.state != BackupState::kComplete || g.incremental) continue;
      if (g.name == backup_name) continue;
      if (pick == nullptr || g.id > pick->id) pick = &g;
    }
    if (pick != nullptr) effective.dedup_base = pick->name;
  }
  LLB_RETURN_IF_ERROR(
      catalog
          .Begin(backup_name, /*incremental=*/false, /*base_name=*/"",
                 effective.compress ? effective.dedup_base : "", start_lsn,
                 effective.compress ? uint8_t{1} : uint8_t{0})
          .status());

  BackupJob job(env_, stable_.get(), &coordinator_, log_.get(),
                options_.pages_per_partition, effective);
  Result<BackupManifest> manifest = job.Run(backup_name, start_lsn);
  if (stats_out != nullptr) *stats_out = job.stats();
  if (!manifest.ok()) return manifest.status();
  LLB_RETURN_IF_ERROR(catalog.Complete(backup_name, manifest->end_lsn,
                                       manifest->raw_bytes,
                                       manifest->stored_bytes));
  ++backups_taken_;
  backup_pages_copied_ += job.stats().pages_copied;
  backup_fence_updates_ += job.stats().fence_updates;
  return manifest;
}

Result<BackupManifest> Database::ResumeBackup(
    const std::string& backup_name, const BackupJobOptions& job_options,
    BackupJobStats* stats_out) {
  LLB_RETURN_IF_ERROR(RequirePrimary("ResumeBackup"));
  LLB_RETURN_IF_ERROR(RequireNotRestoring("ResumeBackup"));
  BackupJobOptions effective = job_options;
  if (effective.pool == nullptr) effective.pool = &sweep_pool_;
  BackupJob job(env_, stable_.get(), &coordinator_, log_.get(),
                options_.pages_per_partition, effective);
  Result<BackupManifest> manifest = job.Resume(backup_name);
  if (stats_out != nullptr) *stats_out = job.stats();
  if (!manifest.ok()) return manifest.status();
  // A resumed generation completes in the catalog too. Pre-catalog
  // resumable backups have no entry — nothing to flip.
  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  if (catalog.Find(backup_name) != nullptr) {
    LLB_RETURN_IF_ERROR(catalog.Complete(backup_name, manifest->end_lsn,
                                         manifest->raw_bytes,
                                         manifest->stored_bytes));
  }
  ++backups_taken_;
  backup_pages_copied_ += job.stats().pages_copied;
  backup_fence_updates_ += job.stats().fence_updates;
  return manifest;
}

Result<std::vector<BackupGeneration>> Database::ListBackups() {
  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  return catalog.generations();
}

Result<std::vector<std::string>> Database::PruneBackups(
    const BackupRetentionPolicy& policy) {
  LLB_RETURN_IF_ERROR(RequirePrimary("PruneBackups"));
  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  // Pin the chain an in-flight instant restore reads from: its carriers
  // must survive until the restore finishes, whatever the policy says.
  std::vector<std::string> pinned;
  if (restoring_.load(std::memory_order_acquire) &&
      !restore_backup_name_.empty()) {
    pinned.push_back(restore_backup_name_);
  }
  return catalog.Prune(policy, pinned);
}

Status Database::CancelBackup(const std::string& backup_name) {
  LLB_RETURN_IF_ERROR(RequirePrimary("CancelBackup"));
  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  return catalog.Cancel(backup_name);
}

Result<ScrubReport> Database::VerifyBackup(const std::string& backup_name) {
  BackupScrubber scrubber(env_, ScrubOptions{});
  return scrubber.Scrub(backup_name);
}

Result<ScrubReport> Database::ScrubBackup(const std::string& backup_name) {
  LLB_RETURN_IF_ERROR(RequirePrimary("ScrubBackup"));
  LLB_RETURN_IF_ERROR(RequireNotRestoring("ScrubBackup"));
  ScrubOptions scrub_options;
  scrub_options.repair = true;
  scrub_options.stable = stable_.get();
  scrub_options.log = log_.get();
  scrub_options.registry = &registry_;
  scrub_options.coordinator = &coordinator_;
  scrub_options.install_current = [this](const PageId& id) {
    return cache_->FlushPage(id);
  };
  BackupScrubber scrubber(env_, scrub_options);
  return scrubber.Scrub(backup_name);
}

Result<MediaRecoveryReport> Database::RestoreFromBackup(
    Env* env, const std::string& name, const std::string& backup_name,
    const OpRegistry& registry, const RestoreOptions& options) {
  LLB_ASSIGN_OR_RETURN(
      MediaRecoveryReport report,
      RestoreFromBackupWithOptions(env, StableName(name), LogName(name),
                                   backup_name, registry, options));
  // A full offline restore supersedes any half-finished instant restore:
  // drop its bitmap so plain opens stop refusing.
  if (!options.partition_only) {
    LLB_RETURN_IF_ERROR(
        DurableCursor::Remove(env, RestoreBitmapName(name)));
  }
  return report;
}

Result<MediaRecoveryReport> Database::RestoreToLsn(
    Env* env, const std::string& name, Lsn target, const OpRegistry& registry,
    const RestoreOptions& options) {
  // Resolve candidates through the database's catalog by default so a
  // half-pruned chain (crash between the durable PRUNED mark and the
  // file sweep) is never picked. Pre-catalog databases load an empty
  // catalog, which vetoes nothing.
  RestoreOptions effective = options;
  if (effective.catalog_file.empty()) {
    effective.catalog_file = CatalogName(name);
  }
  return RestoreToPointInTime(env, StableName(name), LogName(name), target,
                              registry, effective);
}

Result<BackupManifest> Database::TakeIncrementalBackup(
    const std::string& backup_name, const std::string& base_name,
    uint32_t steps) {
  LLB_RETURN_IF_ERROR(RequirePrimary("TakeIncrementalBackup"));
  LLB_RETURN_IF_ERROR(RequireNotRestoring("TakeIncrementalBackup"));
  BackupJobOptions job_options;
  job_options.steps = steps != 0 ? steps : options_.backup_steps;
  job_options.parallel_partitions = options_.parallel_backup;
  job_options.batch_pages = options_.backup_batch_pages;
  job_options.queue_depth = options_.io_queue_depth;
  job_options.sweep_threads = options_.backup_sweep_threads;
  job_options.compress = options_.backup_compress;
  job_options.pool = &sweep_pool_;

  Lsn start_lsn = cache_->RedoStartLsn();
  LLB_RETURN_IF_ERROR(log_->Force());

  LLB_ASSIGN_OR_RETURN(BackupCatalog catalog,
                       BackupCatalog::Open(env_, CatalogName(name_)));
  LLB_RETURN_IF_ERROR(catalog
                          .Begin(backup_name, /*incremental=*/true, base_name,
                                 /*dedup_base=*/"", start_lsn,
                                 job_options.compress ? uint8_t{1}
                                                      : uint8_t{0})
                          .status());

  std::vector<PageId> changed = tracker_.SnapshotAndClear();

  BackupJob job(env_, stable_.get(), &coordinator_, log_.get(),
                options_.pages_per_partition, job_options);
  LLB_ASSIGN_OR_RETURN(
      BackupManifest manifest,
      job.RunIncremental(backup_name, base_name, start_lsn,
                         std::move(changed)));
  LLB_RETURN_IF_ERROR(catalog.Complete(backup_name, manifest.end_lsn,
                                       manifest.raw_bytes,
                                       manifest.stored_bytes));
  ++backups_taken_;
  backup_pages_copied_ += job.stats().pages_copied;
  backup_fence_updates_ += job.stats().fence_updates;
  return manifest;
}

DbStats Database::GatherStats() const {
  DbStats stats;
  stats.cache = cache_->stats();
  stats.log = log_->stats();
  stats.graph = cache_->GraphStats();
  stats.backups_taken = backups_taken_;
  stats.backup_pages_copied = backup_pages_copied_;
  stats.backup_fence_updates = backup_fence_updates_;
  stats.durable_epoch = log_->durable_epoch();
  stats.open_epoch = log_->CurrentEpoch();
  return stats;
}

void Database::ResetStats() {
  cache_->ResetStats();
  log_->ResetStats();
}

}  // namespace llb
