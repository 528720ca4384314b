#include "torture/crash_sweeper.h"

#include <algorithm>
#include <string>
#include <vector>

#include "backup/backup_catalog.h"
#include "btree/btree.h"
#include "common/random.h"
#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "io/faulty_env.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "torture/torture_util.h"

namespace llb {

using torture::ArchiveLog;
using torture::ClearRestoreMarker;
using torture::kRestoreMarker;
using torture::OfflinePitr;
using torture::OfflineRestore;
using torture::SetRestoreMarker;
using torture::VerifyDbAgainstOwnLog;
using torture::VerifyOpenDb;
using torture::VerifyStableOffline;
using torture::WipeStable;

namespace {

/// Backup names every scenario uses, so salvage knows what to look for.
constexpr char kFullName[] = "tbk_full";
constexpr char kIncrName[] = "tbk_incr";
/// Second full generation of the kCatalogPrune scenario (the retention
/// survivor whose dedup edge pins kFullName).
constexpr char kFull2Name[] = "tbk_full2";

/// Spool prefix for kLogShipping frame files ("ship.f<seq>").
constexpr char kShipPrefix[] = "ship";

/// The update activity a scenario interleaves with its backup pipeline.
/// Deterministic for a given seed and call sequence.
class ScenarioWorkload {
 public:
  virtual ~ScenarioWorkload() = default;
  virtual Status Setup() = 0;
  virtual Status Update(uint32_t steps) = 0;
  /// Logs at least `bytes` of log records, then installs them.
  virtual Status BulkLog(uint64_t bytes) {
    (void)bytes;
    return Status::InvalidArgument("bulk logging needs the general graph");
  }
};

/// Logically-split B-tree inserts (tree operations, BackupPolicy::kTree).
class BtreeScenarioWorkload : public ScenarioWorkload {
 public:
  BtreeScenarioWorkload(Database* db, uint64_t seed)
      : db_(db),
        tree_(db, /*partition=*/0, /*meta_page=*/0, SplitLogging::kLogical),
        next_(seed * 31) {}

  Status Setup() override { return tree_.Create(); }

  Status Update(uint32_t steps) override {
    for (uint32_t i = 0; i < steps; ++i, ++next_) {
      int64_t key = static_cast<int64_t>((next_ * 53) % 4001);
      LLB_RETURN_IF_ERROR(tree_.Insert(key, Slice("t")));
      if (next_ % 5 == 4) LLB_RETURN_IF_ERROR(db_->FlushAll());
    }
    return db_->FlushAll();
  }

 private:
  Database* const db_;
  BTree tree_;
  uint64_t next_;
};

/// General logical operations: one-page file Copy (logging only operand
/// ids) plus in-place Transforms (BackupPolicy::kGeneral). With
/// `write_back` every page starts populated, nothing is flushed
/// explicitly (dirty evictions do it), and a copy's source is often
/// transformed right after, so evictions meet copy -> overwrite pairs
/// (two write-graph levels); every fourth such transform rewrites the
/// copy's target with it, a two-page node installed through identity
/// writes of both pages.
/// Whether the random pairs reach an eviction batch together depends on
/// the seed, so the set-up scripts both shapes first. With `pairs` (and
/// no `write_back`) every third step transforms a copy's source and
/// target together instead of its target alone: a two-page node, which
/// a standby's replay must write through identity writes of its own.
class GeneralScenarioWorkload : public ScenarioWorkload {
 public:
  GeneralScenarioWorkload(Database* db, uint32_t num_pages, uint64_t seed,
                          bool write_back = false, bool pairs = false)
      : db_(db),
        files_(db, /*partition=*/0, /*base_page=*/0, /*pages_per_file=*/1,
               num_pages),
        rng_(seed),
        num_pages_(num_pages),
        write_back_(write_back),
        pairs_(pairs) {}

  Status Setup() override {
    const uint32_t files = write_back_ ? num_pages_ : 4;
    for (uint32_t f = 0; f < files && f < num_pages_; ++f) {
      LLB_RETURN_IF_ERROR(
          files_.WriteValues(f, {static_cast<int64_t>(f) + 7, 3, 11}));
    }
    LLB_RETURN_IF_ERROR(db_->FlushAll());
    if (!write_back_) return Status::OK();
    // A copy, an overwrite of its source, a two-page transform, then one
    // write to every other page: the cache fills with dirty pages behind
    // them, and the first dirty evictions take the copy's target with its
    // overwritten source, a batch written in two levels, and the
    // two-page node, installed through identity writes.
    LLB_RETURN_IF_ERROR(files_.Copy(0, 1));
    LLB_RETURN_IF_ERROR(files_.Transform(0, /*seed=*/1));
    LogRecord pair = MakeFileTransform(
        {files_.PagesOf(2)[0], files_.PagesOf(3)[0]}, /*seed=*/1);
    LLB_RETURN_IF_ERROR(db_->Execute(&pair));
    for (uint32_t f = 2; f < num_pages_; ++f) {
      LLB_RETURN_IF_ERROR(files_.WriteValues(f, {static_cast<int64_t>(f), 5}));
    }
    return Status::OK();
  }

  Status Update(uint32_t steps) override {
    for (uint32_t i = 0; i < steps; ++i) {
      uint32_t src = static_cast<uint32_t>(rng_.Uniform(num_pages_));
      uint32_t dst = static_cast<uint32_t>(rng_.Uniform(num_pages_));
      if (dst == src) dst = (dst + 1) % num_pages_;
      LLB_RETURN_IF_ERROR(files_.Copy(src, dst));
      if (write_back_) {
        if (i % 8 == 7) {
          LogRecord pair = MakeFileTransform(
              {files_.PagesOf(src)[0], files_.PagesOf(dst)[0]}, rng_.Next());
          LLB_RETURN_IF_ERROR(db_->Execute(&pair));
        } else if (i % 2 == 1) {
          LLB_RETURN_IF_ERROR(files_.Transform(src, rng_.Next()));
        }
        continue;
      }
      LLB_RETURN_IF_ERROR(db_->FlushPage(files_.PagesOf(dst)[0]));
      if (i % 3 == 2 && pairs_) {
        LogRecord pair = MakeFileTransform(
            {files_.PagesOf(src)[0], files_.PagesOf(dst)[0]}, rng_.Next());
        LLB_RETURN_IF_ERROR(db_->Execute(&pair));
      } else if (i % 3 == 2) {
        LLB_RETURN_IF_ERROR(files_.Transform(dst, rng_.Next()));
      }
    }
    return write_back_ ? Status::OK() : db_->FlushAll();
  }

  Status BulkLog(uint64_t bytes) override {
    // Each write fills the first page, so its record carries at least
    // kRecordsPerPage 8-byte values: the page stays cached and dirty, and
    // the records reach the log in one group commit when the flush
    // installs it.
    std::vector<int64_t> values(file_page::kRecordsPerPage, 5);
    for (uint64_t logged = 0; logged < bytes; logged += 8 * values.size()) {
      values[0] = static_cast<int64_t>(logged);
      LLB_RETURN_IF_ERROR(files_.WriteValues(0, values));
    }
    return db_->FlushAll();
  }

 private:
  Database* const db_;
  FileStore files_;
  Random rng_;
  const uint32_t num_pages_;
  const bool write_back_;
  const bool pairs_;
};

}  // namespace

const char* ScenarioKindName(ScenarioKind kind) {
  switch (kind) {
    case ScenarioKind::kBackup:
      return "backup";
    case ScenarioKind::kResume:
      return "resume";
    case ScenarioKind::kScrub:
      return "scrub";
    case ScenarioKind::kRestore:
      return "restore";
    case ScenarioKind::kBatchedBackup:
      return "batched";
    case ScenarioKind::kParallelBackup:
      return "parallel";
    case ScenarioKind::kParallelRestore:
      return "restore-parallel";
    case ScenarioKind::kLogShipping:
      return "log-shipping";
    case ScenarioKind::kInstantRestore:
      return "instant-restore";
    case ScenarioKind::kCatalogPrune:
      return "catalog";
    case ScenarioKind::kWriteBack:
      return "write-back";
    case ScenarioKind::kLogTruncate:
      return "log-truncate";
  }
  return "unknown";
}

std::string CrashSweepReport::ToString() const {
  return "events=" + std::to_string(total_events) +
         " points=" + std::to_string(points_tested) +
         " nested=" + std::to_string(nested_points_tested) +
         " recoveries=" + std::to_string(recoveries_verified) +
         " backups=" + std::to_string(backups_verified) +
         " scrub_repairs=" + std::to_string(salvage_scrub_repairs) +
         " restores=" + std::to_string(salvage_restores);
}

DbOptions CrashSweeper::MakeDbOptions() const {
  DbOptions options;
  options.partitions = scenario_.partitions;
  options.pages_per_partition = scenario_.pages_per_partition;
  options.cache_pages = scenario_.cache_pages;
  options.graph = scenario_.graph;
  options.backup_policy = scenario_.graph == WriteGraphKind::kTree
                              ? BackupPolicy::kTree
                              : BackupPolicy::kGeneral;
  options.backup_steps = scenario_.backup_steps;
  options.backup_batch_pages = scenario_.batch_pages;
  options.io_queue_depth = scenario_.queue_depth;
  options.backup_sweep_threads = scenario_.sweep_threads;
  if (scenario_.kind == ScenarioKind::kInstantRestore) {
    // Small background steps so the sweep and the faulting workload
    // genuinely interleave on CI-sized scenarios (one big step would
    // restore everything before the second workload round).
    options.restore_batch_pages = 8;
  }
  if (scenario_.kind == ScenarioKind::kCatalogPrune) {
    // Format-v2 stores so the sweep also covers the encode path and the
    // dedup-edge protection rule (the second full refs the first).
    options.backup_compress = true;
  }
  return options;
}

namespace {

std::unique_ptr<ScenarioWorkload> MakeWorkload(Database* db,
                                               const ScenarioOptions& s) {
  if (s.graph == WriteGraphKind::kTree) {
    return std::make_unique<BtreeScenarioWorkload>(db, s.seed);
  }
  if (s.kind == ScenarioKind::kWriteBack) {
    // Every page of the partition, so the working set outgrows the cache.
    return std::make_unique<GeneralScenarioWorkload>(
        db, s.pages_per_partition, s.seed, /*write_back=*/true);
  }
  return std::make_unique<GeneralScenarioWorkload>(
      db, std::min<uint32_t>(s.pages_per_partition, 24), s.seed,
      /*write_back=*/false, /*pairs=*/s.kind == ScenarioKind::kLogShipping);
}

/// The RestoreOptions every off-line restore of this scenario uses —
/// including salvage restores after a crash, so crash-during-restore
/// coverage exercises the same transfer configuration the scenario
/// targets. Pre-existing scenarios restore one page per run;
/// kParallelRestore turns on batched runs, queue_depth, and >= 2
/// workers.
RestoreOptions RestoreOptionsForScenario(const ScenarioOptions& s) {
  RestoreOptions options;
  if (s.kind == ScenarioKind::kParallelRestore) {
    options.batch_pages = std::max<uint32_t>(2, s.batch_pages);
    options.queue_depth = s.queue_depth;
    options.threads = std::max<uint32_t>(2, s.sweep_threads);
  } else {
    options.batch_pages = 1;
  }
  return options;
}

/// True iff a backup called `name` finished before the crash (a torn
/// final manifest save reverts to the durable incomplete version, so a
/// load failure here is a real error, not a crash artifact).
Result<bool> ChainComplete(TortureEngine* e, const std::string& name) {
  if (!e->env.FileExists(name + ".manifest")) return false;
  Result<BackupManifest> manifest = BackupManifest::Load(&e->env, name);
  if (!manifest.ok()) {
    // A crash before the manifest's first durable save leaves the file
    // present but with its contents reverted to nothing (MemEnv keeps
    // file existence across crashes, not unsynced bytes): the backup
    // never completed. Real IO failures still propagate.
    if (manifest.status().IsCorruption()) return false;
    return manifest.status();
  }
  return manifest->complete;
}

/// Verifies every completed backup chain end to end: scrub-verify (with
/// repair when the crash left injected rot unrepaired), then a full
/// off-line media recovery checked against the oracle. Leaves the engine
/// open. Incomplete backups are deliberately ignored: Resume's fence
/// precondition does not survive a process crash.
Status VerifyCompletedChains(TortureEngine* e, const RestoreOptions& restore,
                             CrashSweepReport* report) {
  LLB_ASSIGN_OR_RETURN(bool incr_ok, ChainComplete(e, kIncrName));
  std::string chain;
  if (incr_ok) {
    chain = kIncrName;
  } else {
    LLB_ASSIGN_OR_RETURN(bool full_ok, ChainComplete(e, kFullName));
    if (full_ok) chain = kFullName;
  }
  if (chain.empty()) return Status::OK();

  LLB_ASSIGN_OR_RETURN(ScrubReport verify, e->db->VerifyBackup(chain));
  if (!verify.clean()) {
    LLB_ASSIGN_OR_RETURN(ScrubReport repair, e->db->ScrubBackup(chain));
    if (!repair.fully_repaired()) {
      return Status::Internal("salvage scrub failed to repair chain " + chain);
    }
    ++report->salvage_scrub_repairs;
  }

  e->Shutdown();
  LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
  LLB_RETURN_IF_ERROR(WipeStable(e));
  LLB_RETURN_IF_ERROR(OfflineRestore(e, chain, kInvalidLsn, restore));
  LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
  LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
  LLB_RETURN_IF_ERROR(e->Open());
  ++report->backups_verified;
  return Status::OK();
}

/// Catalog-aware salvage verification for kCatalogPrune. Requires the
/// engine open. CREATING generations are abandoned (Resume's fence
/// precondition died with the process), retention re-runs — which
/// idempotently finishes a crash-interrupted tombstone sweep — and then
/// the invariant the scenario exists to enforce is checked: every
/// generation the durable catalog calls COMPLETE still has every chain
/// link on disk, every tombstoned generation has no files left, and the
/// newest complete generation restores to the oracle state.
Status VerifyCatalogChains(TortureEngine* e, const RestoreOptions& restore,
                           CrashSweepReport* report) {
  {
    LLB_ASSIGN_OR_RETURN(
        BackupCatalog catalog,
        BackupCatalog::Open(&e->env, Database::CatalogName(e->name)));
    for (const BackupGeneration& g : catalog.generations()) {
      if (g.state == BackupState::kCreating) {
        LLB_RETURN_IF_ERROR(e->db->CancelBackup(g.name));
      }
    }
  }
  LLB_RETURN_IF_ERROR(e->db->PruneBackups(BackupRetentionPolicy{}).status());

  LLB_ASSIGN_OR_RETURN(
      BackupCatalog catalog,
      BackupCatalog::Open(&e->env, Database::CatalogName(e->name)));
  const BackupGeneration* newest = nullptr;
  for (const BackupGeneration& g : catalog.generations()) {
    if (g.state == BackupState::kComplete) {
      LLB_ASSIGN_OR_RETURN(std::vector<std::string> links,
                           catalog.RestoreChain(g.name));
      for (const std::string& link : links) {
        LLB_ASSIGN_OR_RETURN(bool ok, ChainComplete(e, link));
        if (!ok) {
          return Status::Internal("retained generation " + g.name +
                                  " lost chain link " + link);
        }
      }
      if (newest == nullptr || g.id > newest->id) newest = &g;
    } else if (g.state != BackupState::kCreating) {
      // PRUNED / CANCELLED: the deletion sweep above must have finished.
      if (e->env.FileExists(g.name + ".manifest")) {
        return Status::Internal("tombstoned generation still has files: " +
                                g.name);
      }
    }
  }
  if (newest == nullptr) return Status::OK();

  const std::string head = newest->name;
  e->Shutdown();
  LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
  LLB_RETURN_IF_ERROR(WipeStable(e));
  LLB_RETURN_IF_ERROR(OfflineRestore(e, head, kInvalidLsn, restore));
  LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
  LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
  LLB_RETURN_IF_ERROR(e->Open());
  ++report->backups_verified;
  return Status::OK();
}

/// Standby-side salvage for kLogShipping: reopen the twin by its durable
/// role, oracle-verify its stable store against its own log, and — while
/// it is still a standby — re-attach replication from the durable ship
/// cursor and require convergence with the salvaged primary.
///
/// Convergence is guaranteed because the shipper's no-gaps invariant
/// survives crashes: every LSN at or below the cursor is either still in
/// the spool (frames are synced before the cursor advances) or was
/// trimmed, and Trim only follows durable consumption into the standby
/// log; everything past the cursor is covered by Attach's catch-up scan.
/// The one exception is a frame that rotted after the cursor passed it
/// (the scenario's scripted torn frame, crashed before its resync), which
/// the explicit Resync below repairs.
Status SalvageStandbySide(const ScenarioOptions& scenario, TortureEngine* e,
                          CrashSweepReport* report) {
  if (scenario.kind != ScenarioKind::kLogShipping) return Status::OK();
  // sb.log is created by the scenario's OpenStandby; its absence means
  // the crash hit earlier (MemEnv keeps file existence across crashes).
  if (!e->env.FileExists(Database::LogName(e->standby_name))) {
    return Status::OK();
  }
  LLB_RETURN_IF_ERROR(e->OpenStandby());
  LLB_RETURN_IF_ERROR(VerifyDbAgainstOwnLog(e, e->standby.get()));
  ++report->recoveries_verified;
  // Promoted before the crash: the twin is its own primary now and no
  // replication should resume.
  if (!e->standby->standby()) return Status::OK();

  Lsn primary_tail = e->db->log()->durable_lsn();
  if (e->standby->log()->durable_lsn() > primary_tail) {
    // The primary was rewound (PITR) behind the standby. Replication
    // must not run backwards; a real deployment rebuilds the follower.
    return Status::OK();
  }

  FileShipChannel channel(&e->env, kShipPrefix);
  LogShipper shipper(&e->env, e->name, e->db->log(), &channel);
  LLB_RETURN_IF_ERROR(shipper.Attach());
  StandbyApplier applier(e->standby.get(), &channel);
  LLB_RETURN_IF_ERROR(applier.CatchUpFromLocalLog());
  LLB_RETURN_IF_ERROR(shipper.Pump());
  LLB_RETURN_IF_ERROR(applier.Drain());
  if (applier.applied_lsn() < primary_tail) {
    LLB_RETURN_IF_ERROR(shipper.Resync(applier.applied_lsn() + 1));
    LLB_RETURN_IF_ERROR(shipper.Pump());
    LLB_RETURN_IF_ERROR(applier.Drain());
  }
  StandbyStatus lag = applier.GatherStatus(primary_tail);
  if (lag.lsns_behind != 0 || applier.applied_lsn() != primary_tail) {
    return Status::Internal("standby failed to converge after salvage: " +
                            lag.ToString());
  }
  LLB_RETURN_IF_ERROR(VerifyDbAgainstOwnLog(e, e->standby.get()));
  ++report->recoveries_verified;
  return Status::OK();
}

}  // namespace

Status CrashSweeper::RunScenario(TortureEngine* e) const {
  Database* db = e->db.get();
  std::unique_ptr<ScenarioWorkload> workload = MakeWorkload(db, scenario_);
  LLB_RETURN_IF_ERROR(workload->Setup());
  LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_pre));
  LLB_RETURN_IF_ERROR(db->Checkpoint());

  switch (scenario_.kind) {
    case ScenarioKind::kBackup: {
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.mid_step = [&](PartitionId, uint32_t) {
        return workload->Update(scenario_.updates_mid);
      };
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackupWithOptions(kFullName, job));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kWriteBack: {
      // One pass with no backup, one inside a full backup's steps, then
      // a last pass once the backup completed.
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.mid_step = [&](PartitionId, uint32_t) {
        return workload->Update(scenario_.updates_mid);
      };
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackupWithOptions(kFullName, job));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      const CacheStats stats = db->cache()->stats();
      if (stats.writeback_multilevel == 0 ||
          stats.writeback_multilevel == stats.writeback_batches ||
          stats.multivar_identity_writes == 0) {
        return Status::Internal(
            "write-back scenario did not run flat and multi-level batches "
            "and install a multi-var node through identity writes: " +
            std::to_string(stats.writeback_batches) + " batches, " +
            std::to_string(stats.writeback_multilevel) + " multi-level, " +
            std::to_string(stats.multivar_identity_writes) +
            " multi-var identity writes");
      }
      if (stats.blind_misses == 0) {
        return Status::Internal(
            "write-back scenario never wrote a missed page blind");
      }
      // The oracle compares S itself: install what the evictions left.
      return db->FlushAll();
    }

    case ScenarioKind::kResume: {
      // A transient write fault lands the sweep mid-partition; the
      // countdown targets the second of `backup_steps` steps.
      uint64_t abort_at = scenario_.pages_per_partition / 4 + 2;
      ScriptedFaultPolicy abort_policy(
          {{FaultOp::kWriteAt, std::string(kFullName) + ".pages", abort_at,
            FaultAction::kFail}});
      e->env.SetPolicy(&abort_policy);
      Result<BackupManifest> run =
          db->TakeBackup(kFullName, scenario_.backup_steps);
      e->env.SetPolicy(nullptr);
      if (run.ok()) {
        return Status::Internal("scripted abort fault did not fire");
      }
      // A scheduled crash can beat the scripted abort; tell them apart by
      // whether the env is now rejecting all IO.
      if (e->base.io_blocked()) return run.status();
      // Update activity between abort and resume: the fences stayed up,
      // so flushes into already-copied regions keep being identity-logged.
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest resumed,
                           db->ResumeBackup(kFullName));
      if (!resumed.complete) {
        return Status::Internal("resumed backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kScrub: {
      // Silent bit-flip on the second page written into B (page 1 always
      // carries real data; higher pages may be checksum-exempt zeros).
      ScriptedFaultPolicy rot_policy(
          {{FaultOp::kWriteAt, std::string(kFullName) + ".pages", 2,
            FaultAction::kCorrupt}});
      e->env.SetPolicy(&rot_policy);
      Result<BackupManifest> run =
          db->TakeBackup(kFullName, scenario_.backup_steps);
      e->env.SetPolicy(nullptr);
      if (!run.ok()) return run.status();  // scheduled crash mid-sweep
      if (rot_policy.fired() != 1) {
        return Status::Internal("scripted rot fault did not fire");
      }
      LLB_ASSIGN_OR_RETURN(ScrubReport verify, db->VerifyBackup(kFullName));
      if (verify.clean()) return Status::Internal("bit rot not detected");
      LLB_ASSIGN_OR_RETURN(ScrubReport repair, db->ScrubBackup(kFullName));
      if (!repair.fully_repaired()) {
        return Status::Internal("scrub failed to repair the backup");
      }
      LLB_ASSIGN_OR_RETURN(ScrubReport again, db->VerifyBackup(kFullName));
      if (!again.clean()) {
        return Status::Internal("backup still dirty after scrub");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kBatchedBackup: {
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.batch_pages = scenario_.batch_pages;
      job.queue_depth = scenario_.queue_depth;
      job.mid_step = [&](PartitionId, uint32_t) {
        return workload->Update(scenario_.updates_mid);
      };
      // A scripted transient fault kills one batched multi-page write
      // mid-sweep. With batch_pages B and step size S there are
      // ceil(S / B) batch writes per step; countdown ceil(S / B) + 1
      // lands the abort on the first batch of step 2, so the durable
      // cursor sits at the step-1 boundary with the sweep mid-partition.
      uint32_t step_pages =
          scenario_.pages_per_partition / scenario_.backup_steps;
      uint32_t batch = std::max<uint32_t>(1, scenario_.batch_pages);
      uint64_t abort_at = (step_pages + batch - 1) / batch + 1;
      ScriptedFaultPolicy abort_policy(
          {{FaultOp::kWriteAt, std::string(kFullName) + ".pages", abort_at,
            FaultAction::kFail}});
      e->env.SetPolicy(&abort_policy);
      Result<BackupManifest> run = db->TakeBackupWithOptions(kFullName, job);
      e->env.SetPolicy(nullptr);
      if (run.ok()) {
        return Status::Internal("scripted batch abort fault did not fire");
      }
      // A scheduled crash can beat the scripted abort; tell them apart by
      // whether the env is now rejecting all IO.
      if (e->base.io_blocked()) return run.status();
      // Fences stayed up across the abort: updates here keep being
      // identity-logged into the already-copied region.
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest resumed,
                           db->ResumeBackup(kFullName, job));
      if (!resumed.complete) {
        return Status::Internal("resumed batched backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      // Batched incremental: the changed-page set is scattered, so the
      // sweep's contiguous-run builder has to split around the gaps.
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("batched incremental backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kParallelBackup: {
      // Partitions are sharded across sweep workers. The workload (and
      // hence every log record and identity write) only touches
      // partition 0, and the mid-step hook only fires there, so the
      // durability-event total is independent of worker interleaving —
      // the determinism the crash sweep needs.
      if (scenario_.partitions < 2) {
        return Status::InvalidArgument(
            "parallel scenario needs >= 2 partitions");
      }
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.batch_pages = scenario_.batch_pages;
      job.queue_depth = scenario_.queue_depth;
      job.sweep_threads = std::max<uint32_t>(2, scenario_.sweep_threads);
      job.mid_step = [&](PartitionId partition, uint32_t) {
        if (partition != 0) return Status::OK();
        return workload->Update(scenario_.updates_mid);
      };
      // Scripted abort scoped to partition 1's backup file: partition 0
      // completes its sweep while partition 1 dies mid-step — the
      // interesting shape for the merged cursor (one partition done, one
      // partial), and deterministic because only the partition-1 worker
      // writes that file.
      uint64_t abort_at = scenario_.pages_per_partition / 4 + 2;
      ScriptedFaultPolicy abort_policy(
          {{FaultOp::kWriteAt, std::string(kFullName) + ".pages.p1", abort_at,
            FaultAction::kFail}});
      e->env.SetPolicy(&abort_policy);
      Result<BackupManifest> run = db->TakeBackupWithOptions(kFullName, job);
      e->env.SetPolicy(nullptr);
      if (run.ok()) {
        return Status::Internal("scripted parallel abort fault did not fire");
      }
      // A scheduled crash can beat the scripted abort; tell them apart by
      // whether the env is now rejecting all IO.
      if (e->base.io_blocked()) return run.status();
      // Partition 1's fences stayed up across the abort; partition 0
      // finished and reset its own. Updates here land in partition 0 and
      // log normally.
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest resumed,
                           db->ResumeBackup(kFullName, job));
      if (!resumed.complete) {
        return Status::Internal("resumed parallel backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      // Parallel incremental: all changed pages live in partition 0, so
      // one worker sweeps real runs while the other advances partition
      // 1's fences over an empty filter.
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("parallel incremental backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kRestore: {
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackup(kFullName, scenario_.backup_steps));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      Lsn pitr_lsn = incr.end_lsn;
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());

      // Simulated media failure + off-line recovery, twice: first a
      // point-in-time restore to the incremental's end, checked against a
      // log-prefix oracle, then a full roll-forward to the end of the log.
      e->Shutdown();
      LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(WipeStable(e));
      LLB_RETURN_IF_ERROR(OfflineRestore(e, kIncrName, pitr_lsn));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, pitr_lsn));
      LLB_RETURN_IF_ERROR(OfflineRestore(e, kIncrName, kInvalidLsn));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      return e->Open();
    }

    case ScenarioKind::kParallelRestore: {
      // The restore-side twin of kParallelBackup: the same chain-and-
      // restore pipeline as kRestore, but every off-line restore runs
      // through the TransferPipeline with multi-page runs and >= 2
      // workers sharding the partitions. Crashes land mid-parallel-
      // restore; the durability-event TOTAL is interleaving-independent
      // (a fixed run set is written either way), which is all the
      // count-based sweep contract needs.
      if (scenario_.partitions < 2) {
        return Status::InvalidArgument(
            "parallel restore scenario needs >= 2 partitions");
      }
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackup(kFullName, scenario_.backup_steps));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      Lsn pitr_lsn = incr.end_lsn;
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());

      const RestoreOptions restore = RestoreOptionsForScenario(scenario_);
      e->Shutdown();
      LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(WipeStable(e));
      LLB_RETURN_IF_ERROR(OfflineRestore(e, kIncrName, pitr_lsn, restore));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, pitr_lsn));
      LLB_RETURN_IF_ERROR(OfflineRestore(e, kIncrName, kInvalidLsn, restore));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      return e->Open();
    }

    case ScenarioKind::kInstantRestore: {
      // Full + incremental chain, then a media failure. Instead of an
      // off-line restore, the database reopens *restoring*: the workload
      // resumes immediately against the wiped store, faulting each
      // touched page's influence closure in on demand, with background
      // RestoreStep sweeps interleaved between workload rounds.
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackup(kFullName, scenario_.backup_steps));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());

      e->Shutdown();
      LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(WipeStable(e));
      LLB_RETURN_IF_ERROR(e->OpenRestoring(kIncrName));
      if (!e->db->restoring()) {
        return Status::Internal("restoring open came up not restoring");
      }
      // Fresh workload object bound to the new handle (the old one holds
      // the pre-crash Database pointer); no Setup — the data already
      // exists, the generator just replays its deterministic stream.
      std::unique_ptr<ScenarioWorkload> survivor =
          MakeWorkload(e->db.get(), scenario_);
      for (int round = 0; round < 3; ++round) {
        LLB_RETURN_IF_ERROR(survivor->Update(scenario_.updates_mid));
        LLB_ASSIGN_OR_RETURN(uint64_t moved, e->db->RestoreStep());
        (void)moved;
      }
      LLB_RETURN_IF_ERROR(e->db->FinishRestore());
      if (e->db->restoring()) {
        return Status::Internal("FinishRestore left the restoring flag set");
      }
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(survivor->Update(scenario_.updates_post));
      return e->db->ForceLog();
    }

    case ScenarioKind::kCatalogPrune: {
      // Chain 1 (full + incremental), then a second full that — with
      // backup_compress on (MakeDbOptions) — dedups against the first,
      // then retention with keep_chains=1. The durable catalog saves
      // (Begin/Complete per generation, the PRUNED mark) and the
      // deletion sweep all sit on the crash schedule.
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackup(kFullName, scenario_.backup_steps));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid * 3));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_ASSIGN_OR_RETURN(BackupManifest full2,
                           db->TakeBackup(kFull2Name, scenario_.backup_steps));
      if (!full2.complete) return Status::Internal("second full incomplete");
      if (full2.format == 0 || full2.dedup_base != kFullName) {
        return Status::Internal("second full did not dedup against the first");
      }
      // keep_chains=1 keeps the newest full. Its dedup edge must pin the
      // first full; the incremental (chained to a non-kept full, not a
      // dedup target) is the one pruned generation.
      LLB_ASSIGN_OR_RETURN(std::vector<std::string> pruned,
                           db->PruneBackups(BackupRetentionPolicy{}));
      for (const std::string& name : pruned) {
        if (name != kIncrName) {
          return Status::Internal("prune dropped a protected generation: " +
                                  name);
        }
      }
      if (pruned.size() != 1) {
        return Status::Internal("prune was expected to drop exactly the "
                                "incremental");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      return db->ForceLog();
    }

    case ScenarioKind::kLogTruncate: {
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.mid_step = [&](PartitionId, uint32_t) {
        return workload->Update(scenario_.updates_mid);
      };
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackupWithOptions(kFullName, job));
      if (!full.complete) return Status::Internal("full backup incomplete");
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));

      // First cut: the full backup's start, inside the file the
      // truncation's own roll seals.
      LLB_RETURN_IF_ERROR(ArchiveLog(e));
      LLB_RETURN_IF_ERROR(db->TruncateLog(full.start_lsn));

      // Enough log for the active file to roll on size.
      LLB_RETURN_IF_ERROR(workload->BulkLog(kLogRollBytes));
      bool size_rolled = false;
      for (const LogFileInfo& file : db->log()->Files()) {
        size_rolled |= file.sealed && file.bytes >= kLogRollBytes;
      }
      if (!size_rolled) {
        return Status::Internal("bulk logging did not roll the log on size");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid));
      LLB_ASSIGN_OR_RETURN(BackupManifest incr,
                           db->TakeIncrementalBackup(kIncrName, kFullName));
      if (!incr.complete) {
        return Status::Internal("incremental backup incomplete");
      }
      // The PITR target: a quiescent boundary past the incremental's end
      // (all atomic groups closed by the workload's trailing FlushAll).
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());
      const Lsn pitr_target = db->log()->durable_lsn();
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid));

      // Second cut: the incremental's start, inside the active file. Every
      // sealed file before the one the roll seals goes.
      LLB_RETURN_IF_ERROR(ArchiveLog(e));
      const size_t files_before = db->log()->Files().size();
      LLB_RETURN_IF_ERROR(db->TruncateLog(incr.start_lsn));
      // Its roll adds one file, so two unlinks leave one fewer.
      if (files_before + 1 - db->log()->Files().size() < 2) {
        return Status::Internal(
            "second truncation unlinked fewer than two log files");
      }
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());

      // Media failure, then a point-in-time restore to the target: the
      // cut lands in the newest sealed file and the active file goes.
      e->Shutdown();
      LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(WipeStable(e));
      LLB_RETURN_IF_ERROR(OfflinePitr(e, pitr_target));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, pitr_target));
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(e->Open());
      if (e->db->log()->durable_lsn() != pitr_target) {
        return Status::Internal("log reopened past the PITR target");
      }
      std::unique_ptr<ScenarioWorkload> survivor =
          MakeWorkload(e->db.get(), scenario_);
      LLB_RETURN_IF_ERROR(survivor->Update(scenario_.updates_post));
      return e->db->ForceLog();
    }

    case ScenarioKind::kLogShipping: {
      // Warm standby in the same env, so one crash schedule covers
      // primary, spool, and standby durability events. The spool is a
      // FileShipChannel under the same FaultyEnv: scripted channel faults
      // and scheduled crashes both land on real frame IO.
      LLB_RETURN_IF_ERROR(e->OpenStandby());
      FileShipChannel channel(&e->env, kShipPrefix);
      LogShipper shipper(&e->env, e->name, db->log(), &channel);
      LLB_RETURN_IF_ERROR(shipper.Attach());
      StandbyApplier applier(e->standby.get(), &channel);
      LLB_RETURN_IF_ERROR(applier.CatchUpFromLocalLog());
      auto replicate = [&]() -> Status {
        LLB_RETURN_IF_ERROR(shipper.Pump());
        return applier.Drain();
      };
      // Everything logged before the shipper attached ships as one
      // catch-up frame.
      LLB_RETURN_IF_ERROR(replicate());

      // Transient send fault: the next Pump's first spool write fails
      // once and the shipper's bounded retry absorbs it. The failed
      // write never reaches its Sync, so the durability-event sequence
      // stays identical to a fault-free send.
      {
        ScriptedFaultPolicy drop(
            {{FaultOp::kWriteAt, std::string(kShipPrefix) + ".f", 1,
              FaultAction::kFail}});
        LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid));
        e->env.SetPolicy(&drop);
        Status pumped = shipper.Pump();
        e->env.SetPolicy(nullptr);
        if (!pumped.ok()) return pumped;  // scheduled crash mid-pump
        if (drop.fired() != 1) {
          return Status::Internal("scripted send fault did not fire");
        }
        if (shipper.stats().retries == 0) {
          return Status::Internal("send retry path not exercised");
        }
        LLB_RETURN_IF_ERROR(applier.Drain());
      }

      // Torn frame: silent rot on a spool write. The envelope crc hides
      // the frame from Poll, the applier observes the gap, and the
      // shipper's Resync NAK path rebuilds the range from the log.
      {
        ScriptedFaultPolicy rot(
            {{FaultOp::kWriteAt, std::string(kShipPrefix) + ".f", 1,
              FaultAction::kCorrupt}});
        LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid));
        e->env.SetPolicy(&rot);
        Status pumped = shipper.Pump();
        e->env.SetPolicy(nullptr);
        if (!pumped.ok()) return pumped;  // scheduled crash mid-pump
        if (rot.fired() != 1) {
          return Status::Internal("scripted frame rot did not fire");
        }
        LLB_RETURN_IF_ERROR(applier.Drain());
        if (applier.applied_lsn() >= db->log()->durable_lsn()) {
          return Status::Internal("torn frame failed to open a gap");
        }
        LLB_RETURN_IF_ERROR(shipper.Resync(applier.applied_lsn() + 1));
        LLB_RETURN_IF_ERROR(replicate());
        if (applier.applied_lsn() != db->log()->durable_lsn()) {
          return Status::Internal("resync did not close the gap");
        }
      }

      // Full backup on the primary while replication keeps flowing
      // through the mid-step hook.
      BackupJobOptions job;
      job.steps = scenario_.backup_steps;
      job.mid_step = [&](PartitionId, uint32_t) -> Status {
        LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_mid));
        return replicate();
      };
      LLB_ASSIGN_OR_RETURN(BackupManifest full,
                           db->TakeBackupWithOptions(kFullName, job));
      if (!full.complete) return Status::Internal("full backup incomplete");

      // The PITR target: a quiescent boundary past the backup's end (all
      // atomic groups closed by the workload's trailing FlushAll).
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());
      const Lsn pitr_target = db->log()->durable_lsn();
      LLB_RETURN_IF_ERROR(replicate());

      // Updates past the PITR point, then a full drain to zero lag.
      LLB_RETURN_IF_ERROR(workload->Update(scenario_.updates_post));
      LLB_RETURN_IF_ERROR(db->ForceLog());
      LLB_RETURN_IF_ERROR(replicate());
      StandbyStatus lag = applier.GatherStatus(db->log()->durable_lsn());
      if (lag.lsns_behind != 0 || lag.segments_behind != 0) {
        return Status::Internal("standby lag after full drain: " +
                                lag.ToString());
      }
      if (e->standby->log()->durable_lsn() != db->log()->durable_lsn()) {
        return Status::Internal("standby log tail diverges from primary");
      }
      if (scenario_.graph == WriteGraphKind::kGeneral &&
          applier.stats().pages_staged == 0) {
        return Status::Internal(
            "standby replay never staged a two-page node on its own log");
      }

      // Promote: the standby becomes a writable primary, takes writes of
      // its own, and must keep matching its own log.
      shipper.Detach();
      LLB_RETURN_IF_ERROR(e->standby->Promote());
      if (e->standby->standby()) {
        return Status::Internal("promotion left the standby flag set");
      }
      std::unique_ptr<ScenarioWorkload> standby_writes =
          MakeWorkload(e->standby.get(), scenario_);
      LLB_RETURN_IF_ERROR(standby_writes->Update(scenario_.updates_mid));
      LLB_RETURN_IF_ERROR(e->standby->ForceLog());
      LLB_RETURN_IF_ERROR(VerifyDbAgainstOwnLog(e, e->standby.get()));

      // Point-in-time restore of the old primary to the recorded target
      // (media failure after the role moved: rewind to a known-good
      // moment instead of chasing the lost tail).
      e->Shutdown();
      LLB_RETURN_IF_ERROR(SetRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(WipeStable(e));
      LLB_RETURN_IF_ERROR(OfflinePitr(e, pitr_target));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, pitr_target));
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      LLB_RETURN_IF_ERROR(e->Open());
      if (e->db->log()->durable_lsn() != pitr_target) {
        return Status::Internal("log reopened past the PITR target");
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown scenario kind");
}

Status CrashSweeper::Salvage(TortureEngine* e,
                             CrashSweepReport* report) const {
  if (e->env.FileExists(kRestoreMarker)) {
    // The crash hit while S was being overwritten from B. Plain crash
    // redo cannot rebuild a half-copied store, but off-line restore is
    // restartable: re-copy the chain and roll forward to the end of the
    // durable log.
    if (scenario_.kind == ScenarioKind::kCatalogPrune) {
      // The marker was set by a catalog-chain verification restore, so
      // the chain to re-restore resolves through the durable catalog.
      LLB_ASSIGN_OR_RETURN(
          BackupCatalog catalog,
          BackupCatalog::Open(&e->env, Database::CatalogName(e->name)));
      const BackupGeneration* newest = catalog.Latest();
      if (newest == nullptr) {
        return Status::Internal(
            "restore marker without a catalog-complete generation");
      }
      LLB_RETURN_IF_ERROR(OfflineRestore(
          e, newest->name, kInvalidLsn, RestoreOptionsForScenario(scenario_)));
      LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      ++report->salvage_restores;
      ++report->backups_verified;
      LLB_RETURN_IF_ERROR(e->Open());
      LLB_RETURN_IF_ERROR(VerifyOpenDb(e));
      ++report->recoveries_verified;
      return VerifyCatalogChains(e, RestoreOptionsForScenario(scenario_),
                                 report);
    }
    LLB_ASSIGN_OR_RETURN(bool incr_ok, ChainComplete(e, kIncrName));
    std::string chain = kIncrName;
    if (!incr_ok) {
      LLB_ASSIGN_OR_RETURN(bool full_ok, ChainComplete(e, kFullName));
      if (!full_ok) {
        return Status::Internal("restore marker without a complete chain");
      }
      chain = kFullName;
    }
    if (scenario_.kind == ScenarioKind::kInstantRestore) {
      // An instant restore resumes as an instant restore: the durable
      // restored-bitmap (when it survived the crash) carries the done
      // pages and the pinned recovery tail; when the crash beat the
      // bitmap's first save — or landed between Finalize and the marker
      // clear — the restore restarts from scratch. Both are idempotent.
      // Crash redo for post-tail work happens inside Recover.
      LLB_RETURN_IF_ERROR(e->OpenRestoring(chain));
      if (e->db->restoring()) {
        // Fault one fixed page on demand before draining, so nested
        // crashes land inside the salvage's own fault path too.
        PageImage img;
        LLB_RETURN_IF_ERROR(e->db->ReadPage(PageId{0, 0}, &img));
      }
      LLB_RETURN_IF_ERROR(e->db->FinishRestore());
      LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
      ++report->salvage_restores;
      LLB_RETURN_IF_ERROR(VerifyOpenDb(e));
      ++report->recoveries_verified;
      return VerifyCompletedChains(e, RestoreOptionsForScenario(scenario_),
                                   report);
    }
    LLB_RETURN_IF_ERROR(OfflineRestore(e, chain, kInvalidLsn,
                                       RestoreOptionsForScenario(scenario_)));
    LLB_RETURN_IF_ERROR(VerifyStableOffline(e, kInvalidLsn));
    LLB_RETURN_IF_ERROR(ClearRestoreMarker(&e->env));
    ++report->salvage_restores;
    ++report->backups_verified;
    LLB_RETURN_IF_ERROR(e->Open());
    LLB_RETURN_IF_ERROR(VerifyOpenDb(e));
    ++report->recoveries_verified;
    return SalvageStandbySide(scenario_, e, report);
  }

  LLB_RETURN_IF_ERROR(e->Open());
  LLB_RETURN_IF_ERROR(VerifyOpenDb(e));
  ++report->recoveries_verified;
  if (scenario_.kind == ScenarioKind::kCatalogPrune) {
    return VerifyCatalogChains(e, RestoreOptionsForScenario(scenario_),
                               report);
  }
  LLB_RETURN_IF_ERROR(VerifyCompletedChains(
      e, RestoreOptionsForScenario(scenario_), report));
  return SalvageStandbySide(scenario_, e, report);
}

Status CrashSweeper::CrashScenarioAt(TortureEngine* e, uint64_t k) const {
  LLB_RETURN_IF_ERROR(e->Open());
  CrashAtEventInjector injector(k);
  e->base.SetFaultInjector(&injector);
  Status s = RunScenario(e);
  bool crashed = e->base.io_blocked();
  if (!crashed) {
    e->base.SetFaultInjector(nullptr);
    if (s.ok()) {
      return Status::Internal("crash at event " + std::to_string(k) +
                              " never fired");
    }
    return Status::Internal("scenario failed before the scheduled crash at " +
                            std::to_string(k) + ": " + s.ToString());
  }
  e->Shutdown();
  e->base.CrashAndRestart();  // clears the injector reference
  return Status::OK();
}

Status CrashSweeper::RunPrimaryPoint(uint64_t k,
                                     CrashSweepReport* report) const {
  TortureEngine engine(MakeDbOptions());
  LLB_RETURN_IF_ERROR(CrashScenarioAt(&engine, k));
  Status s = Salvage(&engine, report);
  if (!s.ok()) {
    return Status::Internal(std::string(ScenarioKindName(scenario_.kind)) +
                            " scenario, crash point " + std::to_string(k) +
                            ": " + s.ToString());
  }
  return Status::OK();
}

Status CrashSweeper::RunNestedPoints(uint64_t k, const SweepOptions& options,
                                     CrashSweepReport* report) const {
  // Measure the salvage sequence that follows a crash at event k.
  uint64_t salvage_events = 0;
  {
    TortureEngine engine(MakeDbOptions());
    LLB_RETURN_IF_ERROR(CrashScenarioAt(&engine, k));
    RecordingInjector recorder;
    engine.base.SetFaultInjector(&recorder);
    CrashSweepReport scratch;
    Status s = Salvage(&engine, &scratch);
    engine.base.SetFaultInjector(nullptr);
    if (!s.ok()) {
      return Status::Internal("recording salvage failed at crash point " +
                              std::to_string(k) + ": " + s.ToString());
    }
    salvage_events = recorder.count();
  }
  if (salvage_events == 0) return Status::OK();

  uint64_t stride = options.nested_max_points == 0
                        ? 1
                        : salvage_events / options.nested_max_points + 1;
  for (uint64_t j = 1; j <= salvage_events; j += stride) {
    TortureEngine engine(MakeDbOptions());
    LLB_RETURN_IF_ERROR(CrashScenarioAt(&engine, k));
    CrashAtEventInjector nested(j);
    engine.base.SetFaultInjector(&nested);
    CrashSweepReport scratch;
    Status s = Salvage(&engine, &scratch);
    bool crashed = engine.base.io_blocked();
    if (!crashed) {
      engine.base.SetFaultInjector(nullptr);
      return Status::Internal(
          "salvage at crash point " + std::to_string(k) +
          (s.ok() ? " finished without the nested crash at event "
                  : " failed before the nested crash at event ") +
          std::to_string(j) + (s.ok() ? "" : ": " + s.ToString()));
    }
    engine.Shutdown();
    engine.base.CrashAndRestart();
    Status final_salvage = Salvage(&engine, report);
    if (!final_salvage.ok()) {
      return Status::Internal(std::string(ScenarioKindName(scenario_.kind)) +
                              " scenario, crash point " + std::to_string(k) +
                              ", nested crash " + std::to_string(j) + ": " +
                              final_salvage.ToString());
    }
    ++report->nested_points_tested;
  }
  return Status::OK();
}

Result<CrashSweepReport> CrashSweeper::Sweep(const SweepOptions& options) {
  CrashSweepReport report;

  // 1. Clean recording run: learn N and verify the fault-free end state.
  {
    TortureEngine engine(MakeDbOptions());
    LLB_RETURN_IF_ERROR(engine.Open());
    RecordingInjector recorder;
    engine.base.SetFaultInjector(&recorder);
    Status s = RunScenario(&engine);
    engine.base.SetFaultInjector(nullptr);
    if (!s.ok()) {
      return Status::Internal("clean scenario run failed: " + s.ToString());
    }
    report.total_events = recorder.count();
    LLB_RETURN_IF_ERROR(VerifyOpenDb(&engine));
    LLB_RETURN_IF_ERROR(VerifyCompletedChains(
        &engine, RestoreOptionsForScenario(scenario_), &report));
  }
  if (report.total_events == 0) {
    return Status::Internal("scenario produced no durability events");
  }

  // 2. Primary sweep: crash at every chosen event.
  uint64_t stride = options.max_points == 0
                        ? 1
                        : report.total_events / options.max_points + 1;
  for (uint64_t k = 1; k <= report.total_events; k += stride) {
    if (options.progress) {
      options.progress("crash point " + std::to_string(k) + "/" +
                       std::to_string(report.total_events));
    }
    LLB_RETURN_IF_ERROR(RunPrimaryPoint(k, &report));
    ++report.points_tested;
  }

  // 3. Nested sweep: crash the recovery that follows chosen crashes.
  if (options.nested_primary_points > 0) {
    uint64_t primary_stride =
        report.total_events / options.nested_primary_points + 1;
    for (uint64_t k = primary_stride / 2 + 1; k <= report.total_events;
         k += primary_stride) {
      if (options.progress) {
        options.progress("nested sweep at crash point " + std::to_string(k));
      }
      LLB_RETURN_IF_ERROR(RunNestedPoints(k, options, &report));
    }
  }
  return report;
}

}  // namespace llb
