#include "torture/torture_util.h"

#include <algorithm>

#include "recovery/media_recovery.h"
#include "sim/harness.h"
#include "sim/oracle.h"

namespace llb {

Status TortureEngine::Open() {
  LLB_ASSIGN_OR_RETURN(db, Database::Open(&env, name, options));
  RegisterAllOps(db->registry());
  return db->Recover();
}

Status TortureEngine::OpenRestoring(const std::string& chain) {
  LLB_ASSIGN_OR_RETURN(db, Database::OpenRestoring(&env, name, options, chain));
  RegisterAllOps(db->registry());
  return db->Recover();
}

Status TortureEngine::OpenStandby() {
  DbOptions standby_options = options;
  standby_options.standby = true;
  LLB_ASSIGN_OR_RETURN(standby,
                       Database::Open(&env, standby_name, standby_options));
  RegisterAllOps(standby->registry());
  return standby->Recover();
}

namespace torture {

Status SetRestoreMarker(Env* env) {
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> f,
                       env->OpenFile(kRestoreMarker, /*create=*/true));
  LLB_RETURN_IF_ERROR(f->WriteAt(0, Slice("R")));
  return f->Sync();
}

Status ClearRestoreMarker(Env* env) {
  if (!env->FileExists(kRestoreMarker)) return Status::OK();
  return env->DeleteFile(kRestoreMarker);
}

namespace {

/// Re-executes a log's whole history from an empty store into `oracle`,
/// up to end_lsn (kInvalidLsn = all): for the primary, first the archived
/// records below the live log's first file, then the live log.
Status ReplayHistory(TortureEngine* e, const LogManager& log, bool primary,
                     const OpRegistry& registry, PageStore* oracle,
                     Lsn end_lsn) {
  Lsn live_first = 1;
  if (primary && e->archive != nullptr) {
    live_first = log.Files().front().first_lsn;
    Lsn archived_end = live_first - 1;
    if (end_lsn != kInvalidLsn) archived_end = std::min(archived_end, end_lsn);
    if (archived_end != kInvalidLsn) {
      LLB_RETURN_IF_ERROR(RunRedoRange(*e->archive, registry, oracle,
                                       /*start_lsn=*/1, archived_end,
                                       /*only_partition=*/nullptr,
                                       /*use_identity_seeds=*/false)
                              .status());
    }
  }
  return RunRedoRange(log, registry, oracle, live_first, end_lsn,
                      /*only_partition=*/nullptr,
                      /*use_identity_seeds=*/false)
      .status();
}

}  // namespace

Status VerifyOpenDb(TortureEngine* e) {
  return VerifyDbAgainstOwnLog(e, e->db.get());
}

Status ArchiveLog(TortureEngine* e) {
  LogManager* log = e->db->log();
  LLB_RETURN_IF_ERROR(log->Force());
  if (e->archive == nullptr) {
    LLB_ASSIGN_OR_RETURN(e->archive,
                         LogManager::Open(&e->archive_env, "archive"));
  }
  SealedSegment segment;
  LLB_RETURN_IF_ERROR(
      log->Scan(e->archive->next_lsn(), [&](const LogRecord& rec) {
        if (segment.first_lsn == kInvalidLsn) segment.first_lsn = rec.lsn;
        segment.last_lsn = rec.lsn;
        rec.EncodeTo(&segment.bytes);
        return Status::OK();
      }));
  if (segment.bytes.empty()) return Status::OK();
  LLB_RETURN_IF_ERROR(e->archive->AppendSealed(segment, nullptr));
  return e->archive->Force();
}

Status VerifyDbAgainstOwnLog(TortureEngine* e, Database* db) {
  std::string prefix = "oracle_t" + std::to_string(e->oracle_seq++);
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> oracle,
                       PageStore::Open(&e->env, prefix, e->options.partitions));
  LLB_RETURN_IF_ERROR(ReplayHistory(e, *db->log(), db == e->db.get(),
                                    *db->registry(), oracle.get(),
                                    kInvalidLsn));
  std::string diff =
      testutil::DiffStores(*db->stable(), *oracle, e->options.partitions,
                           e->options.pages_per_partition);
  if (!diff.empty()) {
    return Status::Internal("stable state differs from oracle at page " +
                            diff);
  }
  return Status::OK();
}

Status VerifyStableOffline(TortureEngine* e, Lsn end_lsn) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&e->env, Database::LogName(e->name)));
  std::string prefix = "oracle_t" + std::to_string(e->oracle_seq++);
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> oracle,
                       PageStore::Open(&e->env, prefix, e->options.partitions));
  LLB_RETURN_IF_ERROR(ReplayHistory(e, *log, /*primary=*/true, registry,
                                    oracle.get(), end_lsn));
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> stable,
                       PageStore::Open(&e->env, Database::StableName(e->name),
                                       e->options.partitions));
  std::string diff =
      testutil::DiffStores(*stable, *oracle, e->options.partitions,
                           e->options.pages_per_partition);
  if (!diff.empty()) {
    return Status::Internal("restored state differs from oracle at page " +
                            diff);
  }
  return Status::OK();
}

Status WipeStable(TortureEngine* e) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> stable,
                       PageStore::Open(&e->env, Database::StableName(e->name),
                                       e->options.partitions));
  for (PartitionId p = 0; p < e->options.partitions; ++p) {
    LLB_RETURN_IF_ERROR(stable->WipePartition(p));
  }
  return Status::OK();
}

Status OfflineRestore(TortureEngine* e, const std::string& chain,
                      Lsn stop_at_lsn, RestoreOptions base) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions options = base;
  options.stop_at_lsn = stop_at_lsn;
  options.partition_only = false;
  LLB_ASSIGN_OR_RETURN(
      MediaRecoveryReport report,
      RestoreFromBackupWithOptions(&e->env, Database::StableName(e->name),
                                   Database::LogName(e->name), chain, registry,
                                   options));
  (void)report;
  return Status::OK();
}

Status OfflinePitr(TortureEngine* e, Lsn target, RestoreOptions base) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  base.stop_at_lsn = kInvalidLsn;
  base.partition_only = false;
  LLB_ASSIGN_OR_RETURN(
      MediaRecoveryReport report,
      RestoreToPointInTime(&e->env, Database::StableName(e->name),
                           Database::LogName(e->name), target, registry,
                           base));
  (void)report;
  return Status::OK();
}

}  // namespace torture
}  // namespace llb
