#include "recovery/media_recovery.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "backup/backup_catalog.h"
#include "io/backup_codec.h"
#include "io/transfer_pipeline.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace llb {

Result<RestoreChainPlan> LoadRestoreChain(Env* env,
                                          const std::string& backup_name) {
  RestoreChainPlan plan;
  std::string current = backup_name;
  while (true) {
    LLB_ASSIGN_OR_RETURN(BackupManifest m, BackupManifest::Load(env, current));
    if (!m.complete) {
      return Status::FailedPrecondition("backup incomplete: " + current);
    }
    bool is_incremental = m.incremental;
    std::string base = m.base_name;
    plan.chain.push_back(std::move(m));
    if (!is_incremental) break;
    if (base.empty()) {
      return Status::Corruption("incremental backup without base: " + current);
    }
    current = base;
  }
  std::reverse(plan.chain.begin(), plan.chain.end());
  for (size_t i = 1; i < plan.chain.size(); ++i) {
    for (const PageId& id : plan.chain[i].pages) {
      plan.newest_carrier[RestoreChainPlan::Key(id)] = i;
    }
  }
  return plan;
}

Result<MediaRecoveryReport> RestoreFromBackup(Env* env,
                                              const std::string& stable_prefix,
                                              const std::string& log_name,
                                              const std::string& backup_name,
                                              const OpRegistry& registry) {
  return RestoreFromBackupWithOptions(env, stable_prefix, log_name,
                                      backup_name, registry,
                                      RestoreOptions{});
}

Result<MediaRecoveryReport> RestoreFromBackupWithOptions(
    Env* env, const std::string& stable_prefix, const std::string& log_name,
    const std::string& backup_name, const OpRegistry& registry,
    const RestoreOptions& options) {
  MediaRecoveryReport report;

  // Plan phase: collect the incremental chain (base first) and the
  // newest-wins carrier index, shared with instant restore.
  LLB_ASSIGN_OR_RETURN(RestoreChainPlan chain_plan,
                       LoadRestoreChain(env, backup_name));
  const std::vector<BackupManifest>& chain = chain_plan.chain;
  const BackupManifest& base = chain_plan.base();
  const BackupManifest& newest = chain_plan.newest();

  // A point-in-time target must not precede the backup's own completion:
  // pages in B can carry LSNs up to end_lsn, and redo never rolls state
  // back. To reach an earlier time, restore an earlier backup.
  if (options.stop_at_lsn != kInvalidLsn &&
      options.stop_at_lsn < newest.end_lsn) {
    return Status::InvalidArgument(
        "point-in-time target precedes the backup's end LSN; restore an "
        "earlier backup instead");
  }
  if (options.partition_only && options.partition >= base.partitions) {
    return Status::InvalidArgument("partition out of range");
  }

  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, stable_prefix, base.partitions));

  // 1. + 2. Restore the chain, coalesced: every position lands in S
  //    exactly once, from the newest chain member carrying it — the naive
  //    in-order apply wrote every superseded delta page only to
  //    overwrite it.
  std::vector<PageId> all_pages;
  for (PartitionId p = 0; p < base.partitions; ++p) {
    if (options.partition_only && p != options.partition) continue;
    for (uint32_t page = 0; page < base.pages_per_partition; ++page) {
      all_pages.push_back(PageId{p, page});
    }
  }
  // Frame pages (format v2) decode between the B read and the S write:
  // the one decoder serves every chain member and both the serial and
  // parallel paths, and passes v1 pages through untouched — which is the
  // whole format auto-detect story (per-page flag, not per-store).
  codec::FrameDecoder decoder(env, base.partitions);

  std::vector<std::vector<PageId>> claims = chain_plan.Claims(all_pages);
  for (size_t i = 0; i < chain.size(); ++i) {
    // Applied even when all its pages are superseded — the member's
    // manifest was still consulted, and the count stays the chain length.
    ++report.backups_applied;
    if (claims[i].empty()) continue;
    LLB_ASSIGN_OR_RETURN(
        std::unique_ptr<PageStore> store,
        PageStore::Open(env, chain[i].StoreName(), chain[i].partitions));
    // claims[i] is partition-major sorted by construction, so AddPages
    // coalesces adjacent survivors into maximal runs.
    TransferPlan plan;
    plan.AddPages(claims[i], options.batch_pages);
    TransferOptions transfer;
    transfer.queue_depth = options.queue_depth;
    transfer.workers = options.threads;
    transfer.transform = [&decoder](const TransferRun& run,
                                    std::vector<PageImage>* images) {
      return decoder.DecodeRun(run, images);
    };
    TransferPipeline pipeline(store.get(), stable.get(), transfer);
    uint64_t moved = 0;
    Status s = options.threads > 1 ? pipeline.RunParallel(plan, &moved)
                                   : pipeline.Run(plan, &moved);
    report.pages_restored += moved;
    LLB_RETURN_IF_ERROR(s);
  }

  // 3. Roll forward from the newest backup's scan start point.
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                       LogManager::Open(env, log_name));
  const PartitionId* only =
      options.partition_only ? &options.partition : nullptr;
  LLB_ASSIGN_OR_RETURN(
      report.redo,
      RunRedoRange(*log, registry, stable.get(), newest.start_lsn,
                   options.stop_at_lsn, only));

  // Point-in-time recovery discards the excluded log suffix, or the next
  // crash recovery would replay it and undo the PITR (a partition-only
  // restore must NOT: other partitions still need those records).
  if (options.stop_at_lsn != kInvalidLsn && !options.partition_only) {
    LLB_RETURN_IF_ERROR(log->TruncateAfter(options.stop_at_lsn));
  }
  return report;
}

Result<MediaRecoveryReport> RestoreToPointInTime(
    Env* env, const std::string& stable_prefix, const std::string& log_name,
    Lsn target, const OpRegistry& registry, const RestoreOptions& options) {
  if (target == kInvalidLsn) {
    return Status::InvalidArgument("point-in-time target must be a valid LSN");
  }

  // 1. Validate the cut against the durable log: bounds and group
  //    atomicity. One scan gathers the tail and the open-group depth at
  //    the target.
  Lsn tail = kInvalidLsn;
  int open_groups_at_target = 0;
  {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                         LogManager::Open(env, log_name));
    LLB_RETURN_IF_ERROR(log->Scan(1, [&](const LogRecord& rec) {
      tail = rec.lsn;
      if (rec.lsn <= target) {
        if (rec.IsGroupBegin()) ++open_groups_at_target;
        if (rec.IsGroupEnd()) --open_groups_at_target;
      }
      return Status::OK();
    }));
  }
  if (tail == kInvalidLsn || target > tail) {
    return Status::InvalidArgument(
        "point-in-time target " + std::to_string(target) +
        " is past the durable log tail " + std::to_string(tail));
  }
  // The exact tail always restores cleanly: it is what a plain (non-PITR)
  // restore produces, even when the log itself ends mid-group after a
  // primary crash.
  if (target != tail && open_groups_at_target > 0) {
    return Status::InvalidArgument(
        "point-in-time target " + std::to_string(target) +
        " cuts a multi-record atomic group in half; pick an LSN outside "
        "the group");
  }

  // 2. Newest complete backup that finished at or before the target.
  //    With a catalog attached, only generations it records as COMPLETE
  //    qualify: a pruned chain whose files linger (crash between the
  //    durable PRUNED mark and the deletion sweep) must never be picked.
  //    Generations the catalog has never heard of stay eligible — that
  //    is the pre-catalog store upgrading in place.
  std::unique_ptr<BackupCatalog> catalog;
  if (!options.catalog_file.empty()) {
    Result<BackupCatalog> opened =
        BackupCatalog::Open(env, options.catalog_file);
    if (!opened.ok()) return opened.status();
    catalog = std::make_unique<BackupCatalog>(std::move(opened).value());
  }
  const std::string kManifestSuffix = ".manifest";
  std::string best_name;
  Lsn best_end = kInvalidLsn;
  for (const std::string& file : env->ListFiles()) {
    if (file.size() <= kManifestSuffix.size() ||
        file.compare(file.size() - kManifestSuffix.size(),
                     kManifestSuffix.size(), kManifestSuffix) != 0) {
      continue;
    }
    std::string backup = file.substr(0, file.size() - kManifestSuffix.size());
    if (catalog != nullptr) {
      const BackupGeneration* gen = catalog->Find(backup);
      if (gen != nullptr && gen->state != BackupState::kComplete) continue;
    }
    Result<BackupManifest> manifest = BackupManifest::Load(env, backup);
    if (!manifest.ok() || !manifest->complete) continue;
    if (manifest->end_lsn > target) continue;
    if (best_name.empty() || manifest->end_lsn > best_end) {
      best_name = backup;
      best_end = manifest->end_lsn;
    }
  }
  if (best_name.empty()) {
    return Status::FailedPrecondition(
        "point-in-time target " + std::to_string(target) +
        " predates every retained backup; no chain can reach it");
  }

  RestoreOptions effective = options;
  effective.stop_at_lsn = target;
  effective.partition_only = false;
  return RestoreFromBackupWithOptions(env, stable_prefix, log_name, best_name,
                                      registry, effective);
}

}  // namespace llb
