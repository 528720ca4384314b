#ifndef LLB_RECOVERY_MEDIA_RECOVERY_H_
#define LLB_RECOVERY_MEDIA_RECOVERY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "backup/backup_store.h"
#include "common/result.h"
#include "io/env.h"
#include "ops/op_registry.h"
#include "recovery/redo.h"

namespace llb {

/// The *plan phase* of media recovery, shared by offline restore and
/// instant restore: the backup's incremental chain (base first) plus the
/// newest-wins carrier index. Every page position is read from exactly
/// one chain member — the newest one carrying it — so chain application
/// never writes a page only to overwrite it.
struct RestoreChainPlan {
  std::vector<BackupManifest> chain;  // base first, restore target last
  /// Chain index of the newest member carrying the page. Positions absent
  /// from every incremental (i.e. only in the base full backup) are not
  /// in the map; CarrierOf resolves them to index 0.
  std::unordered_map<uint64_t, size_t> newest_carrier;

  static uint64_t Key(const PageId& id) {
    return (uint64_t{id.partition} << 32) | id.page;
  }

  const BackupManifest& base() const { return chain.front(); }
  const BackupManifest& newest() const { return chain.back(); }

  size_t CarrierOf(const PageId& id) const {
    auto it = newest_carrier.find(Key(id));
    return it == newest_carrier.end() ? 0 : it->second;
  }

  /// Groups a partition-major sorted page list by carrying chain member:
  /// result[i] holds the pages to read from chain[i], preserving the
  /// input order so TransferPlan::AddPages coalesces adjacent survivors.
  std::vector<std::vector<PageId>> Claims(
      const std::vector<PageId>& pages) const {
    std::vector<std::vector<PageId>> claims(chain.size());
    for (const PageId& id : pages) claims[CarrierOf(id)].push_back(id);
    return claims;
  }
};

/// Loads `backup_name`'s manifest chain (walking incremental -> base) and
/// builds the newest-carrier index. Fails if any member is incomplete or
/// an incremental lacks its base.
Result<RestoreChainPlan> LoadRestoreChain(Env* env,
                                          const std::string& backup_name);

struct MediaRecoveryReport {
  uint64_t pages_restored = 0;   // pages copied from backups into S
  uint32_t backups_applied = 0;  // full + incremental chain length
  RedoReport redo;               // the roll-forward
};

/// Media recovery (paper section 1): restore the stable database S from
/// backup B, then roll the restored state forward by applying the media
/// recovery log from the backup's recorded scan start point.
///
/// `stable_prefix` names S's page store, `log_name` the recovery log, and
/// `backup_name` the backup to restore from. If the backup is incremental
/// the base chain is restored first (paper 6.1).
///
/// Must run offline (no live Database over `stable_prefix`), as in the
/// paper: "restoring ... is usually done off-line because media failure
/// frequently precludes database activity".
Result<MediaRecoveryReport> RestoreFromBackup(Env* env,
                                              const std::string& stable_prefix,
                                              const std::string& log_name,
                                              const std::string& backup_name,
                                              const OpRegistry& registry);

/// Restore options for the extended entry point.
struct RestoreOptions {
  /// Roll forward only up to this LSN (point-in-time recovery; the paper
  /// notes recovery may target "some designated earlier time"). 0 / max
  /// means the end of the log.
  Lsn stop_at_lsn = kInvalidLsn;

  /// When set, restore only this partition: its pages are copied from
  /// the backup chain and only operations writing it are replayed. Sound
  /// because operations never span partitions ("preventing operations
  /// from having operands from more than one partition makes a partition
  /// the unit of media recovery", paper 6.3). Other partitions of S are
  /// left untouched.
  bool partition_only = false;
  PartitionId partition = 0;

  /// Pages per bulk B -> S device IO (the restore's K, mirroring
  /// BackupJobOptions::batch_pages). <= 1 restores page at a time.
  /// Restore runs offline, so there is no fence protocol to respect —
  /// batching is purely a throughput knob and the default is batched.
  uint32_t batch_pages = 32;
  /// Runs in flight per restore worker (TransferOptions::queue_depth),
  /// via Env::OpenAsync. <= 1 moves one run at a time.
  uint32_t queue_depth = 0;
  /// Concurrent restore workers; partitions are sharded across them
  /// exactly like the parallel backup sweep (each partition's pages stay
  /// on one worker). 1 = serial. RTO scales with workers the way
  /// bench_x8 shows.
  uint32_t threads = 1;

  /// Backup catalog cell (BackupCatalog::FileName) to resolve restore
  /// targets through. Point-in-time restore then skips any generation
  /// the catalog does not list as COMPLETE — a pruned chain whose files
  /// linger (crash between the durable PRUNED mark and the deletion
  /// sweep) is never picked. Empty: manifest scan only (pre-catalog
  /// stores).
  std::string catalog_file;
};

Result<MediaRecoveryReport> RestoreFromBackupWithOptions(
    Env* env, const std::string& stable_prefix, const std::string& log_name,
    const std::string& backup_name, const OpRegistry& registry,
    const RestoreOptions& options);

/// Point-in-time restore to exactly `target`:
///
///   1. Validates the cut. The target must lie in [1, durable log tail]
///      (LSNs are dense) and must not fall inside a multi-record atomic
///      group (LogRecord::kGroupBegin/kGroupEnd — e.g. a logical B-tree
///      split): stopping mid-group would materialize a half-applied
///      structure modification. The exact durable tail is always
///      accepted — it equals a plain full restore, including a tail that
///      itself ends mid-group after a primary crash.
///   2. Picks the restore chain: among all complete manifests in `env`,
///      the backup with the greatest end_lsn <= target (roll-forward
///      never rolls back, so a backup that finished after the target
///      cannot reach it). No such backup -> FailedPrecondition: the
///      target predates the oldest retained backup.
///   3. Delegates to RestoreFromBackupWithOptions with stop_at_lsn =
///      target, which also truncates the excluded log suffix.
///
/// `options.stop_at_lsn` and `options.partition_only` are ignored (PITR
/// is whole-database); the bulk-transfer knobs are honored.
Result<MediaRecoveryReport> RestoreToPointInTime(
    Env* env, const std::string& stable_prefix, const std::string& log_name,
    Lsn target, const OpRegistry& registry, const RestoreOptions& options = {});

}  // namespace llb

#endif  // LLB_RECOVERY_MEDIA_RECOVERY_H_
