#include "recovery/redo.h"

#include <limits>
#include <unordered_map>

#include "recovery/log_applier.h"
#include "storage/page.h"

namespace llb {

Result<RedoReport> RunRedo(const LogManager& log, const OpRegistry& registry,
                           PageStore* target, Lsn start_lsn) {
  return RunRedoRange(log, registry, target, start_lsn,
                      std::numeric_limits<Lsn>::max(),
                      /*only_partition=*/nullptr);
}

namespace {

/// The body of both entry points. `own_log` is the scanned log when the
/// target keeps it as its own (RunCrashRedo), else null; `own_installs`
/// when that target is the database whose cache wrote it.
Result<RedoReport> Redo(const LogManager& log, LogManager* own_log,
                        bool own_installs, const OpRegistry& registry,
                        PageStore* target, Lsn start_lsn, Lsn end_lsn,
                        const PartitionId* only_partition,
                        bool use_identity_seeds) {
  RedoReport report;
  report.start_lsn = start_lsn;
  if (end_lsn == kInvalidLsn) end_lsn = std::numeric_limits<Lsn>::max();

  auto in_scope = [&](const LogRecord& rec) {
    if (rec.lsn > end_lsn) return false;
    if (only_partition != nullptr && !rec.writeset.empty() &&
        rec.writeset[0].partition != *only_partition) {
      return false;
    }
    return true;
  };
  // Which identity records seed. Multi-var installs only over the store
  // whose cache logged them; a replay's staged pages (left at the log's
  // tail by a crash mid-Flush) only over the target of that replay,
  // where they seed at the LSN the page carried and are cut again once
  // this replay's pages are on the target.
  auto seeds_from = [&](const LogRecord& rec) {
    if (!use_identity_seeds || rec.writeset.size() != 1) return false;
    return rec.IsIdentityWrite() || (rec.IsInstallIdentity() && own_installs) ||
           (rec.IsReplayIdentity() && own_log != nullptr);
  };

  // Pass 1: last identity value per page.
  struct Seed {
    Lsn lsn = 0;  // the page LSN the seed installs
    std::string value;
  };
  std::unordered_map<PageId, Seed, PageIdHash> seeds;
  Lsn first_staged = kInvalidLsn;
  if (use_identity_seeds) {
    LLB_RETURN_IF_ERROR(log.Scan(start_lsn, [&](const LogRecord& rec) {
      if (!in_scope(rec) || !seeds_from(rec)) return Status::OK();
      Lsn lsn = rec.lsn;
      if (rec.IsReplayIdentity()) {
        if (first_staged == kInvalidLsn) first_staged = rec.lsn;
        lsn = PageImage::FromRaw(rec.payload).lsn();
      }
      Seed& seed = seeds[rec.writeset[0]];
      if (lsn >= seed.lsn) seed = Seed{lsn, rec.payload};
      return Status::OK();
    }));
  }

  // The per-record apply core is shared with the standby applier
  // (recovery/log_applier.h); this function contributes the seeding pass
  // and the scan-driven scoping around it.
  LogApplier applier(registry, target, own_log);

  // Apply seeds newer than the stored page.
  for (const auto& [id, seed] : seeds) {
    bool seeded = false;
    LLB_RETURN_IF_ERROR(applier.SeedPage(id, seed.value, seed.lsn, &seeded));
    if (seeded) ++report.pages_seeded;
  }

  // Pass 2: replay with the per-target LSN test.
  Status scan_status = log.Scan(start_lsn, [&](const LogRecord& rec) {
    if (!in_scope(rec)) return Status::OK();
    ++report.records_scanned;
    if (rec.IsCheckpoint()) return Status::OK();
    // Identity records: consumed in pass 1 when they seed; applied
    // in-order like physical blind writes otherwise.
    if (seeds_from(rec)) return Status::OK();
    return applier.Apply(rec);
  });
  LLB_RETURN_IF_ERROR(scan_status);

  LLB_RETURN_IF_ERROR(applier.Flush());
  if (own_log != nullptr && first_staged != kInvalidLsn) {
    LLB_RETURN_IF_ERROR(own_log->TruncateAfter(first_staged - 1));
  }
  report.ops_replayed = applier.stats().records_applied;
  report.pages_written = applier.stats().pages_written;
  return report;
}

}  // namespace

Result<RedoReport> RunRedoRange(const LogManager& log,
                                const OpRegistry& registry, PageStore* target,
                                Lsn start_lsn, Lsn end_lsn,
                                const PartitionId* only_partition,
                                bool use_identity_seeds) {
  return Redo(log, /*own_log=*/nullptr, /*own_installs=*/false, registry,
              target, start_lsn, end_lsn, only_partition, use_identity_seeds);
}

Result<RedoReport> RunCrashRedo(LogManager* log, RedoTarget target,
                                const OpRegistry& registry, PageStore* store,
                                Lsn start_lsn) {
  return Redo(*log, log, target == RedoTarget::kDatabase, registry, store,
              start_lsn, std::numeric_limits<Lsn>::max(),
              /*only_partition=*/nullptr, /*use_identity_seeds=*/true);
}

}  // namespace llb
