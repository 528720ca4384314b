#ifndef LLB_RECOVERY_LOG_APPLIER_H_
#define LLB_RECOVERY_LOG_APPLIER_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "common/types.h"
#include "ops/op_registry.h"
#include "storage/page_store.h"
#include "wal/log_record.h"

namespace llb {

struct LogApplierStats {
  uint64_t records_seen = 0;     // non-checkpoint records with writes
  uint64_t records_applied = 0;  // records whose writes were (re)applied
  uint64_t pages_written = 0;    // dirty pages written back by Flush()
};

/// Applies log records to a page store, in LSN order, one at a time: the
/// incremental core of redo. Crash/media recovery (RunRedoRange) drives
/// it over a log scan; the standby applier drives it over shipped
/// segments, forever, flushing between batches.
///
/// Semantics per record (the redo rules of recovery/redo.h pass 2): a
/// record is applied iff any of its writeset pages carries an LSN below
/// the record's (the per-target LSN test, which makes application
/// idempotent); its apply function recomputes all writes from the current
/// readset images; only stale targets are updated. Identity writes are
/// applied in order like physical blind writes — callers that instead
/// seed them (crash recovery pass 1) filter them out before calling
/// Apply and install the seeds via SeedPage.
///
/// Pages are cached read-through; Flush() writes the dirty ones back as
/// one crash-atomic batch and drops the cache, bounding memory on
/// long-running (standby) use.
///
/// Overlay mode (no target store) replays in place over a caller-owned
/// page map holding every page the records touch — instant restore's
/// private closure overlay. Reading a page outside the map is an error,
/// and Flush() seals the dirty pages in place instead of writing them.
class LogApplier {
 public:
  using PageMap = std::unordered_map<PageId, PageImage, PageIdHash>;

  LogApplier(const OpRegistry& registry, PageStore* target)
      : registry_(registry), target_(target), pages_(&cache_) {}
  LogApplier(const OpRegistry& registry, PageMap* overlay)
      : registry_(registry), target_(nullptr), pages_(overlay) {}

  LogApplier(const LogApplier&) = delete;
  LogApplier& operator=(const LogApplier&) = delete;

  /// Installs an identity-write seed if it is newer than the page's
  /// current image. Sets *seeded accordingly (may be null).
  Status SeedPage(const PageId& id, const std::string& value, Lsn lsn,
                  bool* seeded);

  /// Applies one record (see class comment). Records must arrive in
  /// non-decreasing LSN order.
  Status Apply(const LogRecord& rec);

  /// Writes dirty pages back to the target store and drops the cache
  /// (overlay mode: seals them in place).
  Status Flush();

  /// Highest LSN passed to Apply (whether or not the LSN test fired).
  Lsn applied_lsn() const { return applied_lsn_; }

  const LogApplierStats& stats() const { return stats_; }

 private:
  Status GetPage(const PageId& id, PageImage** out);

  const OpRegistry& registry_;
  PageStore* const target_;  // null in overlay mode
  PageMap cache_;
  PageMap* const pages_;  // &cache_, or the overlay
  std::unordered_set<PageId, PageIdHash> dirty_;
  Lsn applied_lsn_ = kInvalidLsn;
  LogApplierStats stats_;
};

}  // namespace llb

#endif  // LLB_RECOVERY_LOG_APPLIER_H_
