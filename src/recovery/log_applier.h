#ifndef LLB_RECOVERY_LOG_APPLIER_H_
#define LLB_RECOVERY_LOG_APPLIER_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/status.h"
#include "common/types.h"
#include "ops/op_registry.h"
#include "recovery/general_write_graph.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace llb {

struct LogApplierStats {
  uint64_t records_seen = 0;     // non-checkpoint records with writes
  uint64_t records_applied = 0;  // records whose writes were (re)applied
  uint64_t pages_written = 0;    // dirty pages written back by Flush()
  // Pages of multi-var nodes staged on the target's log by Flush().
  uint64_t pages_staged = 0;
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
/// Pages are cached read-through, and applied records join a write
/// graph (GeneralWriteGraph: the cache manager's rules, over the records
/// replayed since the last flush, from the first one that reads a page
/// it does not write or writes several). Flush() writes the dirty pages
/// back in that graph's levels, each durable before the next — the order
/// the cache would install them in, so a crash part-way leaves a state
/// redo can finish from — and drops the cache, bounding memory on
/// long-running (standby) use. A node with several dirty vars cannot be
/// written atomically: with the target's own log, Flush first stages its
/// pages there as kOpReplayIdentity records (identity writes whose seed
/// LSN is the page's own), forces them, writes the level, and cuts the
/// log back once every level is on the target. Without a log (an offline
/// restore target, a scratch or oracle store) the pages are written like
/// the rest; DESIGN.md §3 argues why that is safe there.
///
/// Overlay mode (no target store) replays in place over a caller-owned
/// page map holding every page the records touch — instant restore's
/// private closure overlay. Reading a page outside the map is an error,
/// and Flush() seals the dirty pages in place instead of writing them.
class LogApplier {
 public:
  using PageMap = std::unordered_map<PageId, PageImage, PageIdHash>;

  /// `log` is the target's own log, or null when it has none.
  LogApplier(const OpRegistry& registry, PageStore* target,
             LogManager* log = nullptr)
      : registry_(registry),
        target_(target),
        log_(log),
        pages_(&cache_),
        graph_(std::make_unique<GeneralWriteGraph>()) {}
  LogApplier(const OpRegistry& registry, PageMap* overlay)
      : registry_(registry), target_(nullptr), log_(nullptr), pages_(overlay) {}

  LogApplier(const LogApplier&) = delete;
  LogApplier& operator=(const LogApplier&) = delete;

  /// Installs an identity-write seed if it is newer than the page's
  /// current image. Sets *seeded accordingly (may be null).
  Status SeedPage(const PageId& id, const std::string& value, Lsn lsn,
                  bool* seeded);

  /// Applies one record (see class comment). Records must arrive in
  /// non-decreasing LSN order. kOpReplayIdentity records are skipped:
  /// redo seeds them, and a replay from scratch regenerates their pages.
  Status Apply(const LogRecord& rec);

  /// Writes dirty pages back to the target store in write-graph levels
  /// and drops the cache (overlay mode: seals them in place). After a
  /// failure the dirty pages stay cached, and calling Flush again retries
  /// them and cuts what the failed call staged.
  Status Flush();

  /// Highest LSN passed to Apply (whether or not the LSN test fired).
  Lsn applied_lsn() const { return applied_lsn_; }

  const LogApplierStats& stats() const { return stats_; }

 private:
  Status GetPage(const PageId& id, PageImage** out);

  const OpRegistry& registry_;
  PageStore* const target_;  // null in overlay mode
  LogManager* const log_;    // the target's own log, if any
  PageMap cache_;
  PageMap* const pages_;  // &cache_, or the overlay
  std::unordered_set<PageId, PageIdHash> dirty_;
  /// The records applied since the last Flush (null in overlay mode).
  std::unique_ptr<GeneralWriteGraph> graph_;
  Lsn applied_lsn_ = kInvalidLsn;
  /// First LSN Flush staged on log_ and has not cut yet: a Flush that
  /// failed after staging leaves it for the next one.
  Lsn staged_from_ = kInvalidLsn;
  LogApplierStats stats_;
};

}  // namespace llb

#endif  // LLB_RECOVERY_LOG_APPLIER_H_
