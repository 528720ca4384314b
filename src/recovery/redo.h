#ifndef LLB_RECOVERY_REDO_H_
#define LLB_RECOVERY_REDO_H_

#include <cstdint>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "ops/op_registry.h"
#include "storage/page_store.h"
#include "wal/log_manager.h"

namespace llb {

struct RedoReport {
  Lsn start_lsn = kInvalidLsn;
  uint64_t records_scanned = 0;
  uint64_t ops_replayed = 0;     // records whose writes were (re)applied
  uint64_t pages_seeded = 0;     // pages initialized from identity writes
  uint64_t pages_written = 0;    // pages written back to the target store
};

/// Redo recovery over `target` (the stable database, or a restored
/// backup during media recovery), scanning the log from `start_lsn`.
///
/// Two passes:
///
///  1. *Seeding* — collect the last identity write W_IP(X, log(X)) of
///     every object. Identity values are exactly the mechanism of
///     install-without-flush (paper 3.2): an installed operation's
///     effects may exist only on the log, and its replay from a possibly
///     later read set must be suppressed. Seeding X at the identity LSN
///     accomplishes both: the value is restored, and the per-target LSN
///     test below skips every earlier writer of X. (Seeding is sound
///     precisely for identity writes: the logged value equals what every
///     later uninstalled reader of X actually read. General blind writes
///     are NOT seeded — they replay in order, letting earlier operations
///     regenerate the intermediate values their readers need.)
///
///  2. *Replay* — scan records in LSN order; an operation is replayed if
///     any of its writeset pages has a lower LSN than the record (the
///     LSN-based redo test, per target). Its apply function recomputes
///     all writes from the current images of its readset; only stale
///     targets are updated. This is the "relatively crude" redo test of
///     paper 2.1 — extra replays are harmless by the installation-order
///     discipline the cache manager enforced during normal execution.
///
/// Idempotent: running it again replays nothing.
Result<RedoReport> RunRedo(const LogManager& log, const OpRegistry& registry,
                           PageStore* target, Lsn start_lsn);

/// Extended form:
///  * `end_lsn` stops the roll-forward after that LSN (point-in-time
///    recovery: "roll forward the state to the time of the last committed
///    transaction (or to some designated earlier time)", paper section
///    1). Pass kInvalidLsn / UINT64_MAX for "to the end of the log".
///  * `only_partition`, when non-null, replays only operations whose
///    writes fall in that partition — sound because the engine precludes
///    cross-partition operations, making "a partition the unit of media
///    recovery" (paper 6.3).
///  * `use_identity_seeds` — MUST be true (the default) when recovering a
///    real base (the stable database after a crash, or a restored
///    backup): such bases satisfy the installation invariant — every
///    installed operation's targets are already current — so seeding
///    never lets an earlier operation replay against a too-new read set.
///    Pass false only when re-executing the log from an EMPTY store
///    (the test oracle): there nothing is installed, every operation
///    replays in order, and identity records are applied in-order like
///    physical writes instead of jumping pages forward.
Result<RedoReport> RunRedoRange(const LogManager& log,
                                const OpRegistry& registry, PageStore* target,
                                Lsn start_lsn, Lsn end_lsn,
                                const PartitionId* only_partition,
                                bool use_identity_seeds = true);

/// Whose store a crash redo over the store's own log rebuilds. A store
/// without a log of its own (a restored backup, an oracle, a scratch
/// rebuild) goes through RunRedoRange, which never writes the log.
enum class RedoTarget {
  /// The stable database whose cache wrote the log: its multi-var
  /// installs (kOpInstallIdentity) seed like identity writes.
  kDatabase,
  /// A standby's store. Its log carries the primary's records, whose
  /// multi-var installs were ordered after predecessors installed in the
  /// primary's store, not in this one, so they apply in order.
  kStandby,
};

/// Crash redo of a store that keeps `log` as its own, from `start_lsn` to
/// the end of the log (database open, a standby's open, instant
/// restore's resumed redo). A replayed node with several vars stages its
/// pages on `log` while they are written (LogApplier::Flush), and redo
/// seeds from, then cuts, the staged pages a crash left behind.
Result<RedoReport> RunCrashRedo(LogManager* log, RedoTarget target,
                                const OpRegistry& registry, PageStore* store,
                                Lsn start_lsn);

}  // namespace llb

#endif  // LLB_RECOVERY_REDO_H_
