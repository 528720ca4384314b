#ifndef LLB_TORTURE_TORTURE_UTIL_H_
#define LLB_TORTURE_TORTURE_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "db/database.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"

namespace llb {

/// A Database opened over MemEnv wrapped in a FaultyEnv, so torture runs
/// can combine both fault layers: MemEnv's FaultInjector schedules the
/// *crash* (k-th durability event, then all IO fails until restart) while
/// FaultyEnv's FaultPolicy injects *transient* faults (scripted aborts,
/// silent bit-rot) that the pipeline is expected to absorb. TestEngine
/// hardcodes a bare MemEnv, hence this second harness.
struct TortureEngine {
  MemEnv base;
  FaultyEnv env{&base};
  DbOptions options;
  std::string name = "db";
  std::unique_ptr<Database> db;
  /// Warm-standby twin living in the same env (log-shipping scenarios),
  /// so one crash schedule covers primary, transport, and standby events.
  std::string standby_name = "sb";
  std::unique_ptr<Database> standby;
  /// Monotonic suffix for oracle page-store prefixes: a PageStore opened
  /// over an existing prefix sees the old pages, so every oracle built
  /// within one env lifetime needs a fresh prefix.
  uint64_t oracle_seq = 0;

  explicit TortureEngine(const DbOptions& opts) : options(opts) {}

  /// Opens (and crash-recovers) the database. Registers all domain ops.
  Status Open();

  /// Opens (and crash-recovers) the standby twin in standby mode. The
  /// durable role file decides the actual role: a standby promoted before
  /// a crash reopens writable.
  Status OpenStandby();

  /// Opens the database in restoring mode over backup chain `chain`
  /// (Database::OpenRestoring): serves transactions immediately while
  /// instant media recovery proceeds underneath. Resumes a half-done
  /// restore from the durable restored-bitmap when one survived.
  Status OpenRestoring(const std::string& chain);

  /// Closes the database handles without a crash (volatile state of the
  /// env is preserved; used before off-line media recovery).
  void Shutdown() {
    db.reset();
    standby.reset();
  }
};

namespace torture {

/// Durable restore-in-progress marker. Written before S is wiped for an
/// off-line restore and removed once the restored state verified; after a
/// crash its presence tells salvage that S may be mid-restore garbage
/// which plain crash redo cannot rebuild (the checkpoint's redo start
/// point assumes the pre-crash S, not a half-copied one).
inline constexpr char kRestoreMarker[] = "db.restoring";

Status SetRestoreMarker(Env* env);
Status ClearRestoreMarker(Env* env);

/// Oracle check of the stable database while the engine is open: full-log
/// re-execution from an empty store must equal S page for page.
Status VerifyOpenDb(TortureEngine* engine);

/// Same oracle check against any open database in the engine's env —
/// e.g. the standby twin, whose own log (fed by replication) must equal
/// its stable store after every drain and after every crash recovery.
/// All flushed state must be durable (the caller just drained/flushed).
Status VerifyDbAgainstOwnLog(TortureEngine* engine, Database* db);

/// Oracle check with the database closed; `end_lsn` caps the replay for
/// point-in-time restores (kInvalidLsn = whole log).
Status VerifyStableOffline(TortureEngine* engine, Lsn end_lsn);

/// Zeroes every partition of S (simulated media failure).
Status WipeStable(TortureEngine* engine);

/// Off-line media recovery from backup `chain` with roll-forward capped
/// at `stop_at_lsn` (kInvalidLsn = end of log). Restartable: safe to
/// re-run after a crash mid-restore. `base` carries the bulk-transfer
/// knobs (batch_pages / queue_depth / threads) a scenario wants exercised;
/// its stop_at_lsn / partition fields are overridden here.
Status OfflineRestore(TortureEngine* engine, const std::string& chain,
                      Lsn stop_at_lsn, RestoreOptions base = {});

/// Off-line point-in-time restore of the engine's primary to exactly
/// `target` (RestoreToPointInTime picks the chain itself). Restartable
/// like OfflineRestore.
Status OfflinePitr(TortureEngine* engine, Lsn target, RestoreOptions base = {});

}  // namespace torture
}  // namespace llb

#endif  // LLB_TORTURE_TORTURE_UTIL_H_
