#ifndef LLB_TORTURE_CRASH_SWEEPER_H_
#define LLB_TORTURE_CRASH_SWEEPER_H_

#include <cstdint>
#include <functional>
#include <string>

#include "torture/torture_util.h"

namespace llb {

/// The pipeline stage mix a crash sweep exercises. Every scenario is a
/// deterministic end-to-end script: workload -> checkpoint -> backup
/// machinery -> more workload, with scenario-specific fault seasoning.
enum class ScenarioKind {
  /// Full backup with mid-step updates (Doubt-window flushes), then an
  /// incremental chained to it, then post-backup updates.
  kBackup,
  /// A scripted transient write fault aborts the sweep mid-partition;
  /// updates run while the fences are still up; Resume completes the
  /// backup from its durable cursor.
  kResume,
  /// A scripted silent bit-flip rots one backup page during the sweep;
  /// VerifyBackup detects it and ScrubBackup repairs it from S under the
  /// fence protocol.
  kScrub,
  /// Full + incremental chain, shutdown, wipe of S, point-in-time restore
  /// (verified against a log-prefix oracle), then full restore to the end
  /// of the log and reopen.
  kRestore,
  /// The batched sweep pipeline: a batched full backup with
  /// mid-step updates, then a scripted transient fault that kills one
  /// batched (multi-page) write mid-step, updates under the still-up
  /// fences, a batched Resume from the mid-sweep durable cursor, and a
  /// batched incremental (scattered changed pages exercise run
  /// splitting). Gives every batch fence advance and buffered run write
  /// every-event crash coverage plus nested crashes.
  kBatchedBackup,
  /// The multi-threaded partitioned sweep: a parallel full backup
  /// (sweep_threads workers sharding the partitions) whose partition-1
  /// sweeper is killed mid-step by a scripted fault while partition 0
  /// completes, updates under the still-up partition-1 fences, a parallel
  /// Resume from the merged durable cursor (partition 0 skipped, 1
  /// continued), then a parallel incremental. The workload and the
  /// mid-step hook touch only partition 0, so the durability-event total
  /// is deterministic no matter how the sweep workers interleave.
  kParallelBackup,
  /// The batched + parallel restore path: full + incremental chain, then
  /// the kRestore sequence (PITR restore, full restore, reopen) executed
  /// through the TransferPipeline with multi-page runs, queue_depth runs
  /// in flight, and >= 2 restore workers sharding the partitions. Crashes
  /// land mid-parallel-restore: the restore-marker protocol must route
  /// salvage to a re-restore (itself parallel) rather than plain crash
  /// redo, including nested crashes during that salvage restore. The
  /// durability-event TOTAL stays deterministic because each restore
  /// writes a fixed run set — worker interleaving permutes event order
  /// only, and the sweeper's contract is count-based.
  kParallelRestore,
  /// Log shipping to a warm standby living in the same env: the primary
  /// workload streams sealed segments through a FileShipChannel spool to
  /// a standby-mode twin database, with a scripted transient send fault
  /// (absorbed by the shipper's bounded retry) and a scripted torn frame
  /// (the envelope crc hides it from Poll; the applier observes the gap
  /// and the shipper's Resync NAK path repairs it). Then: a full backup
  /// with replication flowing through the mid-step hook, a PITR target
  /// recorded at a quiescent boundary, further updates, a full drain to
  /// zero measured lag, promotion of the standby to a writable primary
  /// (its own writes verified against its own log), and a point-in-time
  /// restore of the old primary to the recorded target. Crashes land on
  /// every durability event of ship -> apply -> promote -> PITR replay;
  /// salvage reopens both sides by durable role, re-attaches replication
  /// from the durable ship cursor, and requires oracle-verified
  /// convergence (except when the primary was PITR-rewound behind the
  /// standby, where a real deployment rebuilds the follower).
  kLogShipping,
  /// Instant restore: full + incremental chain, media failure (wipe of
  /// S), then the database reopens *restoring* — transactions run
  /// immediately against the wiped store, faulting each touched page's
  /// influence closure in from the chain on demand, interleaved with
  /// background RestoreStep sweeps, then FinishRestore. Crashes land on
  /// every durability event of the restore window, including
  /// mid-on-demand-fault (between a closure install and its bitmap
  /// save); salvage resumes the instant restore from the durable
  /// restored-bitmap — or restarts it when the crash beat the bitmap's
  /// first save — never plain crash redo over a half-restored store.
  kInstantRestore,
  /// Backup catalog retention under crashes, with compressed (format-v2)
  /// stores: full + incremental chain, a second full that dedups against
  /// the first, then PruneBackups(keep_chains=1) — so the second full's
  /// dedup edge must pin the first full while the incremental is pruned.
  /// Crash points land on every durability event: each catalog Begin /
  /// Complete save, the durable PRUNED mark, and the file-deletion
  /// sweep. Salvage resolves chains through the catalog: CREATING
  /// generations are cancelled (Resume's fence precondition died with
  /// the process), retention re-runs (idempotently finishing an
  /// interrupted tombstone sweep), every catalog-COMPLETE generation
  /// must still have all its chain links on disk, tombstoned
  /// generations must have no files left, and the newest complete
  /// generation must restore to the oracle state.
  kCatalogPrune,
  /// Batched write-back: general logical ops (one-page Copy, each often
  /// followed by a Transform of its source, so the copy's node must
  /// install first; every fourth such Transform also rewrites the copy's
  /// target, a two-page node) over more pages than the cache holds and
  /// with no explicit flushes, so dirty evictions install flat batches,
  /// batches written in several write-graph levels, and two-page nodes
  /// installed through identity writes of both pages. One workload pass
  /// runs with no backup, one inside a full backup's mid-step hook (Iw/oF
  /// decisions on every batch). The clean run fails unless flat and
  /// multi-level batches ran and a multi-var node was installed through
  /// identity writes.
  kWriteBack,
  /// Segmented-log truncation: a full backup, then TruncateLog cutting
  /// at its start (inside the file the truncation's roll seals), bulk
  /// logging past kLogRollBytes so the active file rolls on size, an
  /// incremental, a second TruncateLog cutting at the incremental's start
  /// (inside the active file; the older sealed files are unlinked), and
  /// a point-in-time restore to a target logged before that truncation.
  /// Crash points land on every durability event around the rolls, the
  /// unlinks, their re-anchoring checkpoints and the PITR cut; the oracle
  /// replays the truncated prefix from an archive kept off the crash
  /// schedule (torture::ArchiveLog). The clean run fails unless at least
  /// one size roll and one multi-file unlink happened.
  kLogTruncate,
};

const char* ScenarioKindName(ScenarioKind kind);

/// Geometry and workload knobs of one torture scenario. Everything is
/// deterministic for a given options value: re-running a scenario replays
/// the identical durability-event sequence, which is what lets the
/// sweeper crash at event k of run j and know the pre-crash state.
struct ScenarioOptions {
  ScenarioKind kind = ScenarioKind::kBackup;
  /// Varies workload keys/choices; the dbtool entry point exposes it so
  /// a failing sweep is reproducible from the command line.
  uint64_t seed = 1;
  /// kTree runs a logically-split B-tree workload under BackupPolicy
  /// kTree; anything else runs general logical ops (FileStore Copy /
  /// Transform) under BackupPolicy kGeneral.
  WriteGraphKind graph = WriteGraphKind::kTree;
  uint32_t partitions = 1;
  /// Workload size is the event-count throttle: sweeps are quadratic in
  /// the scenario's durability events, so CI scenarios stay small.
  uint32_t pages_per_partition = 32;
  uint32_t cache_pages = 16;
  uint32_t backup_steps = 4;
  uint32_t updates_pre = 20;   // workload steps before the first backup
  uint32_t updates_mid = 2;    // workload steps per backup mid-step hook
  uint32_t updates_post = 8;   // workload steps after each backup
  /// Sweep batching for kBatchedBackup (and the engine's DbOptions):
  /// pages per backup IO. The default sweeps one page per run.
  uint32_t batch_pages = 1;
  /// Runs in flight for the scenario's bulk transfers (see
  /// TransferOptions::queue_depth). Crash scheduling is unaffected:
  /// durability events stay on the scenario thread in the same count,
  /// which is what the sweeper's countdown injectors key on. <= 1 moves
  /// one run at a time.
  uint32_t queue_depth = 0;
  /// Concurrent sweep workers (kParallelBackup / kParallelRestore need
  /// >= 2 and >= 2 partitions; other scenarios keep the serial default so
  /// their durability-event sequences stay stable). kParallelRestore also
  /// reuses this (and batch_pages / queue_depth) as its RestoreOptions.
  uint32_t sweep_threads = 1;
};

/// How exhaustively to sweep.
struct SweepOptions {
  /// Cap on primary crash points (0 = every durability event).
  uint64_t max_points = 0;
  /// Number of primary crash points that additionally get a *nested*
  /// sweep: after the primary crash, the recovery/salvage sequence is
  /// itself measured and crashed at its own durability events (0 = no
  /// nested crashes).
  uint64_t nested_primary_points = 0;
  /// Cap on nested crash points per chosen primary point (0 = every).
  uint64_t nested_max_points = 0;
  /// Optional progress sink (dbtool wires this to stdout).
  std::function<void(const std::string&)> progress;
};

struct CrashSweepReport {
  uint64_t total_events = 0;          // durability events of the clean run
  uint64_t points_tested = 0;         // primary crash points executed
  uint64_t nested_points_tested = 0;  // nested (second-crash) points
  uint64_t recoveries_verified = 0;   // post-crash S == oracle checks
  uint64_t backups_verified = 0;      // completed chains restored + checked
  uint64_t salvage_scrub_repairs = 0; // rotten chains repaired in salvage
  uint64_t salvage_restores = 0;      // mid-restore crashes re-restored

  std::string ToString() const;
};

/// Enumerates crash points of one pipeline scenario:
///
///   1. run the scenario once under a RecordingInjector -> N durability
///      events, and verify the final state (S and every completed backup
///      chain) against the full-log oracle;
///   2. for each chosen k in [1, N]: re-run with CrashAtEventInjector(k),
///      crash-restart, then *salvage*: recover, verify S against the
///      oracle, and verify/repair/restore any completed backup chain;
///   3. optionally, for chosen primary points, measure the salvage
///      sequence's own M durability events and re-crash at each chosen
///      j in [1, M] (crash during recovery / scrub repair), salvaging
///      again after the nested crash.
///
/// Salvage never resumes an incomplete backup across a crash: the fences
/// that kept Resume sound live in memory and died with the process (see
/// BackupJob::Resume), so an interrupted sweep is abandoned and only
/// *completed* chains are required to restore.
class CrashSweeper {
 public:
  explicit CrashSweeper(ScenarioOptions scenario) : scenario_(scenario) {}

  CrashSweeper(const CrashSweeper&) = delete;
  CrashSweeper& operator=(const CrashSweeper&) = delete;

  Result<CrashSweepReport> Sweep(const SweepOptions& options);

 private:
  DbOptions MakeDbOptions() const;

  /// Executes the scenario pipeline on an open engine. Every IO error
  /// bubbles out; the caller tells a scheduled crash (env blocked) from a
  /// genuine failure.
  Status RunScenario(TortureEngine* engine) const;

  /// Post-crash recovery + verification. Called with the engine freshly
  /// crash-restarted (database closed). On success the engine is left
  /// open and verified.
  Status Salvage(TortureEngine* engine, CrashSweepReport* report) const;

  /// Runs the scenario to the scheduled crash at event `k` and restarts.
  Status CrashScenarioAt(TortureEngine* engine, uint64_t k) const;

  Status RunPrimaryPoint(uint64_t k, CrashSweepReport* report) const;
  Status RunNestedPoints(uint64_t k, const SweepOptions& options,
                         CrashSweepReport* report) const;

  const ScenarioOptions scenario_;
};

}  // namespace llb

#endif  // LLB_TORTURE_CRASH_SWEEPER_H_
