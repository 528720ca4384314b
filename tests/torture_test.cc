#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "filestore/filestore.h"
#include "sim/harness.h"
#include "tests/test_util.h"
#include "torture/concurrent_torture.h"
#include "torture/crash_sweeper.h"
#include "torture/torture_util.h"

namespace llb {
namespace {

/// Crash-point sweeps: every scenario runs once to count its durability
/// events, then once per crash point k, recovering and verifying S (and
/// any completed backup chain) against the full-log oracle each time.
/// Workload sizes are the CI throttle — sweeps are quadratic in the
/// event count (see ScenarioOptions), so scenarios here stay small.

ScenarioOptions SmallScenario(ScenarioKind kind, WriteGraphKind graph) {
  ScenarioOptions scenario;
  scenario.kind = kind;
  scenario.graph = graph;
  scenario.seed = 7;
  scenario.pages_per_partition = 32;
  scenario.cache_pages = 16;
  scenario.backup_steps = 4;
  scenario.updates_pre = 10;
  scenario.updates_mid = 2;
  scenario.updates_post = 4;
  return scenario;
}

CrashSweepReport SweepAllPoints(ScenarioKind kind, WriteGraphKind graph) {
  CrashSweeper sweeper(SmallScenario(kind, graph));
  Result<CrashSweepReport> report = sweeper.Sweep(SweepOptions{});
  EXPECT_OK(report.status());
  return report.ok() ? *report : CrashSweepReport{};
}

TEST(CrashSweepTest, BackupScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kBackup, WriteGraphKind::kGeneral);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  // Every crash point recovered and verified against the oracle.
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  // Late crash points leave completed chains behind; each was restored.
  EXPECT_GT(report.backups_verified, 0u);
}

TEST(CrashSweepTest, ResumeScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kResume, WriteGraphKind::kTree);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
}

TEST(CrashSweepTest, ScrubScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kScrub, WriteGraphKind::kTree);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
  // Crash points between backup completion and the scenario's scrub leave
  // injected rot in a *complete* chain; salvage must detect + repair it.
  EXPECT_GT(report.salvage_scrub_repairs, 0u);
}

TEST(CrashSweepTest, BatchedBackupScenarioAllPoints) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kBatchedBackup, WriteGraphKind::kGeneral);
  // 32 pages / 4 steps = 8-page steps; batch 4 gives two buffered run
  // writes per step, so crashes land between the batch writes of one
  // step as well as on fence-advance and cursor events. queue_depth
  // routes the batched runs through the async deep-queue backend; the
  // durability-event count must stay deterministic regardless.
  scenario.batch_pages = 4;
  scenario.queue_depth = 4;
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(SweepOptions{}));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
}

TEST(NestedCrashTest, CrashDuringRecoveryAfterBatchedBackupCrash) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kBatchedBackup, WriteGraphKind::kTree);
  scenario.batch_pages = 4;
  scenario.queue_depth = 4;
  SweepOptions options;
  options.max_points = 4;
  options.nested_primary_points = 3;
  options.nested_max_points = 8;
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.nested_points_tested, 0u);
}

TEST(CrashSweepTest, ParallelBackupScenarioAllPoints) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kParallelBackup, WriteGraphKind::kGeneral);
  // Two partitions sharded across two pool workers; the scenario's
  // scripted fault kills partition 1's sweeper mid-step while partition 0
  // completes, so crash points land before, during, and after the
  // parallel abort + parallel Resume + parallel incremental.
  scenario.partitions = 2;
  scenario.sweep_threads = 2;
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(SweepOptions{}));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
}

TEST(CrashSweepTest, RestoreScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kRestore, WriteGraphKind::kGeneral);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_GT(report.backups_verified, 0u);
  // Crash points inside the wipe/restore window must take the marker
  // path: off-line re-restore instead of (unsound) crash redo.
  EXPECT_GT(report.salvage_restores, 0u);
}

TEST(CrashSweepTest, ParallelRestoreScenarioAllPoints) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kParallelRestore, WriteGraphKind::kGeneral);
  // Two partitions so the restore workers actually shard; multi-page
  // batched runs over the async deep-queue backend. Crash
  // points inside the wipe/restore window must take the marker path and
  // re-run the *parallel* restore.
  scenario.partitions = 2;
  scenario.sweep_threads = 2;
  scenario.batch_pages = 8;
  scenario.queue_depth = 4;
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(SweepOptions{}));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
  EXPECT_GT(report.salvage_restores, 0u);
}

TEST(CrashSweepTest, InstantRestoreScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kInstantRestore, WriteGraphKind::kGeneral);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_GT(report.backups_verified, 0u);
  // Crash points inside the wipe/instant-restore window — including
  // between a closure install and its bitmap save — resume the instant
  // restore from the durable bitmap (or restart it from scratch) rather
  // than running plain crash redo over a half-restored store.
  EXPECT_GT(report.salvage_restores, 0u);
}

TEST(CrashSweepTest, InstantRestoreScenarioTreeGraph) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kInstantRestore, WriteGraphKind::kTree);
  SweepOptions options;
  options.max_points = 24;  // general graph gets the all-points sweep above
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_LE(report.points_tested, 24u);
  EXPECT_GT(report.recoveries_verified, 0u);
}

TEST(NestedCrashTest, CrashDuringInstantRestoreSalvage) {
  SweepOptions options;
  options.max_points = 4;
  options.nested_primary_points = 3;
  options.nested_max_points = 8;
  CrashSweeper sweeper(
      SmallScenario(ScenarioKind::kInstantRestore, WriteGraphKind::kGeneral));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.nested_points_tested, 0u);
}

TEST(CrashSweepTest, LogShippingScenarioAllPoints) {
  CrashSweepReport report =
      SweepAllPoints(ScenarioKind::kLogShipping, WriteGraphKind::kTree);
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  // Crash points after the standby exists salvage BOTH sides (primary +
  // standby oracle checks), so recoveries exceed the point count.
  EXPECT_GT(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
  // Crash points inside the PITR window take the marker path.
  EXPECT_GT(report.salvage_restores, 0u);
}

TEST(CrashSweepTest, LogShippingScenarioGeneralGraph) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kLogShipping, WriteGraphKind::kGeneral);
  SweepOptions options;
  options.max_points = 24;  // tree graph gets the all-points sweep above
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_LE(report.points_tested, 24u);
  EXPECT_GT(report.recoveries_verified, report.points_tested);
}

TEST(NestedCrashTest, CrashDuringLogShippingSalvage) {
  SweepOptions options;
  options.max_points = 4;
  options.nested_primary_points = 3;
  options.nested_max_points = 8;
  CrashSweeper sweeper(
      SmallScenario(ScenarioKind::kLogShipping, WriteGraphKind::kTree));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.nested_points_tested, 0u);
}

TEST(CrashSweepTest, SweepIsDeterministic) {
  SweepOptions options;
  options.max_points = 10;
  CrashSweeper a(SmallScenario(ScenarioKind::kBackup, WriteGraphKind::kTree));
  CrashSweeper b(SmallScenario(ScenarioKind::kBackup, WriteGraphKind::kTree));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport ra, a.Sweep(options));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport rb, b.Sweep(options));
  EXPECT_EQ(ra.total_events, rb.total_events);
  EXPECT_EQ(ra.points_tested, rb.points_tested);
  EXPECT_EQ(ra.recoveries_verified, rb.recoveries_verified);
  EXPECT_EQ(ra.backups_verified, rb.backups_verified);
  EXPECT_EQ(ra.ToString(), rb.ToString());
}

/// Nested crashes: crash at event k, then crash the recovery/salvage that
/// follows at its own event j, then salvage for real. Early j values land
/// inside crash recovery's redo, late ones inside chain verification and
/// the salvage restore — including the scrub-repair path for kScrub.

TEST(NestedCrashTest, CrashDuringRecoveryAfterBackupCrash) {
  SweepOptions options;
  options.max_points = 4;  // primary-only points kept cheap
  options.nested_primary_points = 3;
  options.nested_max_points = 8;
  CrashSweeper sweeper(
      SmallScenario(ScenarioKind::kBackup, WriteGraphKind::kGeneral));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.nested_points_tested, 0u);
}

TEST(NestedCrashTest, CrashDuringScrubRepairSalvage) {
  SweepOptions options;
  options.max_points = 4;
  options.nested_primary_points = 3;
  options.nested_max_points = 8;
  CrashSweeper sweeper(
      SmallScenario(ScenarioKind::kScrub, WriteGraphKind::kTree));
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.nested_points_tested, 0u);
}

/// Deterministic flush-vs-fence interleaving: a mid-step hook runs while
/// the Doubt window [D, P) is real (P advanced, pages not yet copied) and
/// flushes one page per region. Under BackupPolicy::kGeneral the protocol
/// is exact: Done and Doubt flushes take the identity-write path and are
/// logged; Pend flushes are not.
TEST(FenceProtocolTest, MidStepFlushPerRegionTakesExactPath) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 32;
  options.cache_pages = 16;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  TortureEngine engine(options);
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();

  // One-page files: file i occupies exactly page i.
  FileStore files(db, /*partition=*/0, /*base_page=*/0, /*pages_per_file=*/1,
                  /*num_files=*/32);
  for (uint32_t f = 0; f < 32; ++f) {
    ASSERT_OK(files.WriteValues(f, {static_cast<int64_t>(f), 1}));
  }
  ASSERT_OK(db->FlushAll());
  ASSERT_OK(db->Checkpoint());

  // steps=4 over 32 pages: during step 2 (1-based, P advanced to 16,
  // D still 8) the regions are
  // Done = [0, 8), Doubt = [8, 16), Pend = [16, 32).
  auto flush_file = [&](uint32_t f) -> Status {
    LLB_RETURN_IF_ERROR(files.WriteValues(f, {static_cast<int64_t>(f), 2}));
    return db->FlushPage(files.PagesOf(f)[0]);
  };
  bool checked = false;
  BackupJobOptions job;
  job.steps = 4;
  job.mid_step = [&](PartitionId, uint32_t step) -> Status {
    if (step != 2) return Status::OK();
    checked = true;
    CacheStats before = db->cache()->stats();
    LLB_RETURN_IF_ERROR(flush_file(2));  // Done
    CacheStats after_done = db->cache()->stats();
    EXPECT_EQ(after_done.region_done, before.region_done + 1);
    EXPECT_EQ(after_done.identity_writes, before.identity_writes + 1);
    EXPECT_EQ(after_done.decisions_logged, before.decisions_logged + 1);

    LLB_RETURN_IF_ERROR(flush_file(10));  // Doubt
    CacheStats after_doubt = db->cache()->stats();
    EXPECT_EQ(after_doubt.region_doubt, after_done.region_doubt + 1);
    EXPECT_EQ(after_doubt.identity_writes, after_done.identity_writes + 1);
    EXPECT_EQ(after_doubt.decisions_logged, after_done.decisions_logged + 1);

    LLB_RETURN_IF_ERROR(flush_file(20));  // Pend
    CacheStats after_pend = db->cache()->stats();
    EXPECT_EQ(after_pend.region_pend, after_doubt.region_pend + 1);
    EXPECT_EQ(after_pend.identity_writes, after_doubt.identity_writes);
    EXPECT_EQ(after_pend.decisions_logged, after_doubt.decisions_logged);
    return Status::OK();
  };
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                       db->TakeBackupWithOptions("fence_bk", job));
  EXPECT_TRUE(manifest.complete);
  EXPECT_TRUE(checked);

  // The chain took identity writes mid-sweep; it must still verify and
  // carry a full media recovery.
  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("fence_bk"));
  EXPECT_TRUE(verify.clean());
  ASSERT_OK(torture::VerifyOpenDb(&engine));
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "fence_bk", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

/// Racing flushes vs a live sweep: a foreground thread hammers writes and
/// flushes while the backup advances the fences. The kGeneral decision
/// counters are exact, so even under an arbitrary interleaving:
///   decisions_logged == region_done + region_doubt
///   decisions - decisions_logged == region_pend
TEST(FenceProtocolTest, RacingFlushesKeepDecisionCountersExact) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 64;
  options.cache_pages = 32;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  TortureEngine engine(options);
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();

  FileStore files(db, 0, 0, 1, 64);
  for (uint32_t f = 0; f < 64; ++f) {
    ASSERT_OK(files.WriteValues(f, {static_cast<int64_t>(f)}));
  }
  ASSERT_OK(db->FlushAll());
  ASSERT_OK(db->Checkpoint());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> flushes{0};
  Status flusher_status;
  std::thread flusher([&] {
    uint64_t x = 1;
    while (!stop.load(std::memory_order_acquire)) {
      uint32_t f = static_cast<uint32_t>((x * 2654435761u) % 64);
      x++;
      Status s = files.WriteValues(f, {static_cast<int64_t>(x)});
      if (s.ok()) s = db->FlushPage(files.PagesOf(f)[0]);
      if (!s.ok()) {
        flusher_status = s;
        return;
      }
      flushes.fetch_add(1, std::memory_order_release);
    }
  });
  // Each step waits (bounded) for the flusher to land at least one flush
  // while the fences are up, so the sweep genuinely overlaps updates even
  // on a loaded machine where the flusher thread would otherwise starve.
  BackupJobOptions job;
  job.steps = 8;
  job.mid_step = [&](PartitionId, uint32_t) -> Status {
    uint64_t seen = flushes.load(std::memory_order_acquire);
    for (int spin = 0; spin < (1 << 20); ++spin) {
      if (flushes.load(std::memory_order_acquire) > seen) break;
      std::this_thread::yield();
    }
    return Status::OK();
  };
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(
        BackupManifest manifest,
        db->TakeBackupWithOptions("race_bk_" + std::to_string(i), job));
    EXPECT_TRUE(manifest.complete);
  }
  stop.store(true, std::memory_order_release);
  flusher.join();
  ASSERT_OK(flusher_status);

  CacheStats stats = db->cache()->stats();
  EXPECT_GT(stats.decisions, 0u);
  EXPECT_EQ(stats.decisions_logged, stats.region_done + stats.region_doubt);
  EXPECT_EQ(stats.decisions - stats.decisions_logged, stats.region_pend);

  ASSERT_OK(db->FlushAll());
  ASSERT_OK(db->ForceLog());
  ASSERT_OK(torture::VerifyOpenDb(&engine));
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK_AND_ASSIGN(ScrubReport verify,
                         db->VerifyBackup("race_bk_" + std::to_string(i)));
    EXPECT_TRUE(verify.clean());
  }
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "race_bk_3", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

// Grouped-commit crash sweeps: log_channels=4 shards the WAL, so crash
// points land between the seal of several channels and the epoch
// publish. Recovery and backup verification must be oblivious to the
// sharding.
TEST(CrashSweepTest, BackupScenarioGroupedChannels) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kBackup, WriteGraphKind::kGeneral);
  scenario.log_channels = 4;
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(SweepOptions{}));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_EQ(report.points_tested, report.total_events);
  EXPECT_EQ(report.recoveries_verified, report.points_tested);
  EXPECT_GT(report.backups_verified, 0u);
}

TEST(CrashSweepTest, LogShippingScenarioGroupedChannels) {
  ScenarioOptions scenario =
      SmallScenario(ScenarioKind::kLogShipping, WriteGraphKind::kTree);
  scenario.log_channels = 4;
  SweepOptions options;
  options.max_points = 24;  // single-channel gets the all-points sweep above
  CrashSweeper sweeper(scenario);
  ASSERT_OK_AND_ASSIGN(CrashSweepReport report, sweeper.Sweep(options));
  EXPECT_GT(report.total_events, 0u);
  EXPECT_LE(report.points_tested, 24u);
  EXPECT_GT(report.recoveries_verified, report.points_tested);
}

TEST(ConcurrentTortureTest, UpdatersRaceBackupsAndStatsPoller) {
  ConcurrentTortureOptions options;
  options.seed = 11;
  options.partitions = 2;
  options.pages_per_partition = 64;
  options.cache_pages = 32;
  options.updates_per_thread = 200;
  options.backup_steps = 8;
  options.backups = 3;
  options.poll_stats = true;
  ASSERT_OK_AND_ASSIGN(ConcurrentTortureReport report,
                       RunConcurrentTorture(options));
  EXPECT_EQ(report.updates_applied,
            static_cast<uint64_t>(options.partitions) *
                options.updates_per_thread);
  EXPECT_EQ(report.backups_completed, options.backups);
  EXPECT_GT(report.pages_copied, 0u);
}

TEST(ConcurrentTortureTest, UpdatersRaceBackupsOnGroupedChannels) {
  ConcurrentTortureOptions options;
  options.seed = 13;
  options.partitions = 2;
  options.pages_per_partition = 64;
  options.cache_pages = 32;
  options.updates_per_thread = 200;
  options.backup_steps = 8;
  options.backups = 3;
  options.poll_stats = true;
  options.log_channels = 4;
  ASSERT_OK_AND_ASSIGN(ConcurrentTortureReport report,
                       RunConcurrentTorture(options));
  EXPECT_EQ(report.updates_applied,
            static_cast<uint64_t>(options.partitions) *
                options.updates_per_thread);
  EXPECT_EQ(report.backups_completed, options.backups);
  EXPECT_GT(report.pages_copied, 0u);
}

}  // namespace
}  // namespace llb
