#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "io/sweep_pool.h"
#include "filestore/filestore.h"
#include "sim/oracle.h"
#include "tests/test_util.h"
#include "torture/concurrent_torture.h"
#include "torture/torture_util.h"

namespace llb {
namespace {

/// Coverage of the sharded parallel sweep (BackupJobOptions::sweep_threads
/// over the database's persistent SweepThreadPool): parallelism must be a
/// pure scheduling change. Every partition still has exactly one sweeper
/// advancing its own (D, P) fences, so the backup a parallel sweep writes
/// is byte-identical to the serial sweep's, aborted parallel sweeps resume
/// from the merged per-partition cursor, and Database-driven sweeps spawn
/// zero transient threads.

constexpr uint32_t kPages = 32;
constexpr uint32_t kSteps = 4;
constexpr uint32_t kPartitions = 4;

DbOptions ParallelOptions(uint32_t partitions = kPartitions) {
  DbOptions options;
  options.partitions = partitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 32;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

/// One-page files per partition with per-partition content: file f of
/// partition p holds {p * 1000 + f, 1}.
Status SeedPartitions(Database* db,
                      std::vector<std::unique_ptr<FileStore>>* stores,
                      uint32_t partitions) {
  for (uint32_t p = 0; p < partitions; ++p) {
    stores->push_back(std::make_unique<FileStore>(
        db, p, /*base_page=*/0, /*pages_per_file=*/1, /*num_files=*/kPages));
    for (uint32_t f = 0; f < kPages; ++f) {
      LLB_RETURN_IF_ERROR((*stores)[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 1}));
    }
  }
  LLB_RETURN_IF_ERROR(db->FlushAll());
  return db->Checkpoint();
}

TEST(SweepPoolTest, RunsTasksPropagatesFaultsAndNeverShrinks) {
  SweepThreadPool pool(2);
  EXPECT_EQ(pool.threads(), 2u);

  std::future<Status> ok = pool.Submit([] { return Status::OK(); });
  std::future<Status> bad =
      pool.Submit([] { return Status::IoError("injected pool fault"); });
  EXPECT_OK(ok.get());
  Status fault = bad.get();
  EXPECT_TRUE(fault.IsIoError()) << fault.ToString();
  EXPECT_EQ(pool.tasks_run(), 2u);

  pool.Grow(1);  // never shrinks
  EXPECT_EQ(pool.threads(), 2u);
  pool.Grow(3);
  EXPECT_EQ(pool.threads(), 3u);
}

/// The headline invariant: with no concurrent updates, sweeps at every
/// worker count produce byte-identical backup stores and identical page
/// traffic — sharding partitions across workers only reorders which
/// partition is swept when, and fence advances on different partitions
/// commute.
TEST(ParallelBackupTest, ParallelSweepMatchesSerialOutputByteForByte) {
  TortureEngine engine(ParallelOptions());
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  std::vector<std::unique_ptr<FileStore>> stores;
  ASSERT_OK(SeedPartitions(db, &stores, kPartitions));

  BackupJobOptions serial;
  serial.steps = kSteps;  // sweep_threads = 1: the serial baseline
  BackupJobStats serial_stats;
  ASSERT_OK_AND_ASSIGN(
      BackupManifest serial_manifest,
      db->TakeBackupWithOptions("pbk_t1", serial, &serial_stats));
  EXPECT_TRUE(serial_manifest.complete);
  EXPECT_EQ(serial_stats.threads_spawned, 0u);
  EXPECT_EQ(serial_stats.pages_copied, uint64_t{kPartitions} * kPages);
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PageStore> serial_store,
      PageStore::Open(&engine.env, serial_manifest.StoreName(), kPartitions));

  for (uint32_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("sweep_threads=" + std::to_string(threads));
    BackupJobOptions job;
    job.steps = kSteps;
    job.sweep_threads = threads;  // 8 exercises the clamp to 4 partitions
    BackupJobStats stats;
    std::string name = "pbk_t" + std::to_string(threads);
    ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                         db->TakeBackupWithOptions(name, job, &stats));
    EXPECT_TRUE(manifest.complete);
    // Database attached its persistent pool: no transient threads.
    EXPECT_EQ(stats.threads_spawned, 0u);
    EXPECT_EQ(stats.pages_copied, serial_stats.pages_copied);
    EXPECT_EQ(stats.fence_updates, serial_stats.fence_updates);
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> store,
        PageStore::Open(&engine.env, manifest.StoreName(), kPartitions));
    EXPECT_EQ(testutil::DiffStores(*serial_store, *store, kPartitions, kPages),
              "");
  }
}

/// Worker sharding composed with batched runs and a 4-deep async window:
/// the sweepers ride the database's pool and the in-flight IOs ride the
/// env's async backend, so a parallel deep-queue sweep spawns zero
/// transient threads — the regression guard for the persistent-worker
/// design.
TEST(ParallelBackupTest, PooledPipelinedSweepSpawnsZeroTransientThreads) {
  TortureEngine engine(ParallelOptions());
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  std::vector<std::unique_ptr<FileStore>> stores;
  ASSERT_OK(SeedPartitions(db, &stores, kPartitions));

  uint64_t tasks_before = db->sweep_pool()->tasks_run();
  BackupJobOptions job;
  job.steps = kSteps;
  job.sweep_threads = 4;
  job.batch_pages = 8;
  job.queue_depth = 4;
  BackupJobStats stats;
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                       db->TakeBackupWithOptions("pbk_pipe", job, &stats));
  EXPECT_TRUE(manifest.complete);
  EXPECT_EQ(stats.threads_spawned, 0u);
  EXPECT_GT(stats.read_batches, 0u);
  EXPECT_GT(stats.write_batches, 0u);
  // The sweep really ran on the pool, sized for the workers.
  EXPECT_GT(db->sweep_pool()->tasks_run(), tasks_before);
  EXPECT_GE(db->sweep_pool()->threads(), 4u);

  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("pbk_pipe"));
  EXPECT_TRUE(verify.clean());
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "pbk_pipe", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

/// A scripted fault kills partition 1's sweeper mid-step while partition
/// 0's worker completes its shard. One failed partition must not stop the
/// others (their cursors are what makes Resume cheap), and the parallel
/// Resume must work from the merged cursor: partition 0 skipped entirely,
/// partition 1 continued from its durable step boundary.
TEST(ParallelBackupTest, AbortedParallelSweepResumesFromMergedCursor) {
  TortureEngine engine(ParallelOptions(/*partitions=*/2));
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  std::vector<std::unique_ptr<FileStore>> stores;
  ASSERT_OK(SeedPartitions(db, &stores, 2));

  BackupJobOptions job;
  job.steps = kSteps;
  job.sweep_threads = 2;

  // Per-page writes to partition 1's backup pages file: 32 pages / 4
  // steps = 8 per step, so the 10th write dies inside step 1, leaving
  // partition 1's durable cursor at the step-1 boundary (page 8). The
  // filter is scoped to ".pages.p1" so partition 0's stream never faults.
  ScriptedFaultPolicy abort_policy({{FaultOp::kWriteAt, "pbk_mid.pages.p1",
                                     /*countdown=*/10, FaultAction::kFail}});
  engine.env.SetPolicy(&abort_policy);
  Result<BackupManifest> aborted = db->TakeBackupWithOptions("pbk_mid", job);
  engine.env.SetPolicy(nullptr);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(abort_policy.fired(), 1u);

  // Both partitions' fences are still up; flushes into already-copied
  // territory must be identity-logged for the resumed chain to restore.
  for (uint32_t p = 0; p < 2; ++p) {
    for (uint32_t f = 0; f < 6; ++f) {
      ASSERT_OK(stores[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 3}));
    }
  }
  ASSERT_OK(db->FlushAll());

  BackupJobStats stats;
  ASSERT_OK_AND_ASSIGN(BackupManifest resumed,
                       db->ResumeBackup("pbk_mid", job, &stats));
  EXPECT_TRUE(resumed.complete);
  // Partition 0 finished before the abort, so its cursor shows it
  // complete and Resume never re-sweeps it; only partition 1 is
  // continued, skipping its durably-copied 8-page prefix.
  EXPECT_EQ(stats.partitions_resumed, 1u);
  EXPECT_EQ(stats.pages_skipped_on_resume, 8u);
  EXPECT_EQ(stats.pages_copied, uint64_t{kPages} - 8u);
  EXPECT_EQ(stats.threads_spawned, 0u);

  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("pbk_mid"));
  EXPECT_TRUE(verify.clean());
  ASSERT_OK(torture::VerifyOpenDb(&engine));
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "pbk_mid", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

/// DbOptions::backup_sweep_threads reaches both TakeBackup and
/// TakeIncrementalBackup, and a parallel full + parallel incremental
/// chain restores.
TEST(ParallelBackupTest, DbOptionsSweepThreadsDriveFullAndIncremental) {
  DbOptions options = ParallelOptions();
  options.backup_sweep_threads = 4;
  TortureEngine engine(options);
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  std::vector<std::unique_ptr<FileStore>> stores;
  ASSERT_OK(SeedPartitions(db, &stores, kPartitions));

  ASSERT_OK_AND_ASSIGN(BackupManifest full, db->TakeBackup("pbk_base", 0));
  EXPECT_TRUE(full.complete);

  // Scattered changes across every partition so the incremental sweep
  // also shards real work.
  for (uint32_t p = 0; p < kPartitions; ++p) {
    for (uint32_t f = p; f < kPages; f += 4) {
      ASSERT_OK(stores[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 5}));
    }
  }
  ASSERT_OK(db->FlushAll());
  ASSERT_OK_AND_ASSIGN(BackupManifest incr,
                       db->TakeIncrementalBackup("pbk_incr", "pbk_base", 0));
  EXPECT_TRUE(incr.complete);

  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("pbk_incr"));
  EXPECT_TRUE(verify.clean());
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "pbk_incr", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

/// The TSan tier: updater threads race sharded pool sweeps (sweep_threads
/// = 2 instead of the legacy one-thread-per-partition mode), then the
/// last chain carries a full wipe + media recovery.
TEST(ParallelBackupTest, ConcurrentUpdatersRaceShardedPoolSweeps) {
  ConcurrentTortureOptions options;
  options.seed = 13;
  options.partitions = 2;
  options.pages_per_partition = 32;
  options.cache_pages = 16;
  options.updates_per_thread = 120;
  options.backup_steps = 4;
  options.backups = 2;
  options.sweep_threads = 2;
  options.poll_stats = true;
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
