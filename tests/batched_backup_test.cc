#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "filestore/filestore.h"
#include "sim/oracle.h"
#include "tests/test_util.h"
#include "torture/torture_util.h"

namespace llb {
namespace {

/// Deterministic coverage of the batched sweep path
/// (BackupJobOptions::batch_pages / queue_depth): the fence protocol must
/// be invisible to the IO shape. Fences move only at step boundaries, so
/// a flush that lands while a step's batch is in flight — pending fence
/// advanced over it, batched runs not yet durable in B — must classify
/// exactly as it would under a page-at-a-time sweep.

constexpr uint32_t kPages = 32;
constexpr uint32_t kSteps = 4;

DbOptions BatchedOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = kPages;
  options.cache_pages = 16;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

/// One-page files over a freshly opened engine: file i is page i.
Status SeedFiles(Database* db, FileStore* files) {
  for (uint32_t f = 0; f < kPages; ++f) {
    LLB_RETURN_IF_ERROR(files->WriteValues(f, {static_cast<int64_t>(f), 1}));
  }
  LLB_RETURN_IF_ERROR(db->FlushAll());
  return db->Checkpoint();
}

/// Mirrors FenceProtocolTest.MidStepFlushPerRegionTakesExactPath, but the
/// sweep moves whole steps as single batched runs (batch_pages covers the
/// 8-page step), one run or a 4-deep window in flight. The mid-step hook
/// fires while step 2's batch is in flight: P has been advanced to 16, the
/// batch's pages sit in Doubt, and nothing of the step has reached B yet.
/// Done/Doubt/Pend classification must be identical to the per-page sweep:
/// Done and Doubt flushes take the identity-write path and are logged,
/// Pend flushes are not.
TEST(BatchedBackupTest, MidBatchFlushClassificationUnchanged) {
  for (uint32_t queue_depth : {1u, 4u}) {
    SCOPED_TRACE("queue_depth=" + std::to_string(queue_depth));
    TortureEngine engine(BatchedOptions());
    ASSERT_OK(engine.Open());
    Database* db = engine.db.get();
    FileStore files(db, /*partition=*/0, /*base_page=*/0,
                    /*pages_per_file=*/1, /*num_files=*/kPages);
    ASSERT_OK(SeedFiles(db, &files));

    auto flush_file = [&](uint32_t f) -> Status {
      LLB_RETURN_IF_ERROR(files.WriteValues(f, {static_cast<int64_t>(f), 2}));
      return db->FlushPage(files.PagesOf(f)[0]);
    };
    bool checked = false;
    BackupJobOptions job;
    job.steps = kSteps;
    job.batch_pages = 16;  // one batched run spans the whole 8-page step
    job.queue_depth = queue_depth;
    job.mid_step = [&](PartitionId, uint32_t step) -> Status {
      if (step != 2) return Status::OK();
      checked = true;
      // Regions during step 2: Done = [0, 8), Doubt = [8, 16),
      // Pend = [16, 32) — exactly as with batch_pages = 1.
      CacheStats before = db->cache()->stats();
      LLB_RETURN_IF_ERROR(flush_file(2));  // Done
      CacheStats after_done = db->cache()->stats();
      EXPECT_EQ(after_done.region_done, before.region_done + 1);
      EXPECT_EQ(after_done.identity_writes, before.identity_writes + 1);
      EXPECT_EQ(after_done.decisions_logged, before.decisions_logged + 1);

      LLB_RETURN_IF_ERROR(flush_file(10));  // Doubt: inside the in-flight batch
      CacheStats after_doubt = db->cache()->stats();
      EXPECT_EQ(after_doubt.region_doubt, after_done.region_doubt + 1);
      EXPECT_EQ(after_doubt.identity_writes, after_done.identity_writes + 1);
      EXPECT_EQ(after_doubt.decisions_logged, after_done.decisions_logged + 1);

      LLB_RETURN_IF_ERROR(flush_file(20));  // Pend: ahead of every batch
      CacheStats after_pend = db->cache()->stats();
      EXPECT_EQ(after_pend.region_pend, after_doubt.region_pend + 1);
      EXPECT_EQ(after_pend.identity_writes, after_doubt.identity_writes);
      EXPECT_EQ(after_pend.decisions_logged, after_doubt.decisions_logged);
      return Status::OK();
    };
    BackupJobStats stats;
    ASSERT_OK_AND_ASSIGN(
        BackupManifest manifest,
        db->TakeBackupWithOptions("fence_bk", job, &stats));
    EXPECT_TRUE(manifest.complete);
    EXPECT_TRUE(checked);
    // The sweep really took the batched path: one run per step.
    EXPECT_EQ(stats.read_batches, kSteps);
    EXPECT_EQ(stats.write_batches, kSteps);
    EXPECT_EQ(stats.pages_copied, kPages);

    // The mid-batch flushes were identity-logged, so the chain restores.
    ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("fence_bk"));
    EXPECT_TRUE(verify.clean());
    ASSERT_OK(torture::VerifyOpenDb(&engine));
    engine.Shutdown();
    ASSERT_OK(torture::WipeStable(&engine));
    ASSERT_OK(torture::OfflineRestore(&engine, "fence_bk", kInvalidLsn));
    ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
  }
}

/// Batching and queue depth are pure IO-shape changes: with no
/// concurrent updates, every (batch_pages, queue_depth) sweep must leave
/// a backup store byte-identical to the quiesced stable store S, with the
/// same page traffic and the same fence walk.
TEST(BatchedBackupTest, BatchedSweepMatchesLegacyOutput) {
  TortureEngine engine(BatchedOptions());
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  FileStore files(db, 0, 0, 1, kPages);
  ASSERT_OK(SeedFiles(db, &files));

  uint64_t reference_fences = 0;
  for (uint32_t batch : {1u, 16u}) {
    for (uint32_t queue_depth : {1u, 4u}) {
      std::string shape =
          "k" + std::to_string(batch) + "_qd" + std::to_string(queue_depth);
      SCOPED_TRACE(shape);
      BackupJobOptions job;
      job.steps = kSteps;
      job.batch_pages = batch;
      job.queue_depth = queue_depth;
      BackupJobStats stats;
      ASSERT_OK_AND_ASSIGN(
          BackupManifest manifest,
          db->TakeBackupWithOptions("bk_" + shape, job, &stats));
      EXPECT_TRUE(manifest.complete);
      EXPECT_EQ(stats.pages_copied, kPages);
      // One read and one write per planned run of up to K pages.
      EXPECT_EQ(stats.read_batches, kPages / std::min(batch, kPages / kSteps));
      EXPECT_EQ(stats.write_batches, stats.read_batches);
      if (reference_fences == 0) reference_fences = stats.fence_updates;
      EXPECT_EQ(stats.fence_updates, reference_fences);

      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<PageStore> store,
          PageStore::Open(&engine.env, manifest.StoreName(), 1));
      EXPECT_EQ(testutil::DiffStores(*db->stable(), *store, 1, kPages), "");
    }
  }
}

/// A scripted transient fault kills the second step's first batched write,
/// leaving the durable cursor at the step-1 boundary mid-sweep. Resume
/// must skip exactly the durably-copied prefix, re-sweep the rest in
/// batches, and the finished chain must absorb updates made while the
/// fences stayed up between abort and resume.
TEST(BatchedBackupTest, ResumeRestartsFromMidSweepDurableCursor) {
  TortureEngine engine(BatchedOptions());
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  FileStore files(db, 0, 0, 1, kPages);
  ASSERT_OK(SeedFiles(db, &files));

  BackupJobOptions job;
  job.steps = kSteps;
  job.batch_pages = 4;  // two batched writes per 8-page step
  job.queue_depth = 2;

  // Batched writes to the backup pages file: step 1 issues two, so the
  // third is step 2's first run — the countdown counts runs, not pages
  // (each run is one write call, decided once).
  ScriptedFaultPolicy abort_policy({{FaultOp::kWriteAt, "bk_mid.pages",
                                     /*countdown=*/3, FaultAction::kFail}});
  engine.env.SetPolicy(&abort_policy);
  Result<BackupManifest> aborted = db->TakeBackupWithOptions("bk_mid", job);
  engine.env.SetPolicy(nullptr);
  ASSERT_FALSE(aborted.ok());
  EXPECT_EQ(abort_policy.fired(), 1u);

  // Fences are still up; these flushes into already-copied territory must
  // be identity-logged for the resumed chain to stay recoverable.
  for (uint32_t f = 0; f < 12; ++f) {
    ASSERT_OK(files.WriteValues(f, {static_cast<int64_t>(f), 3}));
  }
  ASSERT_OK(db->FlushAll());

  BackupJobStats stats;
  ASSERT_OK_AND_ASSIGN(BackupManifest resumed,
                       db->ResumeBackup("bk_mid", job, &stats));
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(stats.partitions_resumed, 1u);
  // The cursor was durable at the step-1 boundary (page 8): exactly that
  // prefix is skipped, the remaining 24 pages are re-swept in batches.
  EXPECT_EQ(stats.pages_skipped_on_resume, 8u);
  EXPECT_EQ(stats.pages_copied, kPages - 8u);
  EXPECT_GT(stats.write_batches, 0u);

  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("bk_mid"));
  EXPECT_TRUE(verify.clean());
  ASSERT_OK(torture::VerifyOpenDb(&engine));
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "bk_mid", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

/// DbOptions plumbing: backup_batch_pages / io_queue_depth reach both
/// TakeBackup and TakeIncrementalBackup. Scattered changed pages break the
/// incremental sweep into many short runs; the chain must still restore.
TEST(BatchedBackupTest, IncrementalRunSplittingOverScatteredPages) {
  DbOptions options = BatchedOptions();
  options.backup_batch_pages = 4;
  options.io_queue_depth = 4;
  TortureEngine engine(options);
  ASSERT_OK(engine.Open());
  Database* db = engine.db.get();
  FileStore files(db, 0, 0, 1, kPages);
  ASSERT_OK(SeedFiles(db, &files));

  ASSERT_OK_AND_ASSIGN(BackupManifest full, db->TakeBackup("bk_base", 0));
  EXPECT_TRUE(full.complete);

  // Touch every third page: runs of length 1 with gaps, plus one longer
  // run at the front, so the incremental exercises filter-driven splits.
  for (uint32_t f = 0; f < kPages; f += 3) {
    ASSERT_OK(files.WriteValues(f, {static_cast<int64_t>(f), 4}));
  }
  for (uint32_t f = 0; f < 4; ++f) {
    ASSERT_OK(files.WriteValues(f, {static_cast<int64_t>(f), 5}));
  }
  ASSERT_OK(db->FlushAll());
  ASSERT_OK_AND_ASSIGN(BackupManifest incr,
                       db->TakeIncrementalBackup("bk_incr", "bk_base", 0));
  EXPECT_TRUE(incr.complete);

  ASSERT_OK_AND_ASSIGN(ScrubReport verify, db->VerifyBackup("bk_incr"));
  EXPECT_TRUE(verify.clean());
  engine.Shutdown();
  ASSERT_OK(torture::WipeStable(&engine));
  ASSERT_OK(torture::OfflineRestore(&engine, "bk_incr", kInvalidLsn));
  ASSERT_OK(torture::VerifyStableOffline(&engine, kInvalidLsn));
}

}  // namespace
}  // namespace llb
