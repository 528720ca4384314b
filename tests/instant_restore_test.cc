#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "cache/cache_manager.h"
#include "filestore/filestore.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "recovery/instant_restore.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace llb {
namespace {

/// Instant restore: the database serves transactions while media
/// recovery proceeds underneath. These tests pin the core promises —
/// reads during restore return media-recovery-correct values (including
/// through logical-operation dependency closures), the finished image
/// matches the offline restore byte for byte, progress survives crashes
/// via the restored-bitmap, and the gates hold while restoring.

constexpr uint32_t kPartitions = 2;
constexpr uint32_t kPages = 64;
constexpr uint32_t kPagesPerFile = 2;
constexpr uint32_t kFiles = kPages / kPagesPerFile;

DbOptions RestoringDb() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.restore_batch_pages = 8;
  return options;
}

Status WipeStable(Env* env, const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  for (PartitionId p = 0; p < kPartitions; ++p) {
    LLB_RETURN_IF_ERROR(stable->WipePartition(p));
  }
  return Status::OK();
}

Result<std::vector<std::string>> SnapshotStable(Env* env,
                                                const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  std::vector<std::string> pages;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    for (uint32_t page = 0; page < kPages; ++page) {
      PageImage image;
      LLB_RETURN_IF_ERROR(stable->ReadPage(PageId{p, page}, &image));
      pages.push_back(image.raw_string());
    }
  }
  return pages;
}

/// Opens `name` in restoring mode with every domain registered and crash
/// redo run — OpenRestoring's analogue of TestEngine::Create.
Result<std::unique_ptr<Database>> OpenRestoringDb(Env* env,
                                                  const std::string& name,
                                                  const std::string& backup) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                       Database::OpenRestoring(env, name, RestoringDb(),
                                               backup));
  RegisterAllOps(db->registry());
  LLB_RETURN_IF_ERROR(db->Recover());
  return db;
}

/// Seeds both partitions, takes a full + incremental chain, appends a
/// post-backup log tail (including a logical Copy so restores must chase
/// dependency closures), and shuts down with everything durable.
Status BuildBackupScenario(TestEngine* engine) {
  std::vector<std::unique_ptr<FileStore>> stores;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    stores.push_back(std::make_unique<FileStore>(engine->db(), p, 0,
                                                 kPagesPerFile, kFiles));
    for (uint32_t f = 0; f < kFiles; ++f) {
      LLB_RETURN_IF_ERROR(stores[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 1}));
    }
  }
  LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
  LLB_RETURN_IF_ERROR(engine->db()->Checkpoint());
  LLB_RETURN_IF_ERROR(engine->db()->TakeBackup("ir_full").status());

  std::mt19937_64 rng(23);
  for (int i = 0; i < 30; ++i) {
    uint32_t p = static_cast<uint32_t>(rng() % kPartitions);
    uint32_t f = static_cast<uint32_t>(rng() % kFiles);
    LLB_RETURN_IF_ERROR(stores[p]->WriteValues(
        f, {static_cast<int64_t>(p) * 1000 + f, 2, i}));
  }
  LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
  LLB_RETURN_IF_ERROR(
      engine->db()->TakeIncrementalBackup("ir_incr", "ir_full").status());

  // Post-backup tail: fresh source values, then a logical copy whose
  // replay reads them — the dependency a single-page restore must chase.
  // The trailing updates stay in partition 1 so they cannot overwrite the
  // copy's result.
  LLB_RETURN_IF_ERROR(stores[0]->WriteValues(2, {777, 42, 9}));
  LLB_RETURN_IF_ERROR(stores[0]->Copy(/*src=*/2, /*dst=*/5));
  for (int i = 0; i < 10; ++i) {
    uint32_t f = static_cast<uint32_t>(rng() % kFiles);
    LLB_RETURN_IF_ERROR(
        stores[1]->WriteValues(f, {1000 + f, 3}));
  }
  LLB_RETURN_IF_ERROR(engine->db()->ForceLog());
  stores.clear();
  return engine->Shutdown();
}

TEST(InstantRestoreTest, ServesCorrectValuesWhileRestoringAndMatchesOracle) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));
  ASSERT_TRUE(db->restoring());

  // First transaction before any sweeping: reads fault their pages in on
  // demand and must see the media-recovery state — including the
  // logically copied file, whose replay depends on the source file's
  // post-backup value.
  FileStore faulting(db.get(), 0, 0, kPagesPerFile, kFiles);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> copied, faulting.ReadValues(5));
  ASSERT_GE(copied.size(), 3u);
  EXPECT_EQ(copied[0], 777);
  EXPECT_EQ(copied[1], 42);
  EXPECT_EQ(copied[2], 9);

  RestoreStatus mid = db->restore_status();
  EXPECT_TRUE(mid.restoring);
  EXPECT_GT(mid.pages_restored, 0u);
  EXPECT_GT(mid.pages_faulted, 0u);
  EXPECT_LT(mid.pages_restored, mid.pages_total);
  EXPECT_GT(mid.recovery_tail, 0u);

  // New work during the restore: updates and another logical copy.
  ASSERT_OK(faulting.WriteValues(7, {5555, 1}));
  ASSERT_OK(faulting.Copy(/*src=*/7, /*dst=*/9));

  // Background sweep to completion; the last step auto-finalizes.
  uint64_t swept = 0;
  while (db->restoring()) {
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    swept += moved;
  }
  EXPECT_GT(swept, 0u);
  RestoreStatus done = db->restore_status();
  EXPECT_FALSE(done.restoring);

  // During-restore work is visible after completion...
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> after, faulting.ReadValues(9));
  ASSERT_GE(after.size(), 2u);
  EXPECT_EQ(after[0], 5555);

  // ...and the flushed store matches the full-log oracle.
  ASSERT_OK(db->FlushAll());
  db.reset();
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    OpRegistry registry;
    RegisterAllOps(&registry);
    std::unique_ptr<PageStore> oracle;
    ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                    "ir_oracle", kPartitions, &oracle));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages),
              "");
  }

  // The bitmap is gone: a plain reopen works.
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, QuiescedRestoreIsByteIdenticalToOfflineRestore) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));

  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(WipeStable(engine->env(), "db"));
  ASSERT_OK(Database::RestoreFromBackup(engine->env(), "db", "ir_incr",
                                        registry)
                .status());
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> offline,
                       SnapshotStable(engine->env(), "db"));

  ASSERT_OK(WipeStable(engine->env(), "db"));
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    // Fault a few pages first so the image mixes fault-path and
    // sweep-path restores.
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 3}, &image));
    ASSERT_OK(db->ReadPage(PageId{1, 17}, &image));
    ASSERT_OK(db->FinishRestore());
    EXPECT_FALSE(db->restoring());
    // Idempotent when already finished.
    ASSERT_OK(db->FinishRestore());
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    EXPECT_EQ(moved, 0u);
  }
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> instant,
                       SnapshotStable(engine->env(), "db"));
  EXPECT_EQ(instant, offline)
      << "instant restore image differs from offline restore";
}

TEST(InstantRestoreTest, CrashMidRestoreResumesFromBitmap) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    // Partial progress: some faults, one sweep step, then "crash".
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 11}, &image));
    ASSERT_OK(db->ReadPage(PageId{1, 30}, &image));
    ASSERT_OK_AND_ASSIGN(uint64_t moved, db->RestoreStep());
    EXPECT_GT(moved, 0u);
    ASSERT_TRUE(db->restoring());
  }
  engine->env()->CrashAndRestart();

  // A plain open refuses the half-restored store.
  {
    Result<std::unique_ptr<Database>> plain =
        Database::Open(engine->env(), "db", RestoringDb());
    ASSERT_FALSE(plain.ok());
    EXPECT_TRUE(plain.status().IsFailedPrecondition())
        << plain.status().ToString();
  }

  // Resuming picks the bitmap up and finishes; the result matches the
  // full-log oracle.
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    RestoreStatus resumed = db->restore_status();
    EXPECT_TRUE(resumed.restoring);
    EXPECT_GT(resumed.pages_restored, 0u);
    ASSERT_OK(db->FinishRestore());
  }
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    OpRegistry registry;
    RegisterAllOps(&registry);
    std::unique_ptr<PageStore> oracle;
    ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                    "ir_crash_oracle", kPartitions, &oracle));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages),
              "");
  }
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, MutatingGatesHoldWhileRestoring) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));
  EXPECT_TRUE(db->TakeBackup("nope").status().IsFailedPrecondition());
  EXPECT_TRUE(db->TakeIncrementalBackup("nope", "ir_full")
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(db->Checkpoint().IsFailedPrecondition());
  EXPECT_TRUE(db->TruncateLog(kInvalidLsn).IsFailedPrecondition());
  EXPECT_TRUE(db->ScrubBackup("ir_full").status().IsFailedPrecondition());

  // Transactions, reads and flushes are the whole point — all allowed.
  FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
  ASSERT_OK(store.WriteValues(1, {1, 2, 3}));
  ASSERT_OK(db->FlushAll());

  ASSERT_OK(db->FinishRestore());
  EXPECT_OK(db->Checkpoint());
  EXPECT_OK(db->TakeBackup("post_restore").status());
}

TEST(InstantRestoreTest, GeometryAndArgumentValidation) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  DbOptions wrong = RestoringDb();
  wrong.pages_per_partition = kPages * 2;
  EXPECT_TRUE(Database::OpenRestoring(engine->env(), "db", wrong, "ir_incr")
                  .status()
                  .IsInvalidArgument());

  DbOptions standby = RestoringDb();
  standby.standby = true;
  EXPECT_TRUE(
      Database::OpenRestoring(engine->env(), "db", standby, "ir_incr")
          .status()
          .IsInvalidArgument());

  EXPECT_TRUE(Database::OpenRestoring(engine->env(), "db", RestoringDb(), "")
                  .status()
                  .IsInvalidArgument());

  EXPECT_FALSE(Database::OpenRestoring(engine->env(), "db", RestoringDb(),
                                       "no_such_backup")
                   .ok());
}

TEST(InstantRestoreTest, OfflineRestoreSupersedesUnfinishedInstantRestore) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    PageImage image;
    ASSERT_OK(db->ReadPage(PageId{0, 0}, &image));
    // Abandon mid-restore.
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  ASSERT_OK(Database::RestoreFromBackup(engine->env(), "db", "ir_incr",
                                        registry)
                .status());
  // The full offline restore removed the bitmap: plain opens work again.
  ASSERT_OK(engine->Reopen());
}

TEST(InstantRestoreTest, ConcurrentFaultsRaceTheBackgroundSweep) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));

  // Reader threads hammer random pages (each read faults its page in on
  // first touch) while the main thread drives sweep steps — the
  // fault-vs-sweep race the restorer's page claims arbitrate.
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&db, &failed, t] {
      std::mt19937_64 rng(100 + t);
      for (int i = 0; i < 200; ++i) {
        PageId id{static_cast<PartitionId>(rng() % kPartitions),
                  static_cast<uint32_t>(rng() % kPages)};
        PageImage image;
        if (!db->ReadPage(id, &image).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  while (db->restoring()) {
    Result<uint64_t> moved = db->RestoreStep();
    if (!moved.ok()) {
      failed.store(true);
      break;
    }
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_FALSE(db->restoring());

  ASSERT_OK(db->FlushAll());
  db.reset();
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<LogManager> log,
      LogManager::Open(engine->env(), Database::LogName("db")));
  OpRegistry registry;
  RegisterAllOps(&registry);
  std::unique_ptr<PageStore> oracle;
  ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                  "ir_race_oracle", kPartitions, &oracle));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(engine->env(), Database::StableName("db"), kPartitions));
  EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages), "");
}

/// Checks the restored store against a full-log oracle.
void ExpectStableMatchesOracle(Env* env, const std::string& oracle_name) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(env, Database::LogName("db")));
  OpRegistry registry;
  RegisterAllOps(&registry);
  std::unique_ptr<PageStore> oracle;
  ASSERT_OK(testutil::BuildOracle(env, *log, registry, oracle_name,
                                  kPartitions, &oracle));
  ASSERT_OK_AND_ASSIGN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName("db"), kPartitions));
  EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages), "");
}

TEST(InstantRestoreTest, FinalizeWaitsForAFaultParkedInTheHandler) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                       OpenRestoringDb(engine->env(), "db", "ir_incr"));

  // Park one reader inside the fault handler, before it reaches the
  // restorer, while the sweep completes the restore underneath it.
  const PageId target{1, kPages - 1};
  std::function<Status(const PageId&)> inner =
      db->cache()->page_fault_handler();
  ASSERT_TRUE(static_cast<bool>(inner));
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool released = false;
  // Set when the parked handler call returns, which is what detaching
  // the handler waits for (the reader's ReadPage returns a little later).
  std::atomic<bool> fault_done{false};
  db->cache()->SetPageFaultHandler([&, inner](const PageId& id) {
    if (id == target) {
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait(lock, [&] { return released; });
    }
    Status s = inner(id);
    if (id == target) fault_done.store(true);
    return s;
  });

  Status read_status;
  PageImage faulted;
  std::thread reader([&] { read_status = db->ReadPage(target, &faulted); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return parked; });
  }
  // Release the reader only once every page is restored, i.e. once the
  // final RestoreStep is finalizing (or about to): finalize must wait for
  // the parked fault instead of destroying the restorer under it.
  std::thread releaser([&] {
    while (!db->restore_status().complete) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  });
  while (db->restoring()) {
    ASSERT_OK(db->RestoreStep().status());
  }
  EXPECT_TRUE(fault_done.load());
  releaser.join();
  reader.join();
  ASSERT_OK(read_status);
  PageImage again;
  ASSERT_OK(db->ReadPage(target, &again));
  EXPECT_EQ(faulted.raw_string(), again.raw_string());

  ASSERT_OK(db->FlushAll());
  db.reset();
  ExpectStableMatchesOracle(engine->env(), "ir_park_oracle");
}

/// Durable bits of the restore's bitmap cell (what a crash keeps).
uint64_t DurableRestoredPages(Env* env) {
  Result<RestoreStatus> cell = InstantRestorer::InspectBitmap(
      env, Database::RestoreBitmapName("db"), nullptr);
  EXPECT_TRUE(cell.ok()) << cell.status().ToString();
  return cell.ok() ? cell->pages_restored : 0;
}

TEST(InstantRestoreTest, WriteFaultsBitIsDurableBeforeItsRecord) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  uint64_t restored = 0;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    // The write faults its pages in; the fault returns before any bit is
    // saved, and nothing but the log force below saves one.
    FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
    ASSERT_OK(store.WriteValues(7, {4242, 7}));
    restored = db->restore_status().pages_restored;
    ASSERT_GT(restored, 0u);
    EXPECT_EQ(DurableRestoredPages(engine->env()), 0u);
    ASSERT_OK(db->ForceLog());
  }
  engine->env()->CrashAndRestart();

  // The force that made the write's record durable saved every bit set
  // before it: no Step ran, and no other save happened.
  EXPECT_EQ(DurableRestoredPages(engine->env()), restored);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    ASSERT_OK(db->FinishRestore());
    FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> values, store.ReadValues(7));
    ASSERT_GE(values.size(), 1u);
    EXPECT_EQ(values[0], 4242);
    ASSERT_OK(db->FlushAll());
  }
  ExpectStableMatchesOracle(engine->env(), "ir_wbit_oracle");
}

TEST(InstantRestoreTest, ReadOnlyFaultMayLoseItsBitAndReRestores) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  // File 5's first page: its closure pulls in the Copy's source file.
  const PageId target{0, 5 * kPagesPerFile};
  PageImage first;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    ASSERT_OK(db->ReadPage(target, &first));
    ASSERT_GT(db->restore_status().pages_restored, 0u);
  }
  engine->env()->CrashAndRestart();

  // No record depends on the read's bits, so no commit saved them.
  EXPECT_EQ(DurableRestoredPages(engine->env()), 0u);
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    PageImage again;
    ASSERT_OK(db->ReadPage(target, &again));
    EXPECT_EQ(again.raw_string(), first.raw_string());
    ASSERT_OK(db->FinishRestore());
  }
  ExpectStableMatchesOracle(engine->env(), "ir_rbit_oracle");
}

TEST(InstantRestoreTest, FailedBarrierSaveFailsTheForceAndTheRetryCommits) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(RestoringDb()));
  ASSERT_OK(BuildBackupScenario(engine.get()));
  ASSERT_OK(WipeStable(engine->env(), "db"));

  FaultyEnv env(engine->env());
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(&env, "db", "ir_incr"));
    FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
    ASSERT_OK(store.WriteValues(7, {4242, 7}));
    LogManager* log = db->log();
    const Lsn durable_lsn = log->durable_lsn();
    const Epoch durable_epoch = log->durable_epoch();
    const Lsn tail = log->next_lsn() - 1;
    ASSERT_GT(tail, durable_lsn);

    // The barrier's bitmap save fails: the commit writes nothing.
    ScriptedFaultPolicy policy(
        {{FaultOp::kSync, ".rbm.tmp", 1, FaultAction::kFail}});
    env.SetPolicy(&policy);
    Status s = db->ForceLog();
    env.SetPolicy(nullptr);
    EXPECT_EQ(policy.fired(), 1u);
    EXPECT_TRUE(s.IsIoError()) << s.ToString();
    EXPECT_EQ(log->durable_lsn(), durable_lsn);
    EXPECT_EQ(log->durable_epoch(), durable_epoch);
    EXPECT_EQ(DurableRestoredPages(engine->env()), 0u);

    // The records stayed buffered: the next commit re-runs the barrier
    // and makes them durable.
    ASSERT_OK(db->ForceLog());
    EXPECT_EQ(log->durable_lsn(), tail);
    EXPECT_GT(log->durable_epoch(), durable_epoch);
    EXPECT_GT(DurableRestoredPages(engine->env()), 0u);
  }
  engine->env()->CrashAndRestart();
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<Database> db,
                         OpenRestoringDb(engine->env(), "db", "ir_incr"));
    ASSERT_OK(db->FinishRestore());
    FileStore store(db.get(), 0, 0, kPagesPerFile, kFiles);
    ASSERT_OK_AND_ASSIGN(std::vector<int64_t> values, store.ReadValues(7));
    ASSERT_GE(values.size(), 1u);
    EXPECT_EQ(values[0], 4242);
    ASSERT_OK(db->FlushAll());
  }
  ExpectStableMatchesOracle(engine->env(), "ir_fail_oracle");
}

TEST(InstantRestoreTest, SliceIndexClosureMatchesFixpoint) {
  // Random slices of physical writes, Copy chains and two-page logical
  // operations: the index's worklist closure must equal the fixpoint
  // over the whole slice, pages and replayed records alike.
  std::mt19937_64 rng(42);
  constexpr uint32_t kSlicePages = 48;
  auto page = [&] {
    return PageId{0, static_cast<uint32_t>(rng() % kSlicePages)};
  };
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<LogRecord> slice;
    const int records = 1 + static_cast<int>(rng() % 300);
    for (int i = 0; i < records; ++i) {
      LogRecord rec;
      rec.lsn = static_cast<Lsn>(i + 1);
      switch (rng() % 3) {
        case 0:  // physical write
          rec.writeset = {page()};
          break;
        case 1:  // copy
          rec.readset = {page()};
          rec.writeset = {page()};
          break;
        default:  // two-page logical operation
          rec.readset = {page(), page()};
          rec.writeset = {page(), page()};
          break;
      }
      slice.push_back(rec);
    }
    SliceIndex index(slice);
    for (int q = 0; q < 5; ++q) {
      std::vector<PageId> seeds;
      const int n = 1 + static_cast<int>(rng() % 3);
      for (int k = 0; k < n; ++k) seeds.push_back(page());

      std::unordered_set<PageId, PageIdHash> closure(seeds.begin(),
                                                     seeds.end());
      for (bool grew = true; grew;) {
        grew = false;
        for (const LogRecord& rec : slice) {
          bool touches = false;
          for (const PageId& t : rec.writeset) touches |= closure.count(t) != 0;
          if (!touches) continue;
          for (const std::vector<PageId>* set : {&rec.readset, &rec.writeset}) {
            for (const PageId& id : *set) grew |= closure.insert(id).second;
          }
        }
      }
      std::vector<PageId> want_pages(closure.begin(), closure.end());
      std::sort(want_pages.begin(), want_pages.end());
      std::vector<uint32_t> want_records;
      for (uint32_t r = 0; r < slice.size(); ++r) {
        for (const PageId& t : slice[r].writeset) {
          if (closure.count(t) != 0) {
            want_records.push_back(r);
            break;
          }
        }
      }
      SliceIndex::Closure got = index.ClosureOf(seeds);
      EXPECT_EQ(got.pages, want_pages) << "trial " << trial;
      EXPECT_EQ(got.records, want_records) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace llb
