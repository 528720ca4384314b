// Transient-fault robustness: FaultyEnv injection, BackupJob retry and
// resume, and BackupScrubber verification/repair, end to end against the
// full-log oracle.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "backup/backup_job.h"
#include "backup/backup_scrubber.h"
#include "backup/backup_store.h"
#include "btree/btree.h"
#include "io/durable_cursor.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "tests/test_util.h"

namespace llb {
namespace {

// ---------- FaultyEnv unit tests ----------

TEST(FaultyEnvTest, PassThroughWithoutPolicy) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("f", true));
  ASSERT_OK(file->WriteAt(0, Slice("hello")));
  ASSERT_OK(file->Sync());
  std::string out;
  ASSERT_OK(file->ReadAt(0, 5, &out));
  EXPECT_EQ(out, "hello");
  EXPECT_EQ(env.stats().total_failures(), 0u);
  EXPECT_EQ(env.stats().corruptions, 0u);
}

TEST(FaultyEnvTest, ScriptedPointFiresOnceThenDisarms) {
  MemEnv base;
  FaultyEnv env(&base);
  ScriptedFaultPolicy policy({{FaultOp::kWriteAt, "", 2, FaultAction::kFail}});
  env.SetPolicy(&policy);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("f", true));
  ASSERT_OK(file->WriteAt(0, Slice("a")));           // write #1: clean
  Status s = file->WriteAt(1, Slice("b"));           // write #2: fails
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  ASSERT_OK(file->WriteAt(1, Slice("b")));           // transient: works now
  EXPECT_EQ(policy.fired(), 1u);
  EXPECT_EQ(env.stats().write_faults, 1u);
}

TEST(FaultyEnvTest, ReadCorruptionFlipsOneBitSilently) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("f", true));
  ASSERT_OK(file->WriteAt(0, Slice("hello world")));
  ScriptedFaultPolicy policy({{FaultOp::kReadAt, "", 1, FaultAction::kCorrupt}});
  env.SetPolicy(&policy);
  std::string rotten;
  ASSERT_OK(file->ReadAt(0, 11, &rotten));  // silently corrupt
  std::string clean;
  ASSERT_OK(file->ReadAt(0, 11, &clean));   // point disarmed
  EXPECT_EQ(clean, "hello world");
  ASSERT_EQ(rotten.size(), clean.size());
  int diffs = 0;
  for (size_t i = 0; i < clean.size(); ++i) diffs += rotten[i] != clean[i];
  EXPECT_EQ(diffs, 1);
  EXPECT_EQ(env.stats().corruptions, 1u);
}

TEST(FaultyEnvTest, ScopingLimitsFaultsToMatchingFiles) {
  MemEnv base;
  FaultyEnv env(&base);
  ScriptedFaultPolicy policy(
      {{FaultOp::kSync, "victim", 1, FaultAction::kFail}});
  env.SetPolicy(&policy);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> other, env.OpenFile("other", true));
  ASSERT_OK(other->Sync());  // different file: unaffected
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> victim,
                       env.OpenFile("victim.p0", true));
  EXPECT_TRUE(victim->Sync().IsIoError());
  EXPECT_OK(victim->Sync());
}

TEST(FaultyEnvTest, RandomPolicyIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    MemEnv base;
    FaultyEnv env(&base);
    RandomFaultPolicy::Probabilities p;
    p.write_error = 0.3;
    RandomFaultPolicy policy(seed, p);
    env.SetPolicy(&policy);
    auto file_or = env.OpenFile("f", true);
    EXPECT_TRUE(file_or.ok());
    for (int i = 0; i < 200; ++i) {
      (void)(*file_or)->WriteAt(0, Slice("x"));
    }
    return env.stats().write_faults;
  };
  uint64_t a = run(17), b = run(17), c = run(99);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 200u);
  (void)c;  // different seed may or may not differ; just must not crash
}

// Satellite regression: CrashAtEventInjector(0) used to wrap to
// UINT64_MAX allowed events and never fire.
TEST(CrashAtEventInjectorTest, ZeroClampsToImmediateCrash) {
  CrashAtEventInjector zero(0);
  EXPECT_FALSE(zero.AllowDurableEvent());
  CrashAtEventInjector first(1);
  EXPECT_FALSE(first.AllowDurableEvent());
  CrashAtEventInjector third(3);
  EXPECT_TRUE(third.AllowDurableEvent());
  EXPECT_TRUE(third.AllowDurableEvent());
  EXPECT_FALSE(third.AllowDurableEvent());
}

// ---------- BackupCursor unit tests ----------

TEST(BackupCursorTest, SaveLoadRoundTrip) {
  MemEnv env;
  BackupCursor c;
  c.backup_name = "bk";
  c.partitions = 3;
  c.pages_per_partition = 64;
  c.steps = 4;
  c.next_page = {16, 64, 0};
  ASSERT_OK(c.Save(&env));
  ASSERT_OK_AND_ASSIGN(BackupCursor loaded, BackupCursor::Load(&env, "bk"));
  EXPECT_EQ(loaded.backup_name, "bk");
  EXPECT_EQ(loaded.partitions, 3u);
  EXPECT_EQ(loaded.pages_per_partition, 64u);
  EXPECT_EQ(loaded.steps, 4u);
  EXPECT_EQ(loaded.next_page, c.next_page);
}

TEST(BackupCursorTest, CorruptCursorDetected) {
  MemEnv env;
  BackupCursor c;
  c.backup_name = "bk";
  c.partitions = 1;
  c.next_page = {7};
  ASSERT_OK(c.Save(&env));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> f, env.OpenFile("bk.cursor", false));
  ASSERT_OK(f->WriteAt(6, Slice("Z")));
  EXPECT_FALSE(BackupCursor::Load(&env, "bk").ok());
}

TEST(BackupCursorTest, RemoveMissingIsOk) {
  MemEnv env;
  EXPECT_OK(BackupCursor::Remove(&env, "never-saved"));
}

// ---------- DurableCursor under injected faults ----------
//
// Every cursor-cell user (backup cursor, ship cursor, restored-bitmap)
// leans on the same two promises: a failed Save leaves the previous
// payload loadable, and a torn tmp write can never surface as a clean
// Load. Exercise both through FaultyEnv.

TEST(DurableCursorFaultTest, FailedTmpWriteKeepsPreviousPayload) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v1")));

  ScriptedFaultPolicy policy(
      {{FaultOp::kWriteAt, "cell.tmp", 1, FaultAction::kFail}});
  env.SetPolicy(&policy);
  Status s = DurableCursor::Save(&env, "cell", Slice("v2"));
  env.SetPolicy(nullptr);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  EXPECT_EQ(policy.fired(), 1u);

  // The fault hit the tmp file before the rename: the cell still reads
  // as v1, and the very next Save (transient fault gone) lands v2.
  ASSERT_OK_AND_ASSIGN(std::string payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v1");
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v2")));
  ASSERT_OK_AND_ASSIGN(payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v2");
}

TEST(DurableCursorFaultTest, FailedTmpSyncKeepsPreviousPayload) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v1")));

  ScriptedFaultPolicy policy(
      {{FaultOp::kSync, "cell.tmp", 1, FaultAction::kFail}});
  env.SetPolicy(&policy);
  EXPECT_TRUE(DurableCursor::Save(&env, "cell", Slice("v2")).IsIoError());
  env.SetPolicy(nullptr);

  ASSERT_OK_AND_ASSIGN(std::string payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v1");
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v2")));
  ASSERT_OK_AND_ASSIGN(payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v2");
}

TEST(DurableCursorFaultTest, TornTmpWriteIsCaughtByCrcNotServed) {
  MemEnv base;
  FaultyEnv env(&base);
  // A silent bit-flip on the tmp write: Save itself reports success (the
  // rot is silent by construction) — the crc trailer must catch it at
  // Load instead of serving a torn payload as clean.
  ScriptedFaultPolicy policy(
      {{FaultOp::kWriteAt, "cell.tmp", 1, FaultAction::kCorrupt}});
  env.SetPolicy(&policy);
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("payload-v1")));
  env.SetPolicy(nullptr);
  EXPECT_EQ(policy.fired(), 1u);

  Status s = DurableCursor::Load(&env, "cell").status();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Re-saving over the rotten cell heals it.
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("payload-v2")));
  ASSERT_OK_AND_ASSIGN(std::string payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "payload-v2");
}

TEST(DurableCursorFaultTest, ReadFaultIsTransient) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v1")));
  ScriptedFaultPolicy policy(
      {{FaultOp::kReadAt, "cell", 1, FaultAction::kFail}});
  env.SetPolicy(&policy);
  EXPECT_TRUE(DurableCursor::Load(&env, "cell").status().IsIoError());
  ASSERT_OK_AND_ASSIGN(std::string payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v1");
}

TEST(DurableCursorFaultTest, OrphanTmpFromCrashBeforeRenameIsHarmless) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v1")));
  // A crash between sync and rename leaves a fully-written "<name>.tmp"
  // next to the cell. Loads must keep serving the old payload, and the
  // next Save must overwrite the orphan, not trip over it.
  {
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> tmp,
                         env.OpenFile("cell.tmp", true));
    ASSERT_OK(tmp->WriteAt(0, Slice("half-written garbage")));
  }
  ASSERT_OK_AND_ASSIGN(std::string payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v1");
  ASSERT_OK(DurableCursor::Save(&env, "cell", Slice("v2")));
  ASSERT_OK_AND_ASSIGN(payload, DurableCursor::Load(&env, "cell"));
  EXPECT_EQ(payload, "v2");
  EXPECT_FALSE(env.FileExists("cell.tmp"));
}

// ---------- end-to-end fixtures ----------

DbOptions SmallDb() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 128;
  options.cache_pages = 32;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  options.backup_steps = 4;
  return options;
}

/// A Database opened over MemEnv wrapped in a FaultyEnv, so tests can
/// inject transient faults into any engine file operation. (TestEngine
/// hardcodes a bare MemEnv, hence the manual wiring.)
struct FaultyEngine {
  MemEnv base;
  FaultyEnv env{&base};
  std::unique_ptr<Database> db;

  Status Open(const DbOptions& options) {
    LLB_ASSIGN_OR_RETURN(db, Database::Open(&env, "db", options));
    RegisterAllOps(db->registry());
    return db->Recover();
  }
};

Status Populate(Database* db, BTree* tree, int64_t* next_key, int count,
                const char* tag) {
  for (int i = 0; i < count; ++i, ++*next_key) {
    LLB_RETURN_IF_ERROR(tree->Insert((*next_key * 53) % 5003, Slice(tag)));
  }
  return db->FlushAll();
}

/// Oracle check: the stable database must equal full-log re-execution.
Status VerifyStable(Env* env, uint32_t partitions, uint32_t pages,
                    const std::string& tag) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                       LogManager::Open(env, Database::LogName("db")));
  std::unique_ptr<PageStore> oracle;
  LLB_RETURN_IF_ERROR(testutil::BuildOracle(env, *log, registry,
                                            "oracle_" + tag, partitions,
                                            &oracle));
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName("db"), partitions));
  std::string diff = testutil::DiffStores(*stable, *oracle, partitions, pages);
  if (!diff.empty()) {
    return Status::Internal("stable state differs from oracle at page " +
                            diff);
  }
  return Status::OK();
}

/// Wipes S and media-recovers it from `backup`, then oracle-verifies.
Status WipeRestoreVerify(Env* env, const std::string& backup,
                         uint32_t partitions, uint32_t pages,
                         const std::string& tag) {
  {
    LLB_ASSIGN_OR_RETURN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(env, Database::StableName("db"), partitions));
    for (PartitionId p = 0; p < partitions; ++p) {
      LLB_RETURN_IF_ERROR(stable->WipePartition(p));
    }
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  LLB_ASSIGN_OR_RETURN(
      MediaRecoveryReport report,
      RestoreFromBackup(env, Database::StableName("db"),
                        Database::LogName("db"), backup, registry));
  if (report.pages_restored == 0) {
    return Status::Internal("restore copied no pages");
  }
  return VerifyStable(env, partitions, pages, tag);
}

// ---------- retry ----------

TEST(FaultInjectionTest, RetryAbsorbsEveryTransientFaultKind) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  int64_t next_key = 0;
  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 2000, "pre"));

  // One fault of each kind, at distinct points of the sweep: a stable
  // read error, a backup write error, a backup sync error, and a silent
  // bit-flip on a stable read (caught by the page CRC at reap and healed
  // by the reader's latched re-read).
  ScriptedFaultPolicy policy;
  policy.Add({FaultOp::kReadAt, ".stable", 10, FaultAction::kFail});
  policy.Add({FaultOp::kWriteAt, "bk.pages", 50, FaultAction::kFail});
  policy.Add({FaultOp::kSync, "bk.pages", 70, FaultAction::kFail});
  policy.Add({FaultOp::kReadAt, ".stable", 30, FaultAction::kCorrupt});
  engine.env.SetPolicy(&policy);

  BackupJobOptions job;
  job.steps = 4;
  job.retry.max_retries = 2;
  BackupJobStats stats;
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                       engine.db->TakeBackupWithOptions("bk", job, &stats));
  engine.env.SetPolicy(nullptr);

  EXPECT_TRUE(manifest.complete);
  EXPECT_EQ(policy.fired(), 4u);
  // Every injected fault was observed: the three hard errors were each
  // absorbed by exactly one retry, the bit-flip by one checksum re-read.
  EXPECT_EQ(stats.io_faults, 3u);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.checksum_rereads, 1u);
  EXPECT_EQ(engine.env.stats().total_failures(), 3u);
  EXPECT_EQ(engine.env.stats().corruptions, 1u);

  ASSERT_OK_AND_ASSIGN(ScrubReport report, engine.db->VerifyBackup("bk"));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.pages_scanned, 128u);

  tree.reset();
  engine.db.reset();
  ASSERT_OK(WipeRestoreVerify(&engine.env, "bk", 1, 128, "retry"));
}

// ---------- abort + resume, one scripted fault point per IO kind ----------

struct FaultCase {
  const char* name;
  std::vector<FaultPoint> points;
};

TEST(FaultInjectionTest, EveryFaultPointAbortsCleanlyAndResumes) {
  // Countdowns land in the sweep's second step (pages 32..63 of 128 in 4
  // steps), so the persisted cursor has real progress to skip on resume.
  // A bit-flip on the optimistic read alone would be healed by the
  // reader's latched re-read, so the bit-flip case rots both: a fired
  // point does not count down the others, so two points at 40 fire on
  // reads 40 and 41 — the async read and its re-read.
  const FaultCase kCases[] = {
      {"stable-read-error",
       {{FaultOp::kReadAt, ".stable", 40, FaultAction::kFail}}},
      {"backup-write-error",
       {{FaultOp::kWriteAt, "bk.pages", 40, FaultAction::kFail}}},
      {"backup-sync-error",
       {{FaultOp::kSync, "bk.pages", 40, FaultAction::kFail}}},
      {"stable-read-bitflip",
       {{FaultOp::kReadAt, ".stable", 40, FaultAction::kCorrupt},
        {FaultOp::kReadAt, ".stable", 40, FaultAction::kCorrupt}}},
  };
  for (const FaultCase& c : kCases) {
    SCOPED_TRACE(c.name);
    FaultyEngine engine;
    ASSERT_OK(engine.Open(SmallDb()));
    auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                        SplitLogging::kLogical);
    ASSERT_OK(tree->Create());
    int64_t next_key = 0;
    ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 2000, "pre"));

    // No retries: the single fault must abort the run cleanly.
    ScriptedFaultPolicy policy(c.points);
    engine.env.SetPolicy(&policy);
    BackupJobOptions job;
    job.steps = 4;
    BackupJobStats run_stats;
    Result<BackupManifest> run =
        engine.db->TakeBackupWithOptions("bk", job, &run_stats);
    engine.env.SetPolicy(nullptr);
    ASSERT_FALSE(run.ok()) << "injected fault did not abort the sweep";
    EXPECT_EQ(policy.fired(), c.points.size());
    EXPECT_EQ(run_stats.io_faults, 1u);
    EXPECT_EQ(run_stats.retries, 0u);

    // The aborted backup is not usable as-is: the manifest says so, and
    // the scrubber refuses it.
    ASSERT_OK_AND_ASSIGN(BackupManifest aborted,
                         BackupManifest::Load(&engine.env, "bk"));
    EXPECT_FALSE(aborted.complete);
    EXPECT_FALSE(engine.db->VerifyBackup("bk").ok());

    // Update activity between abort and resume: the fences stayed up, so
    // flushes into already-copied regions keep being identity-logged —
    // this is what makes the resumed backup's fence math stay correct.
    ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 60, "mid"));

    BackupJobStats resume_stats;
    ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                         engine.db->ResumeBackup("bk", job, &resume_stats));
    EXPECT_TRUE(manifest.complete);
    EXPECT_EQ(manifest.start_lsn, aborted.start_lsn);
    EXPECT_EQ(resume_stats.partitions_resumed, 1u);
    EXPECT_EQ(resume_stats.pages_skipped_on_resume, 32u);

    ASSERT_OK_AND_ASSIGN(ScrubReport report, engine.db->VerifyBackup("bk"));
    EXPECT_TRUE(report.clean());

    // Post-backup updates, then full media recovery from the resumed
    // backup, checked against the full-log oracle.
    ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 40, "post"));
    ASSERT_OK(engine.db->ForceLog());
    tree.reset();
    engine.db.reset();
    ASSERT_OK(WipeRestoreVerify(&engine.env, "bk", 1, 128,
                                std::string("resume_") + c.name));
  }
}

TEST(FaultInjectionTest, IncrementalBackupResumesAndChainRestores) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  int64_t next_key = 0;
  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 250, "pre"));
  ASSERT_OK_AND_ASSIGN(BackupManifest base,
                       engine.db->TakeBackup("bk_full"));
  EXPECT_TRUE(base.complete);

  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 80, "delta"));

  // Fault the incremental's second page write into B; no retries.
  ScriptedFaultPolicy policy(
      {{FaultOp::kWriteAt, "bk_incr.pages", 2, FaultAction::kFail}});
  engine.env.SetPolicy(&policy);
  Result<BackupManifest> run =
      engine.db->TakeIncrementalBackup("bk_incr", "bk_full");
  engine.env.SetPolicy(nullptr);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(policy.fired(), 1u);

  // Resume re-reads the page list from the incomplete manifest.
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                       engine.db->ResumeBackup("bk_incr"));
  EXPECT_TRUE(manifest.complete);
  EXPECT_TRUE(manifest.incremental);
  EXPECT_GT(manifest.pages.size(), 0u);

  // Chain scrub walks incremental + base.
  ASSERT_OK_AND_ASSIGN(ScrubReport report, engine.db->VerifyBackup("bk_incr"));
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.manifests_checked, 2u);

  ASSERT_OK(engine.db->ForceLog());
  tree.reset();
  engine.db.reset();
  ASSERT_OK(WipeRestoreVerify(&engine.env, "bk_incr", 1, 128, "incr"));
}

TEST(FaultInjectionTest, ResumeRejectsCompleteBackup) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  int64_t next_key = 0;
  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 50, "pre"));
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest, engine.db->TakeBackup("bk"));
  EXPECT_TRUE(manifest.complete);
  Status s = engine.db->ResumeBackup("bk").status();
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
}

TEST(FaultInjectionTest, ResumeRejectsMismatchedCursorGeometry) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  BackupManifest m;
  m.name = "badbk";
  m.partitions = 1;
  m.pages_per_partition = 128;
  m.steps = 4;
  ASSERT_OK(m.Save(&engine.env));
  BackupCursor c;
  c.backup_name = "badbk";
  c.partitions = 1;
  c.pages_per_partition = 64;  // does not match manifest / job geometry
  c.steps = 4;
  c.next_page = {0};
  ASSERT_OK(c.Save(&engine.env));
  Status s = engine.db->ResumeBackup("badbk").status();
  EXPECT_EQ(s.code(), Status::Code::kFailedPrecondition) << s.ToString();
}

// ---------- scrub: detection and repair ----------

TEST(FaultInjectionTest, ScrubDetectsAndRepairsInjectedBitRot) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  int64_t next_key = 0;
  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 250, "pre"));

  // A silent bit-flip on the 20th page write into B: the backup
  // "completes" successfully while carrying a corrupt page.
  ScriptedFaultPolicy policy(
      {{FaultOp::kWriteAt, "bk.pages", 20, FaultAction::kCorrupt}});
  engine.env.SetPolicy(&policy);
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest, engine.db->TakeBackup("bk"));
  engine.env.SetPolicy(nullptr);
  EXPECT_TRUE(manifest.complete);
  EXPECT_EQ(policy.fired(), 1u);

  // Verify-only: the rot is detected, nothing is mutated.
  ASSERT_OK_AND_ASSIGN(ScrubReport verify, engine.db->VerifyBackup("bk"));
  EXPECT_FALSE(verify.clean());
  EXPECT_EQ(verify.bad_pages, 1u);
  EXPECT_EQ(verify.repaired_from_stable + verify.repaired_from_log, 0u);

  // Repair: the page is re-copied from S under the fence protocol.
  ASSERT_OK_AND_ASSIGN(ScrubReport repair, engine.db->ScrubBackup("bk"));
  EXPECT_EQ(repair.bad_pages, 1u);
  EXPECT_EQ(repair.repaired_from_stable, 1u);
  EXPECT_TRUE(repair.fully_repaired());

  ASSERT_OK_AND_ASSIGN(ScrubReport again, engine.db->VerifyBackup("bk"));
  EXPECT_TRUE(again.clean());

  // The repaired backup supports a full media recovery.
  tree.reset();
  engine.db.reset();
  ASSERT_OK(WipeRestoreVerify(&engine.env, "bk", 1, 128, "bitrot"));
}

TEST(FaultInjectionTest, ScrubRepairsFromLogWhenStableIsBadToo) {
  FaultyEngine engine;
  ASSERT_OK(engine.Open(SmallDb()));
  auto tree = std::make_unique<BTree>(engine.db.get(), 0, 0,
                                      SplitLogging::kLogical);
  ASSERT_OK(tree->Create());
  int64_t next_key = 0;
  ASSERT_OK(Populate(engine.db.get(), tree.get(), &next_key, 250, "pre"));
  ASSERT_OK_AND_ASSIGN(BackupManifest manifest, engine.db->TakeBackup("bk"));
  EXPECT_TRUE(manifest.complete);

  // Rot the same page in BOTH the backup and the stable database: the
  // only remaining source is media-recovery redo from the log.
  const PageId victim{0, 1};
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> backup_store,
        PageStore::Open(&engine.env, manifest.StoreName(), 1));
    ASSERT_OK(backup_store->CorruptPage(victim));
  }
  ASSERT_OK(engine.db->stable()->CorruptPage(victim));

  ASSERT_OK_AND_ASSIGN(ScrubReport repair, engine.db->ScrubBackup("bk"));
  EXPECT_EQ(repair.bad_pages, 1u);
  EXPECT_EQ(repair.repaired_from_log, 1u);
  EXPECT_TRUE(repair.fully_repaired());

  // S was healed as a side effect of the rebuild.
  PageImage healed;
  ASSERT_OK(engine.db->stable()->ReadPage(victim, &healed));

  ASSERT_OK_AND_ASSIGN(ScrubReport again, engine.db->VerifyBackup("bk"));
  EXPECT_TRUE(again.clean());

  tree.reset();
  engine.db.reset();
  ASSERT_OK(WipeRestoreVerify(&engine.env, "bk", 1, 128, "logrepair"));
}

}  // namespace
}  // namespace llb
