#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "btree/btree.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"
#include "tests/test_util.h"
#include "torture/torture_util.h"
#include "wal/log_record.h"

namespace llb {
namespace {

/// Boundary behavior of Database::RestoreToLsn, on a B-tree workload so
/// the log carries real multi-record atomic groups (logical splits).

DbOptions TreeOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 32;
  options.cache_pages = 16;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  return options;
}

/// A primary with a backup and a log that extends past it. Captures a
/// quiescent pre-backup LSN, the backup, a quiescent post-backup target,
/// and the final tail.
struct PitrRig {
  TortureEngine engine{TreeOptions()};
  std::unique_ptr<BTree> tree;
  uint64_t next_key = 0;
  Lsn before_backup = kInvalidLsn;  // quiescent, earlier than the backup
  BackupManifest backup;
  Lsn target = kInvalidLsn;  // quiescent, after the backup
  Lsn tail = kInvalidLsn;

  Status Build() {
    LLB_RETURN_IF_ERROR(engine.Open());
    tree = std::make_unique<BTree>(engine.db.get(), /*partition=*/0,
                                   /*meta_page=*/0, SplitLogging::kLogical);
    LLB_RETURN_IF_ERROR(tree->Create());
    // Past kLeafCapacity (~63), so the log carries at least one logical
    // split — a genuine multi-record atomic group.
    LLB_RETURN_IF_ERROR(Insert(70));
    before_backup = engine.db->log()->durable_lsn();
    LLB_RETURN_IF_ERROR(engine.db->Checkpoint());
    LLB_ASSIGN_OR_RETURN(backup, engine.db->TakeBackup("pitr_bk", 4));
    if (!backup.complete) return Status::Internal("backup incomplete");
    LLB_RETURN_IF_ERROR(Insert(10));
    target = engine.db->log()->durable_lsn();
    LLB_RETURN_IF_ERROR(Insert(10));
    tail = engine.db->log()->durable_lsn();
    return Status::OK();
  }

  /// Inserts `n` keys, flushes, and forces the log — every return leaves
  /// the log at a quiescent boundary (all groups closed).
  Status Insert(uint32_t n) {
    for (uint32_t i = 0; i < n; ++i, ++next_key) {
      LLB_RETURN_IF_ERROR(
          tree->Insert(static_cast<int64_t>((next_key * 53) % 4001),
                       Slice("v")));
    }
    LLB_RETURN_IF_ERROR(engine.db->FlushAll());
    return engine.db->ForceLog();
  }

  /// Simulated media failure: close everything and wipe S.
  Status Wipe() {
    tree.reset();
    engine.Shutdown();
    return torture::WipeStable(&engine);
  }

  Result<MediaRecoveryReport> Restore(Lsn to) {
    OpRegistry registry;
    RegisterAllOps(&registry);
    return Database::RestoreToLsn(&engine.env, engine.name, to, registry);
  }
};

TEST(PitrBoundaryTest, ExactQuiescentTargetRestoresThatPrefix) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  ASSERT_OK(rig.Wipe());
  ASSERT_OK_AND_ASSIGN(MediaRecoveryReport report, rig.Restore(rig.target));
  EXPECT_GT(report.pages_restored, 0u);
  // Stable state equals the oracle of exactly the log prefix [1, target].
  ASSERT_OK(torture::VerifyStableOffline(&rig.engine, rig.target));
  // The excluded suffix was discarded: the database reopens at the
  // target, not the old tail.
  ASSERT_OK(rig.engine.Open());
  EXPECT_EQ(rig.engine.db->log()->durable_lsn(), rig.target);
  ASSERT_OK(torture::VerifyOpenDb(&rig.engine));
}

TEST(PitrBoundaryTest, TargetInOlderSealedFileCutsEveryFileAfterIt) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  // TruncateLog(1) keeps everything but rolls: the target ends up in the
  // oldest sealed file, with a second sealed file and the active file
  // after it.
  ASSERT_OK(rig.engine.db->TruncateLog(1));
  ASSERT_OK(rig.Insert(10));
  ASSERT_OK(rig.engine.db->TruncateLog(1));
  ASSERT_OK(rig.Insert(10));
  const std::vector<LogFileInfo> before = rig.engine.db->log()->Files();
  ASSERT_EQ(before.size(), 3u);
  ASSERT_LT(before[0].first_lsn, rig.target);
  ASSERT_GT(before[1].first_lsn, rig.target);

  ASSERT_OK(rig.Wipe());
  ASSERT_OK(rig.Restore(rig.target).status());
  ASSERT_OK(torture::VerifyStableOffline(&rig.engine, rig.target));
  EXPECT_FALSE(rig.engine.env.FileExists(before[1].name));
  ASSERT_OK(rig.engine.Open());
  EXPECT_EQ(rig.engine.db->log()->durable_lsn(), rig.target);
  const std::vector<LogFileInfo> after = rig.engine.db->log()->Files();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].name, before[0].name);
  EXPECT_EQ(after[1].first_lsn, rig.target + 1);
  ASSERT_OK(torture::VerifyOpenDb(&rig.engine));
}

TEST(PitrBoundaryTest, MidGroupTargetIsRefused) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  // Find a record strictly inside a multi-record group: a kGroupBegin
  // that is not also its own kGroupEnd (a logical split logs several).
  Lsn mid_group = kInvalidLsn;
  ASSERT_OK(rig.engine.db->log()->Scan(1, [&](const LogRecord& rec) {
    if (mid_group == kInvalidLsn && rec.IsGroupBegin() && !rec.IsGroupEnd()) {
      mid_group = rec.lsn;
    }
    return Status::OK();
  }));
  ASSERT_NE(mid_group, kInvalidLsn)
      << "workload produced no multi-record group";

  ASSERT_OK(rig.Wipe());
  Status s = rig.Restore(mid_group).status();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.ToString().find("atomic group"), std::string::npos)
      << s.ToString();
  // The refused restore left a recoverable situation: restoring to a
  // valid boundary still works.
  ASSERT_OK(rig.Restore(rig.target).status());
  ASSERT_OK(torture::VerifyStableOffline(&rig.engine, rig.target));
}

TEST(PitrBoundaryTest, TargetOlderThanEveryBackupIsRefused) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  ASSERT_GT(rig.backup.end_lsn, rig.before_backup);
  ASSERT_OK(rig.Wipe());
  // before_backup is a clean boundary, but no retained chain ends at or
  // before it — there is nothing to seed the page copy from.
  Status s = rig.Restore(rig.before_backup).status();
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();
  EXPECT_NE(s.ToString().find("predates"), std::string::npos) << s.ToString();
}

TEST(PitrBoundaryTest, TargetAtDurableTailEqualsPlainRestore) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  ASSERT_OK(rig.Wipe());
  ASSERT_OK(rig.Restore(rig.tail).status());
  ASSERT_OK(torture::VerifyStableOffline(&rig.engine, kInvalidLsn));
  ASSERT_OK(rig.engine.Open());
  EXPECT_EQ(rig.engine.db->log()->durable_lsn(), rig.tail);
  ASSERT_OK(torture::VerifyOpenDb(&rig.engine));
}

TEST(PitrBoundaryTest, TargetPastTailOrInvalidIsRefused) {
  PitrRig rig;
  ASSERT_OK(rig.Build());
  ASSERT_OK(rig.Wipe());
  Status past = rig.Restore(rig.tail + 1).status();
  EXPECT_TRUE(past.IsInvalidArgument()) << past.ToString();
  Status zero = rig.Restore(kInvalidLsn).status();
  EXPECT_TRUE(zero.IsInvalidArgument()) << zero.ToString();
}

/// PITR composed with fault-injected replication: the log tail that redo
/// rolls forward was shipped through a faulty channel (one transient send
/// failure, one torn frame healed by resync) before the primary's media
/// failed. The restore must be oblivious to all of that.
TEST(PitrBoundaryTest, RestoreToLsnAfterFaultyChannelReplication) {
  PitrRig rig;
  ASSERT_OK(rig.engine.Open());
  ASSERT_OK(rig.engine.OpenStandby());
  rig.tree = std::make_unique<BTree>(rig.engine.db.get(), 0, 0,
                                     SplitLogging::kLogical);
  ASSERT_OK(rig.tree->Create());
  FileShipChannel channel(&rig.engine.env, "ship");
  LogShipper shipper(&rig.engine.env, rig.engine.name,
                     rig.engine.db->log(), &channel);
  ASSERT_OK(shipper.Attach());
  StandbyApplier applier(rig.engine.standby.get(), &channel);
  ASSERT_OK(applier.CatchUpFromLocalLog());

  ASSERT_OK(rig.Insert(12));
  ASSERT_OK(rig.engine.db->Checkpoint());
  ASSERT_OK_AND_ASSIGN(rig.backup, rig.engine.db->TakeBackup("pitr_bk", 4));
  ASSERT_TRUE(rig.backup.complete);

  // Ship through a transient send failure...
  ScriptedFaultPolicy drop(
      {{FaultOp::kWriteAt, "ship.f", 1, FaultAction::kFail}});
  rig.engine.env.SetPolicy(&drop);
  ASSERT_OK(shipper.Pump());
  rig.engine.env.SetPolicy(nullptr);
  EXPECT_EQ(drop.fired(), 1u);
  ASSERT_OK(applier.Drain());

  // ...then a torn frame, repaired by the resync NAK path.
  ASSERT_OK(rig.Insert(10));
  rig.target = rig.engine.db->log()->durable_lsn();
  ScriptedFaultPolicy rot(
      {{FaultOp::kWriteAt, "ship.f", 1, FaultAction::kCorrupt}});
  rig.engine.env.SetPolicy(&rot);
  ASSERT_OK(shipper.Pump());
  rig.engine.env.SetPolicy(nullptr);
  EXPECT_EQ(rot.fired(), 1u);
  ASSERT_OK(applier.Drain());
  ASSERT_LT(applier.applied_lsn(), rig.target);
  ASSERT_OK(shipper.Resync(applier.applied_lsn() + 1));
  ASSERT_OK(shipper.Pump());
  ASSERT_OK(applier.Drain());
  ASSERT_EQ(applier.applied_lsn(), rig.target);

  ASSERT_OK(rig.Insert(10));
  ASSERT_OK(shipper.Pump());
  ASSERT_OK(applier.Drain());
  shipper.Detach();

  // Media failure on the primary; rewind it to the recorded target.
  ASSERT_OK(rig.Wipe());
  ASSERT_OK(rig.Restore(rig.target).status());
  ASSERT_OK(torture::VerifyStableOffline(&rig.engine, rig.target));
  ASSERT_OK(rig.engine.Open());
  EXPECT_EQ(rig.engine.db->log()->durable_lsn(), rig.target);
  ASSERT_OK(torture::VerifyOpenDb(&rig.engine));
}

}  // namespace
}  // namespace llb
