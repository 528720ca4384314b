#include <gtest/gtest.h>

#include <memory>

#include "common/coding.h"
#include "filestore/file_ops.h"
#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "ops/op_registry.h"
#include "ops/operation.h"
#include "recovery/checkpoint.h"
#include "recovery/redo.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageId P(uint32_t page) { return PageId{0, page}; }

PageImage ValuePage(const std::string& content) {
  PageImage page;
  page.SetPayload(Slice(content));
  page.set_type(PageType::kRaw);
  return page;
}

class RedoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterFileOps(&registry_);
    auto log = LogManager::Open(&env_, "log");
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();
    auto store = PageStore::Open(&env_, "stable", 1);
    ASSERT_TRUE(store.ok());
    stable_ = std::move(store).value();
  }

  Lsn Append(LogRecord rec) {
    Lsn lsn = log_->Append(&rec);
    EXPECT_TRUE(log_->Force().ok());
    return lsn;
  }

  std::string PagePrefix(const PageId& id, size_t n) {
    PageImage page;
    EXPECT_TRUE(stable_->ReadPage(id, &page).ok());
    return page.payload().ToString().substr(0, n);
  }

  MemEnv env_;
  OpRegistry registry_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageStore> stable_;
};

TEST_F(RedoTest, ReplaysPhysicalWrite) {
  Append(MakePhysicalWrite(P(1), ValuePage("hello")));
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 1u);
  EXPECT_EQ(PagePrefix(P(1), 5), "hello");
}

TEST_F(RedoTest, SkipsAlreadyInstalledOps) {
  PageImage v = ValuePage("hello");
  Lsn lsn = Append(MakePhysicalWrite(P(1), v));
  v.set_lsn(lsn);
  ASSERT_OK(stable_->WritePage(P(1), v));  // already flushed
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 0u);
}

TEST_F(RedoTest, IsIdempotent) {
  Append(MakePhysicalWrite(P(1), ValuePage("once")));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  ASSERT_OK_AND_ASSIGN(RedoReport second,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(second.ops_replayed, 0u);
  EXPECT_EQ(second.pages_written, 0u);
}

TEST_F(RedoTest, ReplaysLogicalOpFromReadSet) {
  Append(MakePhysicalWrite(P(1), ValuePage("source")));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 6), "source");
}

TEST_F(RedoTest, LogicalOpChainReplaysInOrder) {
  Append(MakePhysicalWrite(P(1), ValuePage("abc")));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  Append(MakeFileCopy({P(2)}, {P(3)}));
  Append(MakePhysicalWrite(P(1), ValuePage("xyz")));  // overwrite source
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  // The copies must have seen the OLD value of page 1.
  EXPECT_EQ(PagePrefix(P(2), 3), "abc");
  EXPECT_EQ(PagePrefix(P(3), 3), "abc");
  EXPECT_EQ(PagePrefix(P(1), 3), "xyz");
}

TEST_F(RedoTest, PerTargetTestSkipsNewerPages) {
  // Copy writes pages 2 and 3; page 3 was already flushed with the op's
  // LSN, page 2 was not: only page 2 is (re)written.
  Append(MakePhysicalWrite(P(1), ValuePage("v")));
  LogRecord copy = MakeFileCopy({P(1), P(1)}, {P(2), P(3)});
  Lsn lsn = log_->Append(&copy);
  ASSERT_OK(log_->Force());
  PageImage already = ValuePage("already-there");
  already.set_lsn(lsn);
  ASSERT_OK(stable_->WritePage(P(3), already));

  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 1), "v");
  EXPECT_EQ(PagePrefix(P(3), 7), "already");  // untouched: LSN said newer
}

TEST_F(RedoTest, IdentityWriteSeedsPage) {
  // An op whose effect exists only on the log via an identity write:
  // install-without-flush. The op itself must NOT be replayed.
  Append(MakePhysicalWrite(P(1), ValuePage("in")));
  LogRecord copy = MakeFileCopy({P(1)}, {P(2)});
  Append(copy);
  // Identity write captures page 2's post-copy value.
  PageImage post;
  post.SetPayload(Slice("in"));
  post.set_type(PageType::kFile);
  Lsn wip_lsn = Append(MakeIdentityWrite(P(2), post));
  // Source page 1 then moves on AND is flushed (installed) — if the copy
  // were replayed it would read the wrong source.
  PageImage newer = ValuePage("overwritten");
  Lsn ow_lsn = Append(MakePhysicalWrite(P(1), newer));
  newer.set_lsn(ow_lsn);
  ASSERT_OK(stable_->WritePage(P(1), newer));

  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_GE(report.pages_seeded, 1u);
  EXPECT_EQ(PagePrefix(P(2), 2), "in");  // from the identity value
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(2), &page));
  EXPECT_EQ(page.lsn(), wip_lsn);
}

TEST_F(RedoTest, LastIdentityValueWins) {
  PageImage v1 = ValuePage("first");
  PageImage v2 = ValuePage("second");
  Append(MakeIdentityWrite(P(5), v1));
  Append(MakeIdentityWrite(P(5), v2));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(5), 6), "second");
}

TEST_F(RedoTest, OpsAfterSeedApplyOnTop) {
  PageImage v = ValuePage("seeded");
  Append(MakeIdentityWrite(P(1), v));
  Append(MakeFileCopy({P(1)}, {P(2)}));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), 1).status());
  EXPECT_EQ(PagePrefix(P(2), 6), "seeded");
}

TEST_F(RedoTest, StartLsnSkipsEarlierRecords) {
  Append(MakePhysicalWrite(P(1), ValuePage("old")));
  Lsn second = Append(MakePhysicalWrite(P(2), ValuePage("new")));
  ASSERT_OK(RunRedo(*log_, registry_, stable_.get(), second).status());
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(1), &page));
  EXPECT_TRUE(page.IsZero());  // record before start ignored
  EXPECT_EQ(PagePrefix(P(2), 3), "new");
}

TEST_F(RedoTest, CheckpointRecordsAreSkipped) {
  LogRecord ckpt;
  ckpt.op_code = kOpCheckpoint;
  PutFixed64(&ckpt.payload, 1);
  Append(ckpt);
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.ops_replayed, 0u);
}

TEST_F(RedoTest, FindCrashRedoStartUsesLastCheckpoint) {
  ASSERT_OK_AND_ASSIGN(Lsn none, FindCrashRedoStart(*log_));
  EXPECT_EQ(none, 1u);
  LogRecord c1;
  c1.op_code = kOpCheckpoint;
  PutFixed64(&c1.payload, 7);
  Append(c1);
  LogRecord c2;
  c2.op_code = kOpCheckpoint;
  PutFixed64(&c2.payload, 12);
  Append(c2);
  ASSERT_OK_AND_ASSIGN(Lsn start, FindCrashRedoStart(*log_));
  EXPECT_EQ(start, 12u);
}

TEST_F(RedoTest, EmptyLogIsANoOp) {
  ASSERT_OK_AND_ASSIGN(RedoReport report,
                       RunRedo(*log_, registry_, stable_.get(), 1));
  EXPECT_EQ(report.records_scanned, 0u);
  EXPECT_EQ(report.pages_written, 0u);
}


/// Crash points inside redo's own write-back. A and C sit in partition 0,
/// B and D in partition 1, so no single sync covers a pair: the replayed
/// pages must go to S in write-graph levels, and a node whose vars are
/// both dirty must be staged on the log first, or a crash between the two
/// syncs leaves a state the next redo cannot finish from.
const PageId kA{0, 1};
const PageId kB{1, 1};
const PageId kC{0, 2};
const PageId kD{1, 2};

LogRecord FileValues(const PageId& id, std::vector<int64_t> values) {
  PageImage page;
  file_page::SetValues(&page, values.data(), values.size());
  return MakePhysicalWrite(id, page);
}

struct ReplayRig {
  std::unique_ptr<LogManager> log;
  std::unique_ptr<PageStore> stable;
};

/// Opens the log and S in `env`; with `records`, logs them and installs
/// the leading physical writes (the pages' initial values) in S. With
/// `fill_to_roll`, checkpoint records (replay skips them) go first and
/// leave the active log file 4 KiB short of a roll, so the first level a
/// replay stages rolls it.
ReplayRig OpenReplayRig(MemEnv* env, std::vector<LogRecord> records = {},
                        bool fill_to_roll = false) {
  ReplayRig rig;
  rig.log = std::move(LogManager::Open(env, "log")).value();
  rig.stable = std::move(PageStore::Open(env, "stable", 2)).value();
  if (fill_to_roll) {
    uint64_t room = kLogRollBytes - 4096;
    for (const LogRecord& rec : records) room -= rec.EncodedSize();
    while (room > 1024) {
      LogRecord pad;
      pad.op_code = kOpCheckpoint;
      pad.payload.assign(std::min<uint64_t>(room - 512, 256 << 10), 'p');
      rig.log->Append(&pad);
      room -= pad.EncodedSize();
    }
  }
  bool installing = true;
  for (LogRecord& rec : records) {
    rig.log->Append(&rec);
    installing = installing && rec.op_code == kOpPhysicalWrite;
    if (installing) {
      PageImage image = PageImage::FromRaw(rec.payload);
      image.set_lsn(rec.lsn);
      EXPECT_OK(rig.stable->WritePage(rec.writeset[0], image));
    }
  }
  EXPECT_OK(rig.log->Force());
  return rig;
}

Status RedoOwnLog(ReplayRig* rig, const OpRegistry& registry) {
  return RunCrashRedo(rig->log.get(), RedoTarget::kDatabase, registry,
                      rig->stable.get(), 1)
      .status();
}

/// Runs redo over `records` once to count its durability events (one sync
/// per partition per level, a log force before each level that stages,
/// and the log cut), then crashes it at each one in turn: the next redo
/// must bring S to the oracle and hand every staged LSN back.
void CrashEveryFlushEvent(const std::vector<LogRecord>& records,
                          uint64_t expect_events, bool fill_to_roll = false) {
  OpRegistry registry;
  RegisterFileOps(&registry);
  uint64_t events = 0;
  Lsn next_lsn = 0;
  {
    MemEnv env;
    ReplayRig rig = OpenReplayRig(&env, records, fill_to_roll);
    next_lsn = rig.log->next_lsn();
    const uint64_t before = env.durable_events();
    ASSERT_OK(RedoOwnLog(&rig, registry));
    events = env.durable_events() - before;
    EXPECT_EQ(rig.log->next_lsn(), next_lsn);
  }
  ASSERT_EQ(events, expect_events);

  for (uint64_t k = 1; k <= events; ++k) {
    MemEnv env;
    {
      ReplayRig rig = OpenReplayRig(&env, records, fill_to_roll);
      CrashAtEventInjector injector(k);
      env.SetFaultInjector(&injector);
      EXPECT_FALSE(RedoOwnLog(&rig, registry).ok()) << "crash point " << k;
    }
    env.CrashAndRestart();
    env.SetFaultInjector(nullptr);

    ReplayRig rig = OpenReplayRig(&env);
    ASSERT_OK(RedoOwnLog(&rig, registry));
    EXPECT_EQ(rig.log->next_lsn(), next_lsn) << "staged records survived";
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> oracle,
                         PageStore::Open(&env, "oracle", 2));
    ASSERT_OK(RunRedoRange(*rig.log, registry, oracle.get(), 1, kInvalidLsn,
                           /*only_partition=*/nullptr,
                           /*use_identity_seeds=*/false)
                  .status());
    EXPECT_EQ(testutil::DiffStores(*rig.stable, *oracle, 2, 3), "")
        << "crash point " << k;
  }
}

TEST(ReplayFlushCrashTest, CopyThenOverwriteOfItsSource) {
  // Two levels, B's then A's, nothing staged: one sync each.
  CrashEveryFlushEvent({FileValues(kA, {1, 2, 3}), FileValues(kB, {9}),
                        MakeFileCopy({kA}, {kB}), MakeFileTransform({kA}, 7)},
                       /*expect_events=*/2);
}

TEST(ReplayFlushCrashTest, CycleCollapsesIntoATwoVarNode) {
  // B = f(A), A = g(B), then both rewritten from both: one node {A, B},
  // staged (a force), written (two syncs), cut (one truncation).
  CrashEveryFlushEvent({FileValues(kA, {1, 2, 3}), FileValues(kB, {9}),
                        MakeFileCopy({kA}, {kB}), MakeFileCopy({kB}, {kA}),
                        MakeFileTransform({kA, kB}, 7)},
                       /*expect_events=*/4);
}

/// Node {A, B} reads C, which node {C, D} overwrites afterwards: two
/// two-var nodes in two levels, each staged before its level is written.
std::vector<LogRecord> TwoStagedLevels() {
  return {FileValues(kA, {1, 2, 3}),    FileValues(kB, {9}),
          FileValues(kC, {4, 5}),       FileValues(kD, {6}),
          MakeFileCopy({kA}, {kB}),     MakeFileCopy({kB}, {kA}),
          MakeFileTransform({kA, kB}, 7), MakeFileCopy({kC}, {kA}),
          MakeFileCopy({kC}, {kD}),     MakeFileCopy({kD}, {kC}),
          MakeFileTransform({kC, kD}, 5)};
}

TEST(ReplayFlushCrashTest, TwoMultiVarNodesInTwoLevels) {
  // Per level a force and two syncs, then one truncation.
  CrashEveryFlushEvent(TwoStagedLevels(), /*expect_events=*/7);
}

TEST(ReplayFlushCrashTest, StagedLevelsSpanALogRoll) {
  // The first level's force rolls the log, so the second level stages in
  // a new file and the cut spans two: each file is truncated.
  CrashEveryFlushEvent(TwoStagedLevels(), /*expect_events=*/8,
                       /*fill_to_roll=*/true);
}

}  // namespace
}  // namespace llb
