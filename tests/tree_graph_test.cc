#include <gtest/gtest.h>

#include <vector>

#include "recovery/tree_write_graph.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageId P(uint32_t page) { return PageId{0, page}; }

LogRecord PageOp(Lsn lsn, uint32_t page) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.op_code = kOpBtreeInsert;
  rec.readset = {P(page)};
  rec.writeset = {P(page)};
  return rec;
}

/// W_L(old, new): reads `old`, writes the fresh page `new`.
LogRecord WriteNew(Lsn lsn, uint32_t old_page, uint32_t new_page) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.op_code = kOpBtreeMovRec;
  rec.readset = {P(old_page)};
  rec.writeset = {P(new_page)};
  return rec;
}

TEST(TreeGraphTest, PageOrientedOpsHaveNoConstraints) {
  TreeWriteGraph graph;
  graph.OnOperation(PageOp(1, 5));
  graph.OnOperation(PageOp(2, 6));
  EXPECT_FALSE(graph.HasSuccessors(P(5)));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(5), &plan));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_FALSE(plan[0].has_successors);
}

TEST(TreeGraphTest, WriteNewRecordsSuccessor) {
  TreeWriteGraph graph;
  // The dagger property holds when the successor's position is BELOW the
  // new object's (#y < #X): X is then swept no earlier than y (paper 4.2,
  // "This is so when #y < #X"). Here #new(9) > #old(3): no violation.
  graph.OnOperation(WriteNew(1, /*old=*/3, /*new=*/9));
  EXPECT_TRUE(graph.HasSuccessors(P(9)));
  EXPECT_EQ(graph.MaxSuccessorPos(P(9)), 3u);
  EXPECT_FALSE(graph.Violation(P(9)));
}

TEST(TreeGraphTest, ViolationWhenNewBelowOld) {
  TreeWriteGraph graph;
  // #new(3) < #old(9): the sweep passes X before its successor, so the
  // dagger property fails — violation(X) set.
  graph.OnOperation(WriteNew(1, /*old=*/9, /*new=*/3));
  EXPECT_TRUE(graph.Violation(P(3)));
}

TEST(TreeGraphTest, MaxPosIsTransitive) {
  TreeWriteGraph graph;
  // 2 <- reads 50 (dirty via write-new from 50? build chain):
  // W_L(50, 4): S(4) = {50}; then W_L(4, 2): S(2) = {4} u S(4).
  graph.OnOperation(WriteNew(1, 50, 4));
  graph.OnOperation(WriteNew(2, 4, 2));
  EXPECT_EQ(graph.MaxSuccessorPos(P(2)), 50u);
}

TEST(TreeGraphTest, ViolationPropagatesToNewPredecessors) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, /*old=*/9, /*new=*/3));  // violation on 3
  ASSERT_TRUE(graph.Violation(P(3)));
  // #new(7) > #old(3) would be fine alone, but violation(3) propagates
  // ("any subsequently added predecessors of X also have an order
  // violation", paper 4.2).
  graph.OnOperation(WriteNew(2, /*old=*/3, /*new=*/7));
  EXPECT_TRUE(graph.Violation(P(7)));
}

TEST(TreeGraphTest, OldUpdateBindsPredecessorEdge) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, /*old=*/9, /*new=*/3));
  EXPECT_FALSE(graph.MustInstallBefore(P(3), P(9)));  // old not dirty yet
  graph.OnOperation(PageOp(2, 9));  // RmvRec-like update of old
  EXPECT_TRUE(graph.MustInstallBefore(P(3), P(9)));
}

TEST(TreeGraphTest, PlanInstallsNewBeforeOld) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  graph.OnOperation(PageOp(2, 9));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(9), &plan));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].vars, std::vector<PageId>{P(3)});
  EXPECT_EQ(plan[1].vars, std::vector<PageId>{P(9)});
  EXPECT_TRUE(plan[0].preds.empty());
  EXPECT_EQ(plan[1].preds, std::vector<uint64_t>{plan[0].node_id});
}

TEST(TreeGraphTest, PlanChainOfSplits) {
  TreeWriteGraph graph;
  // Split cascade: 9 -> 3 -> 1 (each new from the previous new).
  graph.OnOperation(WriteNew(1, 9, 3));
  graph.OnOperation(PageOp(2, 9));
  graph.OnOperation(WriteNew(3, 3, 1));
  graph.OnOperation(PageOp(4, 3));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(9), &plan));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].vars, std::vector<PageId>{P(1)});
  EXPECT_EQ(plan[1].vars, std::vector<PageId>{P(3)});
  EXPECT_EQ(plan[2].vars, std::vector<PageId>{P(9)});
}

TEST(TreeGraphTest, OneOldCanSpawnMultipleNews) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  graph.OnOperation(WriteNew(2, 9, 4));
  graph.OnOperation(PageOp(3, 9));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(9), &plan));
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.back().vars, std::vector<PageId>{P(9)});
}

TEST(TreeGraphTest, InstallReleasesWatch) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(3), &plan));
  graph.MarkInstalled(plan[0].node_id);
  EXPECT_FALSE(graph.IsTracked(P(3)));
  // Updating old after new installed: no predecessor edge.
  graph.OnOperation(PageOp(2, 9));
  std::vector<InstallUnit> plan2;
  ASSERT_OK(graph.PlanInstall(P(9), &plan2));
  EXPECT_EQ(plan2.size(), 1u);
}

TEST(TreeGraphTest, SuccessorsFixedAtFirstUpdate) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  // Later page-oriented ops on 3 do not add successors.
  graph.OnOperation(PageOp(2, 3));
  EXPECT_EQ(graph.MaxSuccessorPos(P(3)), 9u);
}

TEST(TreeGraphTest, ReinstalledPageStartsFresh) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(3), &plan));
  graph.MarkInstalled(plan[0].node_id);
  graph.OnOperation(PageOp(2, 3));
  EXPECT_FALSE(graph.HasSuccessors(P(3)));
  EXPECT_FALSE(graph.Violation(P(3)));
}

TEST(TreeGraphTest, RedoStartLsn) {
  TreeWriteGraph graph;
  EXPECT_EQ(graph.RedoStartLsn(42), 42u);
  graph.OnOperation(PageOp(5, 1));
  graph.OnOperation(PageOp(7, 2));
  EXPECT_EQ(graph.RedoStartLsn(42), 5u);
}

TEST(TreeGraphTest, StatsCountEdgesAndNodes) {
  TreeWriteGraph graph;
  graph.OnOperation(WriteNew(1, 9, 3));
  graph.OnOperation(PageOp(2, 9));
  WriteGraphStats stats = graph.GetStats();
  EXPECT_EQ(stats.nodes, 2u);
  EXPECT_EQ(stats.edges, 1u);
  EXPECT_EQ(stats.max_vars, 1u);  // tree nodes never need atomic batches
}

TEST(TreeGraphTest, AppReadShapedOpMakesReadPageASuccessor) {
  TreeWriteGraph graph;
  // R(X=2, A=9): reads X and A, writes A. X becomes a successor of A.
  LogRecord rec;
  rec.lsn = 1;
  rec.op_code = kOpAppRead;
  rec.readset = {P(2), P(9)};
  rec.writeset = {P(9)};
  graph.OnOperation(rec);
  EXPECT_TRUE(graph.HasSuccessors(P(9)));
  EXPECT_EQ(graph.MaxSuccessorPos(P(9)), 2u);
  EXPECT_FALSE(graph.Violation(P(9)));  // app (9) above message (2)
}

}  // namespace
}  // namespace llb
