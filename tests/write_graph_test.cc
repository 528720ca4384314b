#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "recovery/general_write_graph.h"
#include "recovery/write_graph.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageId P(uint32_t page) { return PageId{0, page}; }

LogRecord Op(Lsn lsn, std::vector<PageId> reads, std::vector<PageId> writes) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.op_code = kOpFileCopy;
  rec.readset = std::move(reads);
  rec.writeset = std::move(writes);
  return rec;
}

size_t IndexOf(const std::vector<InstallUnit>& plan, uint64_t node) {
  for (size_t i = 0; i < plan.size(); ++i) {
    if (plan[i].node_id == node) return i;
  }
  return plan.size();
}

TEST(PageOrientedGraphTest, NoEdgesSingletonNodes) {
  PageOrientedWriteGraph graph;
  graph.OnOperation(Op(1, {P(1)}, {P(1)}));
  graph.OnOperation(Op(2, {P(2)}, {P(2)}));
  EXPECT_TRUE(graph.IsTracked(P(1)));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].vars, std::vector<PageId>{P(1)});
  graph.MarkInstalled(plan[0].node_id);
  EXPECT_FALSE(graph.IsTracked(P(1)));
  EXPECT_TRUE(graph.IsTracked(P(2)));
}

TEST(PageOrientedGraphTest, RedoStartIsMinUninstalledLsn) {
  PageOrientedWriteGraph graph;
  EXPECT_EQ(graph.RedoStartLsn(10), 10u);
  graph.OnOperation(Op(3, {P(1)}, {P(1)}));
  graph.OnOperation(Op(5, {P(2)}, {P(2)}));
  EXPECT_EQ(graph.RedoStartLsn(10), 3u);
}

TEST(GeneralGraphTest, IntersectingWritesShareANode) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {}, {P(1), P(2)}));
  graph.OnOperation(Op(2, {}, {P(2), P(3)}));
  EXPECT_EQ(graph.OwnerNode(P(1)), graph.OwnerNode(P(3)));
  EXPECT_EQ(graph.VarsSizeOf(P(1)), 3u);
  EXPECT_EQ(graph.NumNodes(), 1u);
}

TEST(GeneralGraphTest, DisjointWritesSeparateNodes) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {}, {P(1)}));
  graph.OnOperation(Op(2, {}, {P(2)}));
  EXPECT_NE(graph.OwnerNode(P(1)), graph.OwnerNode(P(2)));
  EXPECT_EQ(graph.NumNodes(), 2u);
}

TEST(GeneralGraphTest, ReadWriteConflictCreatesEdge) {
  GeneralWriteGraph graph;
  // O reads X(=1) and writes Y(=2); P later writes X: node(O) -> node(P).
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));
  graph.OnOperation(Op(2, {}, {P(1)}));
  uint64_t o = graph.OwnerNode(P(2));
  uint64_t p = graph.OwnerNode(P(1));
  ASSERT_NE(o, 0u);
  ASSERT_NE(p, 0u);
  EXPECT_TRUE(graph.HasEdge(o, p));
  EXPECT_FALSE(graph.HasEdge(p, o));
}

TEST(GeneralGraphTest, WriteReadConflictIsNotAnEdge) {
  GeneralWriteGraph graph;
  // A writes X; B later reads X (writing elsewhere): no installation
  // edge in either direction (paper 2.2).
  graph.OnOperation(Op(1, {}, {P(1)}));
  graph.OnOperation(Op(2, {P(1)}, {P(2)}));
  uint64_t a = graph.OwnerNode(P(1));
  uint64_t b = graph.OwnerNode(P(2));
  EXPECT_FALSE(graph.HasEdge(a, b));
  EXPECT_FALSE(graph.HasEdge(b, a));
}

TEST(GeneralGraphTest, PlanOrdersPredecessorsFirst) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));  // node A: reads 1, writes 2
  graph.OnOperation(Op(2, {}, {P(1)}));      // node B: writes 1; A -> B
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0].vars, std::vector<PageId>{P(2)});  // A first
  EXPECT_EQ(plan[1].vars, std::vector<PageId>{P(1)});
  // Each unit names its in-plan predecessors: B's is A.
  EXPECT_TRUE(plan[0].preds.empty());
  EXPECT_EQ(plan[1].preds, std::vector<uint64_t>{plan[0].node_id});
}

TEST(GeneralGraphTest, PlanForNodeWithoutPredsIsSelfOnly) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));
  graph.OnOperation(Op(2, {}, {P(1)}));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(2), &plan));
  EXPECT_EQ(plan.size(), 1u);
}

TEST(GeneralGraphTest, CycleCollapsesIntoOneNode) {
  GeneralWriteGraph graph;
  // A: reads 1 writes 2.  B: reads 2 writes 1 (edge A->B via page 1).
  // C: writes 2 — merges into A (intersecting writes) and picks up the
  // edge B->A from B's read of page 2 => cycle {A,B} => one node.
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));
  graph.OnOperation(Op(2, {P(2)}, {P(1)}));
  EXPECT_EQ(graph.NumNodes(), 2u);  // no cycle yet
  graph.OnOperation(Op(3, {}, {P(2)}));
  EXPECT_EQ(graph.NumNodes(), 1u);
  EXPECT_EQ(graph.OwnerNode(P(1)), graph.OwnerNode(P(2)));
  EXPECT_EQ(graph.VarsSizeOf(P(1)), 2u);
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].vars.size(), 2u);  // atomic multi-page flush
  // The collapsed cycle's inner edges are not reported as a self-loop.
  EXPECT_TRUE(plan[0].preds.empty());
}

TEST(GeneralGraphTest, ThreeNodeCycleCollapses) {
  GeneralWriteGraph graph;
  // Build A -> C, B -> A, C -> B through read-write conflicts, then
  // verify the strongly connected component collapses to one node.
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));  // A reads 1 writes 2
  graph.OnOperation(Op(2, {P(2)}, {P(3)}));  // B reads 2 writes 3
  graph.OnOperation(Op(3, {P(3)}, {P(1)}));  // C reads 3 writes 1: A->C
  graph.OnOperation(Op(4, {}, {P(2)}));      // joins A; B->A edge forms
  graph.OnOperation(Op(5, {}, {P(3)}));      // joins B; C->B edge forms
  EXPECT_EQ(graph.NumNodes(), 1u);
  EXPECT_EQ(graph.VarsSizeOf(P(1)), 3u);
}

TEST(GeneralGraphTest, IdentityWriteShrinksVars) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {}, {P(1), P(2)}));
  EXPECT_EQ(graph.VarsSizeOf(P(1)), 2u);
  graph.OnIdentityWrite(P(1), 2);
  EXPECT_FALSE(graph.IsTracked(P(1)));
  EXPECT_EQ(graph.VarsSizeOf(P(2)), 1u);
  // The paper's Figure 2 phenomenon: the atomic flush set shrank.
}

TEST(GeneralGraphTest, InstallReleasesReaderBookkeeping) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {P(9)}, {P(1)}));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  graph.MarkInstalled(plan[0].node_id);
  // A later writer of 9 must get no edge from the installed reader.
  graph.OnOperation(Op(2, {}, {P(9)}));
  std::vector<InstallUnit> plan2;
  ASSERT_OK(graph.PlanInstall(P(9), &plan2));
  EXPECT_EQ(plan2.size(), 1u);
}

TEST(GeneralGraphTest, RedoStartTracksMinLsn) {
  GeneralWriteGraph graph;
  EXPECT_EQ(graph.RedoStartLsn(100), 100u);
  graph.OnOperation(Op(7, {}, {P(1)}));
  graph.OnOperation(Op(9, {}, {P(2)}));
  EXPECT_EQ(graph.RedoStartLsn(100), 7u);
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  graph.MarkInstalled(plan[0].node_id);
  EXPECT_EQ(graph.RedoStartLsn(100), 9u);
}

TEST(GeneralGraphTest, StatsReportStructure) {
  GeneralWriteGraph graph;
  graph.OnOperation(Op(1, {}, {P(1), P(2)}));
  graph.OnOperation(Op(2, {P(1)}, {P(3)}));
  graph.OnOperation(Op(3, {}, {P(1)}));  // merges into node of {1,2}
  WriteGraphStats stats = graph.GetStats();
  EXPECT_EQ(stats.nodes, 2u);
  EXPECT_GE(stats.max_vars, 2u);
  EXPECT_GE(stats.edges, 1u);
}

TEST(GeneralGraphTest, DiamondDependencyPlansEveryAncestorOnce) {
  GeneralWriteGraph graph;
  // A reads 10 writes 1; B reads 10 writes 2; C writes 10 (A->C, B->C).
  graph.OnOperation(Op(1, {P(10)}, {P(1)}));
  graph.OnOperation(Op(2, {P(10)}, {P(2)}));
  graph.OnOperation(Op(3, {}, {P(10)}));
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(10), &plan));
  ASSERT_EQ(plan.size(), 3u);
  uint64_t c = graph.OwnerNode(P(10));
  EXPECT_EQ(plan.back().node_id, c);
}

TEST(GeneralGraphTest, PlanUntrackedPageFails) {
  GeneralWriteGraph graph;
  std::vector<InstallUnit> plan;
  EXPECT_TRUE(graph.PlanInstall(P(1), &plan).IsNotFound());
}

TEST(GeneralGraphTest, ChainPlansInTopologicalOrder) {
  GeneralWriteGraph graph;
  // chain: n1 (writes 1) <- n2 (reads 1 writes 2)... i.e. edges
  // n_reader -> n_writer. Build: op reads k writes k+1; then op writes k.
  graph.OnOperation(Op(1, {P(1)}, {P(2)}));
  graph.OnOperation(Op(2, {P(2)}, {P(3)}));
  graph.OnOperation(Op(3, {}, {P(2)}));  // reader-of-2 -> this node
  graph.OnOperation(Op(4, {}, {P(1)}));  // reader-of-1 -> this node
  std::vector<InstallUnit> plan;
  ASSERT_OK(graph.PlanInstall(P(1), &plan));
  // node(writes 1) must come after node(reads 1, writes 2).
  size_t writer1 = IndexOf(plan, graph.OwnerNode(P(1)));
  size_t reader1 = IndexOf(plan, graph.OwnerNode(P(2)));
  EXPECT_LT(reader1, writer1);
}

}  // namespace
}  // namespace llb
