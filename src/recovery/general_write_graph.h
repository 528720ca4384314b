#ifndef LLB_RECOVERY_GENERAL_WRITE_GRAPH_H_
#define LLB_RECOVERY_GENERAL_WRITE_GRAPH_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "recovery/write_graph.h"

namespace llb {

/// Write graph for general logical operations, following [Lomet & Tuttle
/// 1995/1999] as summarized in paper section 2.4:
///
///  * first collapse — operations with intersecting write sets share a
///    node (their pages must be flushed together atomically);
///  * installation edges — a read-write conflict (O reads X, P later
///    writes X) adds an edge node(O) -> node(P): O's node must install
///    first, else O's replay would read a too-new X;
///  * second collapse — any cycle created by edge insertion merges its
///    strongly connected component into a single node, keeping the flush
///    order feasible (acyclic);
///  * refinement (rW, paper 2.5) — a cache-manager identity write of X
///    removes X from its node's vars: X's value is then recoverable from
///    the log, so installing the node no longer requires flushing X.
///    (General blind writes are handled conservatively — they merge like
///    ordinary writes — because removing vars on arbitrary blind writes
///    is only sound with regeneration-order bookkeeping that identity
///    writes make unnecessary; see DESIGN.md "Key design decisions".)
///
/// Nodes are tracked through a union-find so merges are O(alpha);
/// stale node ids resolve lazily through Find().
class GeneralWriteGraph : public WriteGraph {
 public:
  GeneralWriteGraph() = default;

  void OnOperation(const LogRecord& rec) override;
  void OnIdentityWrite(const PageId& x, Lsn lsn) override;
  Status PlanInstall(const PageId& x, std::vector<InstallUnit>* plan) override;
  void MarkInstalled(uint64_t node_id) override;
  void BeginInstall(uint64_t node_id) override;
  void EndInstall(uint64_t node_id) override;
  bool IsTracked(const PageId& x) const override;
  Lsn RedoStartLsn(Lsn next_lsn) const override;
  WriteGraphStats GetStats() const override;

  /// Plans every live node at once, in the order PlanInstall would list
  /// them (each after its predecessors), visiting nodes by ascending id.
  void PlanInstallAll(std::vector<InstallUnit>* plan);

  /// Number of live (uninstalled) nodes.
  size_t NumNodes() const { return nodes_.size(); }

  /// True if there is an edge Find(from) -> Find(to) (test hook).
  bool HasEdge(uint64_t from, uint64_t to) const;

  /// Canonical node id owning page x, or 0.
  uint64_t OwnerNode(const PageId& x) const;

  /// Current vars set size of the node owning x (0 if untracked).
  size_t VarsSizeOf(const PageId& x) const;

 private:
  struct Node {
    std::unordered_set<PageId, PageIdHash> vars;
    std::unordered_set<PageId, PageIdHash> reads;
    std::unordered_set<uint64_t> preds;  // raw ids; resolve via Find
    std::unordered_set<uint64_t> succs;
    Lsn min_lsn;
    Lsn max_lsn;
    size_t op_count = 0;
  };

  uint64_t NewNode();
  uint64_t Find(uint64_t id) const;
  /// Merges b into a (both canonical); returns the canonical survivor.
  uint64_t Merge(uint64_t a, uint64_t b);
  /// Collapses every non-trivial strongly connected component.
  void CollapseCycles();
  bool Reaches(uint64_t from, uint64_t to) const;
  /// Appends the not yet `visited` part of start's install plan: its
  /// uninstalled predecessors, transitively, then start itself.
  void AppendPlan(uint64_t start, std::unordered_set<uint64_t>* visited,
                  std::vector<InstallUnit>* plan) const;
  /// Resolved, live, deduplicated predecessor set of a node.
  std::vector<uint64_t> LivePreds(const Node& node) const;
  std::vector<uint64_t> LiveSuccs(const Node& node) const;

  std::unordered_map<uint64_t, Node> nodes_;
  mutable std::vector<uint64_t> parent_;  // union-find over node ids
  std::unordered_map<PageId, uint64_t, PageIdHash> owner_;
  std::unordered_map<PageId, std::unordered_set<uint64_t>, PageIdHash>
      readers_;
  /// Nodes bracketed by BeginInstall/EndInstall. CollapseCycles leaves any
  /// SCC containing one of these alone (deferred_collapse_) and retries on
  /// EndInstall; mid-install nodes never change identity, so their ids
  /// stay canonical for the duration.
  std::unordered_set<uint64_t> installing_;
  bool deferred_collapse_ = false;
  uint64_t next_id_ = 1;
  WriteGraphStats stats_;
};

}  // namespace llb

#endif  // LLB_RECOVERY_GENERAL_WRITE_GRAPH_H_
