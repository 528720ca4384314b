#ifndef LLB_RECOVERY_WRITE_GRAPH_H_
#define LLB_RECOVERY_WRITE_GRAPH_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "wal/log_record.h"

namespace llb {

/// One atomic flush unit produced by PlanInstall: a write-graph node whose
/// operations are installed by atomically flushing `vars` (paper 2.4:
/// "Operations of ops(v) are installed by flushing the last values written
/// to the objects of vars(v)").
struct InstallUnit {
  uint64_t node_id = 0;
  std::vector<PageId> vars;
  Lsn min_lsn = std::numeric_limits<Lsn>::max();
  Lsn max_lsn = 0;
  /// node_ids of the uninstalled nodes that must install before this one
  /// (its direct predecessors; PlanInstall lists each earlier in the plan).
  std::vector<uint64_t> preds;

  /// Tree-operation metadata (meaningful for TreeWriteGraph, where every
  /// node has a single var X): the state of the successor set S(X) used
  /// by the backup case analysis of paper section 4.2.
  bool has_successors = false;
  BackupPos max_successor_pos = 0;  // MAX(X)
  bool violation = false;           // violation(X): the dagger property fails
};

/// Assigns each of the first `units` units of a plan (PlanInstall order:
/// every unit after its planned predecessors) its write-graph level: one
/// past its deepest planned predecessor, 0 without one. Writing the
/// levels in order, each durable before the next, installs every unit
/// after its predecessors. `levels` gets one entry per unit. Fails if a
/// unit lists a predecessor that is not earlier in the plan.
Status InstallLevels(const std::vector<InstallUnit>& plan, size_t units,
                     std::vector<size_t>* levels);

/// Aggregate structure metrics, used by the Figure-2 experiment to compare
/// the intersecting-writes graph W against the refined graph rW.
struct WriteGraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t total_vars = 0;       // sum of |vars(n)|
  size_t max_vars = 0;         // largest atomic flush set currently required
  uint64_t installs = 0;       // nodes installed so far
  uint64_t flushed_pages = 0;  // pages written across installs
  size_t max_vars_ever = 0;    // high-water mark of atomic flush set size
};

/// Tracks uninstalled operations and the flush-order constraints they
/// impose (the paper's write graph, section 2.4). The cache manager
/// consults it before flushing any dirty page and reports identity writes
/// and completed installs back to it.
///
/// All methods are called with the cache manager's mutex held; the graph
/// itself is not internally synchronized.
class WriteGraph {
 public:
  virtual ~WriteGraph();

  /// Records a logged operation (called after the op is applied to the
  /// cache and assigned its LSN).
  virtual void OnOperation(const LogRecord& rec) = 0;

  /// Records a cache-manager identity write of `x` (paper 2.5): x's value
  /// is now on the log, so x leaves its node's atomic flush set.
  virtual void OnIdentityWrite(const PageId& x, Lsn lsn) = 0;

  /// Computes the ordered install plan for the node owning `x`: all
  /// uninstalled predecessor nodes first (transitively), x's node last.
  /// Each unit reports its direct predecessors, so an installer can write
  /// the plan in write-graph levels. Fails if x is not tracked.
  virtual Status PlanInstall(const PageId& x,
                             std::vector<InstallUnit>* plan) = 0;

  /// Marks a node installed after its vars were atomically flushed (or
  /// emptied by identity writes). Releases all bookkeeping for it.
  virtual void MarkInstalled(uint64_t node_id) = 0;

  /// Brackets an overlapped install of `node_id` (cache mutex released
  /// between snapshot and flush). While a node is mid-install the graph
  /// must not merge it with other nodes: the installer flushes a frozen
  /// snapshot of exactly that node's vars, and MarkInstalled afterwards
  /// must retire exactly those operations — a merge would make it erase
  /// ops whose pages were never flushed. Graphs that never merge nodes
  /// can ignore these. Always paired, including on install failure.
  virtual void BeginInstall(uint64_t /*node_id*/) {}
  virtual void EndInstall(uint64_t /*node_id*/) {}

  /// True if x belongs to some uninstalled node.
  virtual bool IsTracked(const PageId& x) const = 0;

  /// The redo-scan start point: no operation with LSN below this needs
  /// replay. Returns `next_lsn` when nothing is uninstalled.
  virtual Lsn RedoStartLsn(Lsn next_lsn) const = 0;

  virtual WriteGraphStats GetStats() const = 0;

 protected:
  WriteGraph() = default;
};

/// Degenerate write graph for page-oriented operations (paper 2.4: "each
/// node v having |vars(v)| = 1, and with no edges between nodes and hence
/// no restrictions on flush order").
class PageOrientedWriteGraph : public WriteGraph {
 public:
  PageOrientedWriteGraph() = default;

  void OnOperation(const LogRecord& rec) override;
  void OnIdentityWrite(const PageId& x, Lsn lsn) override;
  Status PlanInstall(const PageId& x, std::vector<InstallUnit>* plan) override;
  void MarkInstalled(uint64_t node_id) override;
  bool IsTracked(const PageId& x) const override;
  Lsn RedoStartLsn(Lsn next_lsn) const override;
  WriteGraphStats GetStats() const override;

 private:
  struct Node {
    PageId page;
    Lsn min_lsn;
    Lsn max_lsn;
  };
  std::unordered_map<uint64_t, Node> nodes_;
  std::unordered_map<PageId, uint64_t, PageIdHash> owner_;
  uint64_t next_id_ = 1;
  WriteGraphStats stats_;
};

}  // namespace llb

#endif  // LLB_RECOVERY_WRITE_GRAPH_H_
