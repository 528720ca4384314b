#include "recovery/tree_write_graph.h"

#include <algorithm>
#include <limits>

namespace llb {

TreeWriteGraph::TNode& TreeWriteGraph::GetOrCreate(const PageId& x, Lsn lsn) {
  auto it = dirty_.find(x);
  if (it == dirty_.end()) {
    TNode node;
    node.id = next_id_++;
    node.page = x;
    node.min_lsn = lsn;
    node.max_lsn = lsn;
    it = dirty_.emplace(x, std::move(node)).first;
    by_id_[it->second.id] = x;
  } else {
    it->second.min_lsn = std::min(it->second.min_lsn, lsn);
    it->second.max_lsn = std::max(it->second.max_lsn, lsn);
  }
  return it->second;
}

void TreeWriteGraph::AddSuccessor(TNode& writer, const PageId& read_page) {
  // read_page becomes a (potential) successor of writer.page: writer must
  // be flushed before read_page's next update is flushed.
  watch_[read_page].insert(writer.page);

  BackupPos candidate = BackupPositionOf(read_page);
  bool succ_violation = false;
  auto rit = dirty_.find(read_page);
  if (rit != dirty_.end()) {
    // MAX(X) = max(#Y, MAX(Y)); violation inherits from Y.
    if (rit->second.has_succ) {
      candidate = std::max(candidate, rit->second.max_pos);
    }
    succ_violation = rit->second.violation;
  }
  if (!writer.has_succ || candidate > writer.max_pos) {
    writer.max_pos = candidate;
  }
  writer.has_succ = true;
  if (BackupPositionOf(writer.page) < BackupPositionOf(read_page) ||
      succ_violation) {
    writer.violation = true;
  }
}

void TreeWriteGraph::OnOperation(const LogRecord& rec) {
  // Tree operations write exactly one object.
  if (rec.writeset.size() != 1) return;
  const PageId& target = rec.writeset[0];
  TNode& node = GetOrCreate(target, rec.lsn);

  // This op updates `target`, so every earlier W_L that *read* target now
  // requires its new object to be installed before target ("potential
  // successor" becomes a real predecessor edge, paper 4.1). Binding here,
  // per update, keeps edges directed new -> old only.
  auto wit = watch_.find(target);
  if (wit != watch_.end()) {
    for (const PageId& pred : wit->second) {
      if (pred != target && dirty_.count(pred)) node.preds.insert(pred);
    }
  }

  for (const PageId& read_page : rec.readset) {
    if (read_page == target) continue;  // page-oriented self read
    AddSuccessor(node, read_page);
  }
}

void TreeWriteGraph::OnIdentityWrite(const PageId& x, Lsn /*lsn*/) {
  auto it = dirty_.find(x);
  if (it == dirty_.end()) return;
  it->second.identity_written = true;
}

Status TreeWriteGraph::PlanInstall(const PageId& x,
                                   std::vector<InstallUnit>* plan) {
  plan->clear();
  auto it = dirty_.find(x);
  if (it == dirty_.end()) {
    return Status::NotFound("page not tracked: " + x.ToString());
  }

  // Emit the predecessor closure in dependency order (preds first). The
  // graph is a forest of trees, hence acyclic.
  std::vector<PageId> order;
  std::unordered_set<PageId, PageIdHash> visited{x};
  std::unordered_set<PageId, PageIdHash> on_stack{x};
  struct Frame {
    PageId page;
    std::vector<PageId> preds;
    size_t next = 0;
  };
  auto live_preds = [&](const TNode& node) {
    std::vector<PageId> out;
    for (const PageId& p : node.preds) {
      if (dirty_.count(p)) out.push_back(p);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<Frame> stack;
  stack.push_back({x, live_preds(it->second)});
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next < frame.preds.size()) {
      PageId p = frame.preds[frame.next++];
      if (on_stack.count(p)) {
        // Tree operations never create cycles (paper 4.1); hitting one
        // means a domain emitted a non-tree schedule under the tree graph.
        return Status::Internal("cycle in tree write graph at " +
                                p.ToString());
      }
      if (visited.insert(p).second) {
        on_stack.insert(p);
        stack.push_back({p, live_preds(dirty_[p])});
      }
    } else {
      order.push_back(frame.page);
      on_stack.erase(frame.page);
      stack.pop_back();
    }
  }

  for (const PageId& page : order) {
    const TNode& node = dirty_[page];
    InstallUnit unit;
    unit.node_id = node.id;
    if (!node.identity_written) unit.vars = {page};
    unit.min_lsn = node.min_lsn;
    unit.max_lsn = node.max_lsn;
    for (const PageId& p : live_preds(node)) {
      unit.preds.push_back(dirty_[p].id);
    }
    unit.has_successors = node.has_succ;
    unit.max_successor_pos = node.max_pos;
    unit.violation = node.violation;
    plan->push_back(std::move(unit));
  }
  return Status::OK();
}

void TreeWriteGraph::MarkInstalled(uint64_t node_id) {
  auto idit = by_id_.find(node_id);
  if (idit == by_id_.end()) return;
  PageId x = idit->second;
  by_id_.erase(idit);
  auto it = dirty_.find(x);
  if (it == dirty_.end()) return;

  // X installed: drop it from every watch set (it no longer constrains
  // future updates of the pages it was created from).
  for (auto wit = watch_.begin(); wit != watch_.end();) {
    wit->second.erase(x);
    if (wit->second.empty()) {
      wit = watch_.erase(wit);
    } else {
      ++wit;
    }
  }
  stats_.installs += 1;
  stats_.flushed_pages += 1;
  dirty_.erase(it);
}

bool TreeWriteGraph::IsTracked(const PageId& x) const {
  return dirty_.count(x) > 0;
}

Lsn TreeWriteGraph::RedoStartLsn(Lsn next_lsn) const {
  Lsn start = next_lsn;
  for (const auto& [page, node] : dirty_) {
    start = std::min(start, node.min_lsn);
  }
  return start;
}

WriteGraphStats TreeWriteGraph::GetStats() const {
  WriteGraphStats stats = stats_;
  stats.nodes = dirty_.size();
  stats.total_vars = dirty_.size();
  stats.max_vars = dirty_.empty() ? 0 : 1;
  stats.max_vars_ever = std::max<size_t>(stats_.max_vars_ever, stats.max_vars);
  for (const auto& [page, node] : dirty_) {
    for (const PageId& p : node.preds) {
      if (dirty_.count(p)) ++stats.edges;
    }
  }
  return stats;
}

bool TreeWriteGraph::HasSuccessors(const PageId& x) const {
  auto it = dirty_.find(x);
  return it != dirty_.end() && it->second.has_succ;
}

BackupPos TreeWriteGraph::MaxSuccessorPos(const PageId& x) const {
  auto it = dirty_.find(x);
  return it == dirty_.end() ? 0 : it->second.max_pos;
}

bool TreeWriteGraph::Violation(const PageId& x) const {
  auto it = dirty_.find(x);
  return it != dirty_.end() && it->second.violation;
}

bool TreeWriteGraph::MustInstallBefore(const PageId& pred,
                                       const PageId& succ) const {
  auto it = dirty_.find(succ);
  return it != dirty_.end() && it->second.preds.count(pred) > 0 &&
         dirty_.count(pred) > 0;
}

}  // namespace llb
