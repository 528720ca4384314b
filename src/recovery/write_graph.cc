#include "recovery/write_graph.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace llb {

Status InstallLevels(const std::vector<InstallUnit>& plan, size_t units,
                     std::vector<size_t>* levels) {
  levels->assign(units, 0);
  std::unordered_map<uint64_t, size_t> level_of;
  for (size_t i = 0; i < units; ++i) {
    for (uint64_t pred : plan[i].preds) {
      auto it = level_of.find(pred);
      if (it == level_of.end()) {
        return Status::Internal("install plan lists node " +
                                std::to_string(plan[i].node_id) +
                                " before its predecessor");
      }
      (*levels)[i] = std::max((*levels)[i], it->second + 1);
    }
    level_of[plan[i].node_id] = (*levels)[i];
  }
  return Status::OK();
}

WriteGraph::~WriteGraph() = default;

void PageOrientedWriteGraph::OnOperation(const LogRecord& rec) {
  // Page-oriented operations touch exactly one page and impose no
  // ordering; each dirty page is its own node.
  for (const PageId& x : rec.writeset) {
    auto it = owner_.find(x);
    if (it == owner_.end()) {
      uint64_t id = next_id_++;
      nodes_[id] = Node{x, rec.lsn, rec.lsn};
      owner_[x] = id;
    } else {
      Node& node = nodes_[it->second];
      node.min_lsn = std::min(node.min_lsn, rec.lsn);
      node.max_lsn = std::max(node.max_lsn, rec.lsn);
    }
  }
}

void PageOrientedWriteGraph::OnIdentityWrite(const PageId& x, Lsn /*lsn*/) {
  auto it = owner_.find(x);
  if (it == owner_.end()) return;
  // The identity write puts x's value on the log; its node's flush set
  // becomes empty, i.e. the node can be retired without flushing.
  nodes_.erase(it->second);
  owner_.erase(it);
}

Status PageOrientedWriteGraph::PlanInstall(const PageId& x,
                                           std::vector<InstallUnit>* plan) {
  plan->clear();
  auto it = owner_.find(x);
  if (it == owner_.end()) {
    return Status::NotFound("page not tracked: " + x.ToString());
  }
  const Node& node = nodes_[it->second];
  InstallUnit unit;
  unit.node_id = it->second;
  unit.vars = {x};
  unit.min_lsn = node.min_lsn;
  unit.max_lsn = node.max_lsn;
  plan->push_back(std::move(unit));
  return Status::OK();
}

void PageOrientedWriteGraph::MarkInstalled(uint64_t node_id) {
  auto it = nodes_.find(node_id);
  if (it == nodes_.end()) return;
  owner_.erase(it->second.page);
  nodes_.erase(it);
  ++stats_.installs;
  ++stats_.flushed_pages;
}

bool PageOrientedWriteGraph::IsTracked(const PageId& x) const {
  return owner_.count(x) > 0;
}

Lsn PageOrientedWriteGraph::RedoStartLsn(Lsn next_lsn) const {
  Lsn start = next_lsn;
  for (const auto& [id, node] : nodes_) start = std::min(start, node.min_lsn);
  return start;
}

WriteGraphStats PageOrientedWriteGraph::GetStats() const {
  WriteGraphStats stats = stats_;
  stats.nodes = nodes_.size();
  stats.edges = 0;
  stats.total_vars = nodes_.size();
  stats.max_vars = nodes_.empty() ? 0 : 1;
  stats.max_vars_ever = std::max<size_t>(stats_.max_vars_ever, stats.max_vars);
  return stats;
}

}  // namespace llb
