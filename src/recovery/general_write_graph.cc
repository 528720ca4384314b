#include "recovery/general_write_graph.h"

#include <algorithm>
#include <limits>

namespace llb {

uint64_t GeneralWriteGraph::NewNode() {
  uint64_t id = next_id_++;
  if (parent_.size() <= id) parent_.resize(id + 1);
  parent_[id] = id;
  Node& node = nodes_[id];
  node.min_lsn = std::numeric_limits<Lsn>::max();
  node.max_lsn = 0;
  return id;
}

uint64_t GeneralWriteGraph::Find(uint64_t id) const {
  while (parent_[id] != id) {
    parent_[id] = parent_[parent_[id]];  // path halving
    id = parent_[id];
  }
  return id;
}

uint64_t GeneralWriteGraph::Merge(uint64_t a, uint64_t b) {
  a = Find(a);
  b = Find(b);
  if (a == b) return a;
  Node& na = nodes_[a];
  Node& nb = nodes_[b];
  // Merge smaller into larger to bound total work.
  if (nb.vars.size() + nb.reads.size() > na.vars.size() + na.reads.size()) {
    return Merge(b, a);
  }
  for (const PageId& x : nb.vars) {
    na.vars.insert(x);
    owner_[x] = a;
  }
  for (const PageId& x : nb.reads) na.reads.insert(x);
  for (uint64_t p : nb.preds) na.preds.insert(p);
  for (uint64_t s : nb.succs) na.succs.insert(s);
  na.min_lsn = std::min(na.min_lsn, nb.min_lsn);
  na.max_lsn = std::max(na.max_lsn, nb.max_lsn);
  na.op_count += nb.op_count;
  nodes_.erase(b);
  parent_[b] = a;
  return a;
}

std::vector<uint64_t> GeneralWriteGraph::LivePreds(const Node& node) const {
  std::vector<uint64_t> out;
  for (uint64_t raw : node.preds) {
    uint64_t p = Find(raw);
    if (nodes_.count(p) && std::find(out.begin(), out.end(), p) == out.end()) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<uint64_t> GeneralWriteGraph::LiveSuccs(const Node& node) const {
  std::vector<uint64_t> out;
  for (uint64_t raw : node.succs) {
    uint64_t s = Find(raw);
    if (nodes_.count(s) && std::find(out.begin(), out.end(), s) == out.end()) {
      out.push_back(s);
    }
  }
  return out;
}

bool GeneralWriteGraph::Reaches(uint64_t from, uint64_t to) const {
  if (from == to) return true;
  std::vector<uint64_t> stack{from};
  std::unordered_set<uint64_t> seen{from};
  while (!stack.empty()) {
    uint64_t cur = stack.back();
    stack.pop_back();
    auto it = nodes_.find(cur);
    if (it == nodes_.end()) continue;
    for (uint64_t s : LiveSuccs(it->second)) {
      if (s == to) return true;
      if (seen.insert(s).second) stack.push_back(s);
    }
  }
  return false;
}

void GeneralWriteGraph::CollapseCycles() {
  // Iterative Tarjan SCC over the live nodes; every component with more
  // than one node is merged (paper 2.4, second collapse).
  std::unordered_map<uint64_t, int> index, lowlink;
  std::unordered_set<uint64_t> on_stack;
  std::vector<uint64_t> scc_stack;
  std::vector<std::vector<uint64_t>> components;
  int next_index = 0;

  struct Frame {
    uint64_t node;
    std::vector<uint64_t> succs;
    size_t next = 0;
  };

  std::vector<uint64_t> roots;
  roots.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) roots.push_back(id);

  for (uint64_t root : roots) {
    if (index.count(root)) continue;
    std::vector<Frame> call_stack;
    call_stack.push_back({root, LiveSuccs(nodes_[root])});
    index[root] = lowlink[root] = next_index++;
    scc_stack.push_back(root);
    on_stack.insert(root);

    while (!call_stack.empty()) {
      Frame& frame = call_stack.back();
      if (frame.next < frame.succs.size()) {
        uint64_t w = frame.succs[frame.next++];
        if (!index.count(w)) {
          index[w] = lowlink[w] = next_index++;
          scc_stack.push_back(w);
          on_stack.insert(w);
          call_stack.push_back({w, LiveSuccs(nodes_[w])});
        } else if (on_stack.count(w)) {
          lowlink[frame.node] = std::min(lowlink[frame.node], index[w]);
        }
      } else {
        uint64_t v = frame.node;
        if (lowlink[v] == index[v]) {
          std::vector<uint64_t> component;
          while (true) {
            uint64_t w = scc_stack.back();
            scc_stack.pop_back();
            on_stack.erase(w);
            component.push_back(w);
            if (w == v) break;
          }
          if (component.size() > 1) components.push_back(std::move(component));
        }
        call_stack.pop_back();
        if (!call_stack.empty()) {
          Frame& parent = call_stack.back();
          lowlink[parent.node] = std::min(lowlink[parent.node], lowlink[v]);
        }
      }
    }
  }

  for (const std::vector<uint64_t>& component : components) {
    // A component containing a mid-install node cannot merge yet: the
    // installer holds a frozen snapshot of that node's vars and will
    // MarkInstalled exactly those ops. Defer; EndInstall retries. Until
    // then planners that touch the component busy-wait on the installing
    // node (it is strongly connected, hence on every member's pred path),
    // and once it retires the cycle through it dissolves.
    bool blocked = false;
    for (uint64_t id : component) {
      if (installing_.count(id) != 0) {
        blocked = true;
        break;
      }
    }
    if (blocked) {
      deferred_collapse_ = true;
      continue;
    }
    uint64_t canon = component[0];
    for (size_t i = 1; i < component.size(); ++i) {
      canon = Merge(canon, component[i]);
    }
  }
}

void GeneralWriteGraph::OnOperation(const LogRecord& rec) {
  // First collapse: the new op joins (and merges) every node whose vars
  // intersect its writeset.
  uint64_t target = 0;
  bool merged = false;
  for (const PageId& x : rec.writeset) {
    auto it = owner_.find(x);
    if (it == owner_.end()) continue;
    uint64_t n = Find(it->second);
    if (target != 0 && Find(target) != n) merged = true;
    target = (target == 0) ? n : Merge(target, n);
  }
  if (target == 0) target = NewNode();

  Node* node = &nodes_[target];
  node->min_lsn = std::min(node->min_lsn, rec.lsn);
  node->max_lsn = std::max(node->max_lsn, rec.lsn);
  node->op_count += 1;
  for (const PageId& x : rec.writeset) {
    node->vars.insert(x);
    owner_[x] = target;
  }

  // Installation (read-write) edges: every uninstalled node that read any
  // page this op writes must install before this op's node.
  bool added_edge = false;
  for (const PageId& x : rec.writeset) {
    auto rit = readers_.find(x);
    if (rit == readers_.end()) continue;
    for (uint64_t raw : rit->second) {
      uint64_t r = Find(raw);
      if (r == target || !nodes_.count(r)) continue;
      nodes_[r].succs.insert(target);
      node->preds.insert(r);
      added_edge = true;
    }
  }

  // Register this node as a reader of its readset (for future edges).
  for (const PageId& x : rec.readset) {
    node->reads.insert(x);
    readers_[x].insert(target);
  }

  // Second collapse: if a new edge, or a merge joining two nodes with a
  // path between them, closed a cycle, merge the SCC.
  if (added_edge || merged) {
    bool cycle = false;
    for (uint64_t p : LivePreds(*node)) {
      if (Reaches(target, p)) {
        cycle = true;
        break;
      }
    }
    if (cycle) CollapseCycles();
  }

  size_t vars_now = nodes_[Find(target)].vars.size();
  stats_.max_vars_ever = std::max(stats_.max_vars_ever, vars_now);
}

void GeneralWriteGraph::OnIdentityWrite(const PageId& x, Lsn /*lsn*/) {
  auto it = owner_.find(x);
  if (it == owner_.end()) return;
  uint64_t n = Find(it->second);
  auto nit = nodes_.find(n);
  if (nit != nodes_.end()) nit->second.vars.erase(x);
  owner_.erase(it);
}

Status GeneralWriteGraph::PlanInstall(const PageId& x,
                                      std::vector<InstallUnit>* plan) {
  plan->clear();
  auto it = owner_.find(x);
  if (it == owner_.end()) {
    return Status::NotFound("page not tracked: " + x.ToString());
  }
  std::unordered_set<uint64_t> visited;
  AppendPlan(Find(it->second), &visited, plan);
  return Status::OK();
}

void GeneralWriteGraph::PlanInstallAll(std::vector<InstallUnit>* plan) {
  plan->clear();
  std::vector<uint64_t> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::unordered_set<uint64_t> visited;
  for (uint64_t id : ids) {
    if (visited.count(id) == 0) AppendPlan(id, &visited, plan);
  }
}

void GeneralWriteGraph::AppendPlan(uint64_t start,
                                   std::unordered_set<uint64_t>* visited,
                                   std::vector<InstallUnit>* plan) const {
  // DFS over predecessor edges emitting post-order: every node appears
  // after all of its uninstalled predecessors (the graph is acyclic).
  std::vector<uint64_t> order;
  struct Frame {
    uint64_t node;
    std::vector<uint64_t> preds;
    size_t next = 0;
  };
  std::vector<Frame> stack;
  stack.push_back({start, LivePreds(nodes_.at(start))});
  visited->insert(start);
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next < frame.preds.size()) {
      uint64_t p = frame.preds[frame.next++];
      if (visited->insert(p).second) {
        stack.push_back({p, LivePreds(nodes_.at(p))});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  for (uint64_t id : order) {
    const Node& node = nodes_.at(id);
    InstallUnit unit;
    unit.node_id = id;
    unit.vars.assign(node.vars.begin(), node.vars.end());
    std::sort(unit.vars.begin(), unit.vars.end());
    unit.min_lsn = node.min_lsn;
    unit.max_lsn = node.max_lsn;
    // A collapsed cycle leaves edges between its members: skip the
    // resulting self-loop.
    for (uint64_t pred : LivePreds(node)) {
      if (pred != id) unit.preds.push_back(pred);
    }
    plan->push_back(std::move(unit));
  }
}

void GeneralWriteGraph::MarkInstalled(uint64_t node_id) {
  uint64_t n = Find(node_id);
  auto it = nodes_.find(n);
  if (it == nodes_.end()) return;
  Node& node = it->second;
  for (const PageId& x : node.vars) {
    auto oit = owner_.find(x);
    if (oit != owner_.end() && Find(oit->second) == n) owner_.erase(oit);
  }
  for (const PageId& x : node.reads) {
    auto rit = readers_.find(x);
    if (rit == readers_.end()) continue;
    for (auto sit = rit->second.begin(); sit != rit->second.end();) {
      if (Find(*sit) == n) {
        sit = rit->second.erase(sit);
      } else {
        ++sit;
      }
    }
    if (rit->second.empty()) readers_.erase(rit);
  }
  stats_.installs += 1;
  stats_.flushed_pages += node.vars.size();
  nodes_.erase(it);
}

void GeneralWriteGraph::BeginInstall(uint64_t node_id) {
  installing_.insert(node_id);
}

void GeneralWriteGraph::EndInstall(uint64_t node_id) {
  installing_.erase(node_id);
  if (deferred_collapse_) {
    deferred_collapse_ = false;
    CollapseCycles();  // re-sets the flag if a component is still blocked
  }
}

bool GeneralWriteGraph::IsTracked(const PageId& x) const {
  return owner_.count(x) > 0;
}

uint64_t GeneralWriteGraph::OwnerNode(const PageId& x) const {
  auto it = owner_.find(x);
  return it == owner_.end() ? 0 : Find(it->second);
}

size_t GeneralWriteGraph::VarsSizeOf(const PageId& x) const {
  uint64_t n = OwnerNode(x);
  if (n == 0) return 0;
  return nodes_.at(n).vars.size();
}

bool GeneralWriteGraph::HasEdge(uint64_t from, uint64_t to) const {
  auto it = nodes_.find(Find(from));
  if (it == nodes_.end()) return false;
  for (uint64_t raw : it->second.succs) {
    if (Find(raw) == Find(to)) return true;
  }
  return false;
}

Lsn GeneralWriteGraph::RedoStartLsn(Lsn next_lsn) const {
  Lsn start = next_lsn;
  for (const auto& [id, node] : nodes_) start = std::min(start, node.min_lsn);
  return start;
}

WriteGraphStats GeneralWriteGraph::GetStats() const {
  WriteGraphStats stats = stats_;
  stats.nodes = nodes_.size();
  for (const auto& [id, node] : nodes_) {
    stats.total_vars += node.vars.size();
    stats.max_vars = std::max(stats.max_vars, node.vars.size());
    stats.edges += LiveSuccs(node).size();
  }
  stats.max_vars_ever = std::max(stats.max_vars_ever, stats.max_vars);
  return stats;
}

}  // namespace llb
