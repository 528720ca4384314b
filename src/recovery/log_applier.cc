#include "recovery/log_applier.h"

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "ops/operation.h"
#include "storage/page.h"

namespace llb {

namespace {

/// Read-through op context over the applier's page cache: reads see the
/// current images, writes stage until the record's LSN test admits them.
class ApplyContext : public OpContext {
 public:
  using Getter = std::function<Status(const PageId&, PageImage**)>;

  explicit ApplyContext(Getter get) : get_(std::move(get)) {}

  Status Read(const PageId& id, PageImage* out) override {
    PageImage* current = nullptr;
    LLB_RETURN_IF_ERROR(get_(id, &current));
    *out = *current;
    return Status::OK();
  }

  Status Write(const PageId& id, const PageImage& image) override {
    staged_[id] = image;
    return Status::OK();
  }

  std::unordered_map<PageId, PageImage, PageIdHash>& staged() {
    return staged_;
  }

 private:
  Getter get_;
  std::unordered_map<PageId, PageImage, PageIdHash> staged_;
};

}  // namespace

Status LogApplier::GetPage(const PageId& id, PageImage** out) {
  auto it = pages_->find(id);
  if (it == pages_->end()) {
    if (target_ == nullptr) {
      return Status::Internal("replay touched a page outside the overlay: " +
                              id.ToString());
    }
    PageImage image;
    LLB_RETURN_IF_ERROR(target_->ReadPage(id, &image));
    it = pages_->emplace(id, std::move(image)).first;
  }
  *out = &it->second;
  return Status::OK();
}

Status LogApplier::SeedPage(const PageId& id, const std::string& value,
                            Lsn lsn, bool* seeded) {
  PageImage* current = nullptr;
  LLB_RETURN_IF_ERROR(GetPage(id, &current));
  bool newer = current->lsn() < lsn;
  if (newer) {
    *current = PageImage::FromRaw(value);
    current->set_lsn(lsn);
    dirty_.insert(id);
  }
  if (seeded != nullptr) *seeded = newer;
  return Status::OK();
}

Status LogApplier::Apply(const LogRecord& rec) {
  if (rec.lsn > applied_lsn_) applied_lsn_ = rec.lsn;
  if (rec.IsCheckpoint() || rec.IsReplayIdentity() || rec.writeset.empty()) {
    return Status::OK();
  }
  ++stats_.records_seen;

  bool any_stale = false;
  for (const PageId& t : rec.writeset) {
    PageImage* current = nullptr;
    LLB_RETURN_IF_ERROR(GetPage(t, &current));
    if (current->lsn() < rec.lsn) {
      any_stale = true;
      break;
    }
  }
  if (!any_stale) return Status::OK();

  ApplyContext ctx(
      [this](const PageId& id, PageImage** out) { return GetPage(id, out); });
  LLB_RETURN_IF_ERROR(registry_.Apply(ctx, rec));

  for (const PageId& t : rec.writeset) {
    PageImage* current = nullptr;
    LLB_RETURN_IF_ERROR(GetPage(t, &current));
    if (current->lsn() >= rec.lsn) continue;  // already newer: skip
    auto sit = ctx.staged().find(t);
    if (sit == ctx.staged().end()) {
      return Status::Internal("replay did not produce declared target " +
                              t.ToString());
    }
    *current = sit->second;
    current->set_lsn(rec.lsn);
    dirty_.insert(t);
  }
  // A record that reads nothing but the one page it writes orders
  // nothing before it, so the graph starts at the first record that
  // does (most replayed records are physical writes).
  if (graph_ != nullptr &&
      (graph_->NumNodes() != 0 || rec.writeset.size() > 1 ||
       std::any_of(rec.readset.begin(), rec.readset.end(),
                   [&](const PageId& x) { return x != rec.writeset[0]; }))) {
    graph_->OnOperation(rec);
  }
  ++stats_.records_applied;
  return Status::OK();
}

Status LogApplier::Flush() {
  if (target_ == nullptr) {
    for (const PageId& id : dirty_) pages_->at(id).Seal();
    dirty_.clear();
    return Status::OK();
  }
  // Level every dirty page by the write graph of the replayed records: a
  // crash between two writes could otherwise land a logical operation's
  // overwritten source before its target (a Copy's source overwritten
  // before the copy lands), and redoing the target would then read the
  // wrong value. Pages no replayed record wrote (identity seeds) carry
  // their value on the log and go in the first level.
  std::vector<InstallUnit> plan;
  graph_->PlanInstallAll(&plan);
  std::vector<size_t> level_of;
  LLB_RETURN_IF_ERROR(InstallLevels(plan, plan.size(), &level_of));
  size_t num_levels = 1;
  for (size_t level : level_of) num_levels = std::max(num_levels, level + 1);
  std::vector<std::vector<PageStore::Entry>> levels(num_levels);
  std::vector<std::vector<PageId>> staged(num_levels);
  std::unordered_set<PageId, PageIdHash> leveled;
  for (size_t i = 0; i < plan.size(); ++i) {
    std::vector<PageId> pages;
    for (const PageId& x : plan[i].vars) {
      if (dirty_.count(x) != 0) pages.push_back(x);
    }
    for (const PageId& x : pages) {
      levels[level_of[i]].push_back({x, pages_->at(x)});
      leveled.insert(x);
    }
    if (pages.size() > 1 && log_ != nullptr) {
      staged[level_of[i]].insert(staged[level_of[i]].end(), pages.begin(),
                                 pages.end());
    }
  }
  for (const PageId& id : dirty_) {
    if (leveled.count(id) == 0) levels[0].push_back({id, pages_->at(id)});
  }

  // A node with several vars: its pages go on the log before its level
  // is written, once every level before it is durable (identity writes
  // in installation order, as in the cache), and leave it again after
  // the last level. A Flush that fails leaves its staged records for the
  // retry to cut.
  for (size_t level = 0; level < levels.size(); ++level) {
    for (const PageId& x : staged[level]) {
      LogRecord rec;
      rec.op_code = kOpReplayIdentity;
      rec.writeset = {x};
      rec.payload = pages_->at(x).raw_string();
      Lsn lsn = log_->Append(&rec);
      if (staged_from_ == kInvalidLsn) staged_from_ = lsn;
      ++stats_.pages_staged;
    }
    if (!staged[level].empty()) LLB_RETURN_IF_ERROR(log_->Force());
    LLB_RETURN_IF_ERROR(target_->WritePages(levels[level]));
    stats_.pages_written += levels[level].size();
  }
  if (staged_from_ != kInvalidLsn) {
    LLB_RETURN_IF_ERROR(log_->TruncateAfter(staged_from_ - 1));
    staged_from_ = kInvalidLsn;
  }
  dirty_.clear();
  pages_->clear();
  graph_ = std::make_unique<GeneralWriteGraph>();
  return Status::OK();
}

}  // namespace llb
