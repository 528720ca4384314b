#include "recovery/log_applier.h"

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
  if (rec.IsCheckpoint() || rec.writeset.empty()) return Status::OK();
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
  ++stats_.records_applied;
  return Status::OK();
}

Status LogApplier::Flush() {
  if (target_ == nullptr) {
    for (const PageId& id : dirty_) pages_->at(id).Seal();
    dirty_.clear();
    return Status::OK();
  }
  // One atomic batch: replay leaves no write-graph order behind, so a
  // crash between single-page writes could land a logical operation's
  // source before its target (say a Copy's overwritten source without
  // the copy), and redoing the target then would read the wrong value.
  std::vector<PageStore::Entry> batch;
  batch.reserve(dirty_.size());
  for (const PageId& id : dirty_) batch.push_back({id, pages_->at(id)});
  LLB_RETURN_IF_ERROR(target_->WriteBatchAtomic(batch));
  stats_.pages_written += batch.size();
  dirty_.clear();
  pages_->clear();
  return Status::OK();
}

}  // namespace llb
