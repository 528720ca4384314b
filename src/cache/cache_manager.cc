#include "cache/cache_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "ops/operation.h"

namespace llb {

CacheManager::CacheManager(PageStore* stable, LogManager* log,
                           const OpRegistry* registry,
                           std::unique_ptr<WriteGraph> graph,
                           BackupCoordinator* coordinator,
                           IncrementalTracker* tracker, CacheOptions options)
    : stable_(stable),
      log_(log),
      registry_(registry),
      graph_(std::move(graph)),
      coordinator_(coordinator),
      tracker_(tracker),
      options_(options) {}

void CacheManager::Touch(Frame& frame) {
  lru_.splice(lru_.begin(), lru_, frame.lru_pos);
}

void CacheManager::SetPageFaultHandler(
    std::function<Status(const PageId&)> handler) {
  std::lock_guard<std::mutex> lock(mu_);
  page_fault_handler_ = std::move(handler);
}

Status CacheManager::GetFrame(std::unique_lock<std::mutex>& lk,
                              const PageId& id, Frame** frame) {
  auto it = frames_.find(id);
  if (it != frames_.end()) {
    ++stats_.hits;
    Touch(it->second);
    *frame = &it->second;
    return Status::OK();
  }
  ++stats_.misses;
  // Restoring mode: restore the page on demand before reading it from S.
  // The handler persists its restored-bitmap before returning, so the
  // value read below is durably the media-recovery state.
  if (page_fault_handler_) {
    LLB_RETURN_IF_ERROR(page_fault_handler_(id));
  }
  LLB_RETURN_IF_ERROR(EnsureRoom(lk));
  Frame f;
  LLB_RETURN_IF_ERROR(stable_->ReadPage(id, &f.image));
  lru_.push_front(id);
  f.lru_pos = lru_.begin();
  auto [pos, inserted] = frames_.emplace(id, std::move(f));
  *frame = &pos->second;
  return Status::OK();
}

Status CacheManager::EnsureRoom(std::unique_lock<std::mutex>& lk) {
  // Prefer the least-recently-used clean page. Flushing a dirty victim
  // releases the mutex, so every round re-derives its facts, pinned
  // frames are skipped, and a fully-pinned cache tolerates a transient
  // overrun instead of deadlocking.
  while (frames_.size() >= options_.capacity_pages && !lru_.empty()) {
    PageId victim = kInvalidPageId;
    bool victim_dirty = false;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      Frame& f = frames_[*it];
      if (f.pins > 0) continue;
      if (!f.dirty) {
        victim = *it;
        victim_dirty = false;
        break;
      }
      if (victim == kInvalidPageId) {
        victim = *it;  // coldest unpinned page as the dirty fallback
        victim_dirty = true;
      }
    }
    if (victim == kInvalidPageId) return Status::OK();  // everything pinned
    if (victim_dirty) {
      if (in_apply_) return Status::OK();  // never release mu_ mid-apply
      LLB_RETURN_IF_ERROR(FlushPageLocked(lk, victim));
      // The install touched the victim to the MRU end, so a rescan would
      // walk the whole LRU to find it: evict it directly if it is still
      // clean and unpinned, and otherwise re-derive everything.
    }
    auto it = frames_.find(victim);
    if (it != frames_.end() && !it->second.dirty && it->second.pins == 0) {
      lru_.erase(it->second.lru_pos);
      frames_.erase(it);
      ++stats_.evictions;
    }
  }
  return Status::OK();
}

Status CacheManager::ReadPage(const PageId& id, PageImage* out) {
  std::unique_lock<std::mutex> lock(mu_);
  Frame* frame = nullptr;
  LLB_RETURN_IF_ERROR(GetFrame(lock, id, &frame));
  *out = frame->image;
  return Status::OK();
}

/// Context for normal execution: reads come from the cache; writes are
/// staged and committed only if the whole operation succeeds.
class CacheManager::CacheOpContext : public OpContext {
 public:
  CacheOpContext(CacheManager* cm, std::unique_lock<std::mutex>* lk)
      : cm_(cm), lk_(lk) {}

  Status Read(const PageId& id, PageImage* out) override {
    auto sit = staged_.find(id);
    if (sit != staged_.end()) {
      *out = sit->second;
      return Status::OK();
    }
    Frame* frame = nullptr;
    LLB_RETURN_IF_ERROR(cm_->GetFrame(*lk_, id, &frame));
    *out = frame->image;
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
  CacheManager* const cm_;
  std::unique_lock<std::mutex>* const lk_;
  std::unordered_map<PageId, PageImage, PageIdHash> staged_;
};

Status CacheManager::ExecuteOp(LogRecord* rec) {
  std::unique_lock<std::mutex> lock(mu_);

  // Enforce the single-partition rule (paper 3.4 tracks backup progress
  // per partition; we preclude cross-partition operations so that flush
  // ordering never spans partitions — see DESIGN.md).
  PartitionId partition = 0;
  bool first = true;
  for (const std::vector<PageId>* set : {&rec->readset, &rec->writeset}) {
    for (const PageId& id : *set) {
      if (first) {
        partition = id.partition;
        first = false;
      } else if (id.partition != partition) {
        return Status::InvalidArgument(
            "operation spans partitions: " + id.ToString());
      }
    }
  }
  if (rec->writeset.empty()) {
    return Status::InvalidArgument("operation writes nothing");
  }

  std::vector<PageId> pinned;
  pinned.reserve(rec->readset.size() + rec->writeset.size());
  auto unpin = [&] {
    for (const PageId& id : pinned) {
      auto it = frames_.find(id);
      if (it != frames_.end() && it->second.pins > 0) --it->second.pins;
    }
    pinned.clear();
  };

  // Pre-fault and pin the declared pages so apply never misses with the
  // mutex released (faulting can evict, and evicting a dirty page
  // unlocks mu_ — which would break the op's linearizability). In
  // restoring mode this also restores every writeset page before the
  // record is appended: a concurrent Force could otherwise seal a blind
  // write's record durably before the page's restore/bit became durable,
  // and after a crash the fault path would overwrite the redone value
  // with the backup state. Then wait until no writeset page is part of
  // an in-flight install: its image is the frozen snapshot being written
  // to S.
  for (;;) {
    for (const std::vector<PageId>* set : {&rec->readset, &rec->writeset}) {
      for (const PageId& id : *set) {
        Frame* frame = nullptr;
        Status s = GetFrame(lock, id, &frame);
        if (!s.ok()) {
          unpin();
          return s;
        }
        ++frame->pins;
        pinned.push_back(id);
      }
    }
    bool conflict = false;
    for (const PageId& id : rec->writeset) {
      if (frames_.find(id)->second.installing) {  // pinned, so resident
        conflict = true;
        break;
      }
    }
    if (!conflict) break;
    unpin();
    ++stats_.install_waits;
    install_cv_.wait(lock);
  }

  CacheOpContext ctx(this, &lock);
  in_apply_ = true;
  Status applied = registry_->Apply(ctx, *rec);
  in_apply_ = false;
  if (!applied.ok()) {
    unpin();
    return applied;
  }

  // Every writeset member must have been staged; no extras allowed.
  if (ctx.staged().size() != rec->writeset.size()) {
    unpin();
    return Status::Internal("apply wrote a different page set than declared");
  }
  for (const PageId& id : rec->writeset) {
    if (!ctx.staged().count(id)) {
      unpin();
      return Status::Internal("apply missed declared target " + id.ToString());
    }
  }

  Lsn lsn = log_->Append(rec);

  for (auto& [id, image] : ctx.staged()) {
    Frame* frame = nullptr;
    Status s = GetFrame(lock, id, &frame);
    if (!s.ok()) {
      unpin();
      return s;
    }
    frame->image = image;
    frame->image.set_lsn(lsn);
    frame->dirty = true;
  }
  graph_->OnOperation(*rec);
  ++stats_.ops_applied;
  unpin();
  return Status::OK();
}

void CacheManager::DecideBackupLogging(const InstallUnit& unit,
                                       const BackupProgress& progress,
                                       std::vector<PageId>* to_log) {
  if (!progress.active() || options_.policy == BackupPolicy::kNaive) return;

  if (options_.policy == BackupPolicy::kGeneral) {
    // Paper 3.5: Done(X) or Doubt(X) => Iw/oF; Pend(X) => plain flush.
    // ("Of course, we can flush pending objects to S, and log only the
    // non-pending objects.")
    for (const PageId& x : unit.vars) {
      BackupRegion region = progress.Classify(BackupPositionOf(x));
      ++stats_.decisions;
      switch (region) {
        case BackupRegion::kDone:
          ++stats_.region_done;
          break;
        case BackupRegion::kDoubt:
          ++stats_.region_doubt;
          break;
        case BackupRegion::kPend:
          ++stats_.region_pend;
          break;
      }
      if (region != BackupRegion::kPend) {
        to_log->push_back(x);
        ++stats_.decisions_logged;
      }
    }
    return;
  }

  // Tree policy (paper 4.2, Figure 4). Tree nodes have a single var.
  for (const PageId& x : unit.vars) {
    BackupRegion rx = progress.Classify(BackupPositionOf(x));
    ++stats_.decisions;
    if (unit.has_successors) ++stats_.decisions_succ;
    switch (rx) {
      case BackupRegion::kDone:
        ++stats_.region_done;
        break;
      case BackupRegion::kDoubt:
        ++stats_.region_doubt;
        break;
      case BackupRegion::kPend:
        ++stats_.region_pend;
        break;
    }

    bool log_it = false;
    if (rx == BackupRegion::kPend) {
      ++stats_.tree_plain_pend_x;  // Pend(X): will reach B
    } else if (!unit.has_successors) {
      ++stats_.tree_plain_done_succ;  // S(X) empty: nothing to order against
    } else {
      BackupRegion rs = progress.Classify(unit.max_successor_pos);
      if (rs == BackupRegion::kDone) {
        ++stats_.tree_plain_done_succ;  // Done(S(X)): no successor reaches B
      } else if (rx == BackupRegion::kDone) {
        log_it = true;  // Done(X) & !Done(S(X))
        ++stats_.tree_iwof_done_x;
      } else if (rs == BackupRegion::kPend) {
        log_it = true;  // Doubt(X) & Pend(S(X))
        ++stats_.tree_iwof_pend_succ;
      } else if (unit.violation) {
        log_it = true;  // Doubt & Doubt, dagger fails
        ++stats_.tree_iwof_doubt_viol;
      } else {
        ++stats_.tree_plain_doubt_ok;  // Doubt & Doubt, dagger holds
      }
    }
    if (log_it) {
      to_log->push_back(x);
      ++stats_.decisions_logged;
      if (unit.has_successors) ++stats_.decisions_succ_logged;
    }
  }
}

Status CacheManager::InstallPlan(std::unique_lock<std::mutex>& lk,
                                 const std::vector<InstallUnit>& plan) {
  PartitionId partition = 0;
  bool have_partition = false;
  for (const InstallUnit& unit : plan) {
    for (const PageId& x : unit.vars) {
      if (!have_partition) {
        partition = x.partition;
        have_partition = true;
      } else if (x.partition != partition) {
        return Status::Internal("install plan spans partitions");
      }
    }
  }

  BackupProgress* progress = (coordinator_ != nullptr && have_partition)
                                 ? coordinator_->Get(partition)
                                 : nullptr;

  // The backup latch (share mode) is held from the Iw/oF decision until
  // the images land on S — phases 1 and 2 — so the fences cannot move in
  // between and the Done/Doubt/Pend classification stays valid at write
  // time. It is released BEFORE phase 3 retakes the cache mutex: the
  // protocol obligation ends with the S write, and a latch holder that
  // waited on the mutex could deadlock three ways with a mutex holder
  // entering phase 1 behind the backup job's queued exclusive fence
  // update (writer-preferring rwlock).
  std::shared_lock<std::shared_mutex> latch;
  if (progress != nullptr) {
    latch = std::shared_lock<std::shared_mutex>(progress->latch());
  }

  struct PendingInstall {
    uint64_t node_id = 0;
    std::vector<PageStore::Entry> batch;
  };
  std::vector<PendingInstall> pending;
  pending.reserve(plan.size());
  Epoch wait_epoch = kInvalidEpoch;

  auto clear_marks = [&] {
    for (const PendingInstall& pi : pending) {
      for (const PageStore::Entry& entry : pi.batch) {
        auto it = frames_.find(entry.id);
        if (it != frames_.end()) it->second.installing = false;
      }
      installing_nodes_.erase(pi.node_id);
      graph_->EndInstall(pi.node_id);
    }
    install_cv_.notify_all();
  };

  // Phase 1 (cache mutex held): decide + append Iw records + snapshot the
  // images to write + mark every unit installing. Iw/oF puts the chosen
  // pages' values on the media recovery log, installing their operations
  // in B without relying on the sweep (paper 3.2); the pages are still
  // flushed too ("we both log and flush X"). A planned node's vars are
  // dirty and therefore resident, so lookups must hit.
  for (const InstallUnit& unit : plan) {
    std::vector<PageId> to_log;
    if (progress != nullptr) DecideBackupLogging(unit, *progress, &to_log);

    for (const PageId& x : to_log) {
      auto it = frames_.find(x);
      if (it == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
      ++stats_.hits;
      Touch(it->second);
      Frame* frame = &it->second;
      LogRecord wip = MakeIdentityWrite(x, frame->image);
      Epoch epoch = kInvalidEpoch;
      Lsn lsn = log_->Append(&wip, &epoch);
      graph_->OnIdentityWrite(x, lsn);
      frame->image.set_lsn(lsn);
      ++stats_.identity_writes;
      wait_epoch = std::max(wait_epoch, epoch);
    }

    PendingInstall pi;
    pi.node_id = unit.node_id;
    pi.batch.reserve(unit.vars.size());
    for (const PageId& x : unit.vars) {
      auto it = frames_.find(x);
      if (it == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
      ++stats_.hits;
      Touch(it->second);
      pi.batch.push_back(PageStore::Entry{x, it->second.image});
    }
    for (const PageId& x : unit.vars) frames_.find(x)->second.installing = true;
    installing_nodes_.insert(unit.node_id);
    // Freeze the node's identity in the graph for the unlocked phase 2:
    // a cycle collapse merging it would make phase 3's MarkInstalled
    // retire operations whose pages were never part of this snapshot.
    graph_->BeginInstall(unit.node_id);
    pending.push_back(std::move(pi));
  }
  ++stats_.overlapped_installs;

  // Phase 2 (cache mutex released, backup latch still shared): wait for
  // the epoch watermark to cover the installed operations and their Iw
  // records — "the epoch containing the Iw record has been published" is
  // the commit point — then write the frozen images to S. Concurrent
  // installers piggyback on one group commit's single sync.
  lk.unlock();
  if (wait_epoch == kInvalidEpoch) wait_epoch = log_->CurrentEpoch();
  Status s = log_->WaitEpochDurable(wait_epoch);
  if (s.ok()) {
    for (const PendingInstall& pi : pending) {
      if (pi.batch.empty()) continue;
      s = stable_->WriteBatchAtomic(pi.batch);
      if (!s.ok()) break;
    }
  }
  // The fence obligation ends once the images are on S; phase 3 is pure
  // in-memory bookkeeping. Drop the latch BEFORE re-taking the cache
  // mutex: waiting on mu_ while holding the latch shared would deadlock
  // with a mu_ holder entering phase 1 behind the backup job's queued
  // exclusive fence update (writer-preferring rwlock).
  if (latch.owns_lock()) latch.unlock();
  lk.lock();

  // Phase 3 (cache mutex re-held): mark pages clean and nodes installed,
  // wake writers and planners that waited on these units.
  if (!s.ok()) {
    clear_marks();
    return s;
  }
  for (const PendingInstall& pi : pending) {
    for (const PageStore::Entry& entry : pi.batch) {
      auto it = frames_.find(entry.id);
      if (it != frames_.end()) {
        it->second.dirty = false;
        it->second.installing = false;
      }
      if (tracker_ != nullptr) tracker_->OnPageFlushed(entry.id);
    }
    graph_->MarkInstalled(pi.node_id);
    installing_nodes_.erase(pi.node_id);
    graph_->EndInstall(pi.node_id);
    ++stats_.node_installs;
    stats_.pages_flushed += pi.batch.size();
  }
  install_cv_.notify_all();
  return Status::OK();
}

Status CacheManager::FlushPageLocked(std::unique_lock<std::mutex>& lk,
                                     const PageId& x) {
  // A plan touching a node already mid-install waits for it to finish
  // (its pages come out clean), then re-plans — the graph may have
  // changed while waiting.
  for (;;) {
    if (!graph_->IsTracked(x)) {
      auto it = frames_.find(x);
      if (it != frames_.end() && it->second.dirty) {
        if (it->second.installing) {
          // Mid-install: phase 1 already logged the page's Iw (untracking
          // it) but phase 3 has not marked the frame clean yet. Wait for
          // the installer rather than treating the state as corruption.
          ++stats_.install_waits;
          install_cv_.wait(lk);
          continue;
        }
        return Status::Internal("dirty page not tracked by write graph: " +
                                x.ToString());
      }
      return Status::OK();
    }
    std::vector<InstallUnit> plan;
    LLB_RETURN_IF_ERROR(graph_->PlanInstall(x, &plan));
    bool busy = false;
    for (const InstallUnit& unit : plan) {
      if (installing_nodes_.count(unit.node_id) != 0) {
        busy = true;
        break;
      }
    }
    if (!busy) return InstallPlan(lk, plan);
    ++stats_.install_waits;
    install_cv_.wait(lk);
  }
}

Status CacheManager::FlushPage(const PageId& x) {
  std::unique_lock<std::mutex> lock(mu_);
  return FlushPageLocked(lock, x);
}

Status CacheManager::FlushAll() {
  std::unique_lock<std::mutex> lock(mu_);
  // Install until no dirty page remains. Installing one page's node can
  // clean several pages, so re-scan each round.
  while (true) {
    PageId dirty = kInvalidPageId;
    for (const auto& [id, frame] : frames_) {
      if (frame.dirty) {
        dirty = id;
        break;
      }
    }
    if (dirty == kInvalidPageId) break;
    LLB_RETURN_IF_ERROR(FlushPageLocked(lock, dirty));
  }
  return log_->Force();
}

Status CacheManager::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  LogRecord rec;
  rec.op_code = kOpCheckpoint;
  PutFixed64(&rec.payload, graph_->RedoStartLsn(log_->next_lsn()));
  // Checkpoints have no page writes; give them an empty writeset by
  // bypassing ExecuteOp.
  log_->Append(&rec);
  return log_->Force();
}

Lsn CacheManager::RedoStartLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->RedoStartLsn(log_->next_lsn());
}

Status CacheManager::DropCleanPages() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (!it->second.dirty && it->second.pins == 0) {
      lru_.erase(it->second.lru_pos);
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
  return Status::OK();
}

CacheStats CacheManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

WriteGraphStats CacheManager::GraphStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->GetStats();
}

void CacheManager::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = CacheStats{};
}

size_t CacheManager::CachedPageCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.size();
}

bool CacheManager::IsDirty(const PageId& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(id);
  return it != frames_.end() && it->second.dirty;
}

}  // namespace llb
