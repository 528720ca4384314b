#include "cache/cache_manager.h"

#include <algorithm>

#include "common/coding.h"
#include "ops/operation.h"

namespace llb {

namespace {

/// Cleaner threads per cache: with three closed-loop clients, two give
/// fewer ops/s than three, and four no more (EXPERIMENTS.md X18).
constexpr size_t kCleaners = 3;

}  // namespace

/// Counts a client thread inside ExecuteOp or ReadPage, from before it
/// takes mu_ until after it releases it.
class CacheManager::ClientScope {
 public:
  explicit ClientScope(CacheManager* cm) : cm_(cm) { ++cm_->active_clients_; }
  ~ClientScope() { --cm_->active_clients_; }
  ClientScope(const ClientScope&) = delete;
  ClientScope& operator=(const ClientScope&) = delete;

 private:
  CacheManager* const cm_;
};

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

CacheManager::~CacheManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_cleaners_ = true;
  }
  cleaner_cv_.notify_all();
  for (std::thread& cleaner : cleaners_) cleaner.join();
}

void CacheManager::Touch(Frame& frame) {
  lru_.splice(lru_.begin(), lru_, frame.lru_pos);
  const uint64_t stamp = ++lru_clock_;
  if (!frame.dirty) {
    // The newest stamp: reinserting at the end costs no search.
    auto node = clean_.extract(frame.stamp);
    node.key() = stamp;
    clean_.insert(clean_.end(), std::move(node));
  }
  frame.stamp = stamp;
}

CacheManager::Frame& CacheManager::AddFrame(const PageId& id) {
  lru_.push_front(id);
  Frame& frame = frames_[id];
  frame.lru_pos = lru_.begin();
  frame.stamp = ++lru_clock_;
  clean_.emplace_hint(clean_.end(), frame.stamp, id);
  return frame;
}

void CacheManager::RemoveFrame(
    std::unordered_map<PageId, Frame, PageIdHash>::iterator it) {
  if (!it->second.dirty) clean_.erase(it->second.stamp);
  lru_.erase(it->second.lru_pos);
  frames_.erase(it);
}

void CacheManager::MarkDirty(Frame& frame) {
  if (frame.dirty) return;
  clean_.erase(frame.stamp);
  frame.dirty = true;
}

void CacheManager::MarkClean(const PageId& id, Frame& frame) {
  if (!frame.dirty) return;
  clean_.emplace(frame.stamp, id);
  frame.dirty = false;
}

void CacheManager::SetPageFaultHandler(
    std::function<Status(const PageId&)> handler) {
  std::unique_lock<std::mutex> lock(mu_);
  const bool had_handler = static_cast<bool>(page_fault_handler_);
  page_fault_handler_ = std::move(handler);
  // In-flight misses run the copy they took under mu_. With no handler
  // before, none of them runs one; otherwise wait them out.
  if (had_handler) {
    load_cv_.wait(lock, [this] { return faults_in_flight_ == 0; });
  }
}

std::function<Status(const PageId&)> CacheManager::page_fault_handler()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return page_fault_handler_;
}

Status CacheManager::GetFrame(std::unique_lock<std::mutex>& lk,
                              const PageId& id, Frame** frame, bool* loaded) {
  *loaded = false;
  for (;;) {
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      Touch(it->second);
      *frame = &it->second;
      return Status::OK();
    }
    // Another thread is loading the page: wait on its latch, then look
    // again (a failed load leaves no frame, and this thread retries it).
    // Apply never waits — that would release mu_.
    if (in_apply_ || loading_.count(id) == 0) break;
    load_cv_.wait(lk);
  }
  *loaded = true;
  PageImage image;
  // Restoring mode: restore the page on demand before reading it from S.
  // The handler returns once the page's media-recovery state is durably
  // in S and its bit set; the log saves that bit before it writes any
  // record touching the page.
  if (in_apply_) {
    if (page_fault_handler_) {
      LLB_RETURN_IF_ERROR(page_fault_handler_(id));
    }
    LLB_RETURN_IF_ERROR(EnsureRoom(lk));
    LLB_RETURN_IF_ERROR(stable_->ReadPage(id, &image));
  } else {
    // Room first, while the latch already holds other missers of this
    // page off (evicting a dirty victim releases mu_). Nothing writes S
    // for a page that is not resident (installs write only dirty, hence
    // resident, pages; the restorer never rewrites a restored one), so
    // the unlocked read sees the page's current state.
    loading_.insert(id);
    Status s = EnsureRoom(lk);
    if (s.ok()) {
      std::function<Status(const PageId&)> handler = page_fault_handler_;
      if (handler) ++faults_in_flight_;
      lk.unlock();
      if (handler) s = handler(id);
      if (s.ok()) s = stable_->ReadPage(id, &image);
      lk.lock();
      if (handler) --faults_in_flight_;
    }
    loading_.erase(id);
    load_cv_.notify_all();
    LLB_RETURN_IF_ERROR(s);
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      // A miss inside apply loaded the page meanwhile: its frame may
      // already carry newer writes, so keep it.
      Touch(it->second);
      *frame = &it->second;
      return Status::OK();
    }
  }
  Frame& added = AddFrame(id);
  added.image = std::move(image);
  *frame = &added;
  return Status::OK();
}

Status CacheManager::EnsureRoom(std::unique_lock<std::mutex>& lk,
                                size_t reserved) {
  // Prefer the least-recently-used clean page: the first unpinned one in
  // clean_ (pinned frames are the few an op in flight declared, near the
  // MRU end). With none, the coldest unpinned page that no install holds
  // is a dirty victim (a cleaner leaves its pages at the cold end while it
  // writes them; a lone client never meets an installing page here).
  // Flushing it releases the mutex, so every round re-derives its facts,
  // and a fully-pinned cache tolerates a transient overrun instead of
  // deadlocking.
  while (frames_.size() + reserved >= options_.capacity_pages &&
         !lru_.empty()) {
    PageId victim = kInvalidPageId;
    bool victim_dirty = false;
    bool installing = false;
    for (const auto& [stamp, id] : clean_) {
      if (frames_.find(id)->second.pins == 0) {
        victim = id;
        break;
      }
    }
    for (auto it = lru_.rbegin();
         victim == kInvalidPageId && it != lru_.rend(); ++it) {
      const Frame& frame = frames_.find(*it)->second;
      installing |= frame.installing;
      if (frame.pins == 0 && !frame.installing) {
        victim = *it;
        victim_dirty = true;
      }
    }
    if (victim == kInvalidPageId && (!installing || in_apply_)) {
      return Status::OK();  // everything pinned
    }
    if (victim == kInvalidPageId || victim_dirty) {
      if (in_apply_) return Status::OK();  // never release mu_ mid-apply
      if (victim == kInvalidPageId ||
          (eviction_waiters_ < cleaning_.size() && active_clients_ >= 2)) {
        // An install in flight leaves clean frames behind. One client
        // waits per cleaner install; the others write back themselves,
        // so installs stay as parallel as the clients.
        ++eviction_waiters_;
        ++stats_.install_waits;
        install_cv_.wait(lk);
        --eviction_waiters_;
        continue;
      }
      LLB_RETURN_IF_ERROR(FlushPageLocked(lk, victim, Installer::kEviction));
      // The install touched the victim to the MRU end, where other clean
      // frames may be colder: evict it directly if it is still clean and
      // unpinned, and otherwise re-derive everything.
    }
    auto it = frames_.find(victim);
    if (it != frames_.end() && !it->second.dirty && it->second.pins == 0) {
      RemoveFrame(it);
      ++stats_.evictions;
    }
  }
  WakeCleaners();
  return Status::OK();
}

Status CacheManager::ReadPage(const PageId& id, PageImage* out) {
  ClientScope client(this);
  std::unique_lock<std::mutex> lock(mu_);
  LLB_RETURN_IF_ERROR(TakeCleanerError());
  Frame* frame = nullptr;
  bool loaded = false;
  LLB_RETURN_IF_ERROR(GetFrame(lock, id, &frame, &loaded));
  ++(loaded ? stats_.misses : stats_.hits);
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
    // Declared pages are pinned, so only an undeclared one can miss.
    Frame* frame = nullptr;
    bool loaded = false;
    LLB_RETURN_IF_ERROR(cm_->GetFrame(*lk_, id, &frame, &loaded));
    if (loaded) ++cm_->stats_.misses;
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
  ClientScope client(this);
  std::unique_lock<std::mutex> lock(mu_);
  LLB_RETURN_IF_ERROR(TakeCleanerError());

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

  auto in_readset = [rec](const PageId& id) {
    return std::find(rec->readset.begin(), rec->readset.end(), id) !=
           rec->readset.end();
  };
  // Pinned declared pages, and the blind writes this op reserved: a
  // reserved page sits in loading_ (its load latch, which holds every
  // other misser off) with no frame; the commit installs its staged
  // image. release() drops both, whatever the exit.
  std::vector<PageId> pinned;
  std::vector<PageId> reserved;
  pinned.reserve(rec->readset.size() + rec->writeset.size());
  auto release = [&] {
    for (const PageId& id : pinned) {
      auto it = frames_.find(id);
      if (it != frames_.end() && it->second.pins > 0) --it->second.pins;
    }
    pinned.clear();
    for (const PageId& id : reserved) loading_.erase(id);
    if (!reserved.empty()) load_cv_.notify_all();
    reserved.clear();
  };
  // Declared pages this op had to load or reserve, once each across
  // restarts: each counts one miss, every other declared page one hit.
  std::vector<PageId> missed;
  auto note_miss = [&](const PageId& id) {
    if (std::find(missed.begin(), missed.end(), id) == missed.end()) {
      missed.push_back(id);
    }
  };
  auto pin = [&](const PageId& id) -> Status {
    Frame* frame = nullptr;
    bool loaded = false;
    LLB_RETURN_IF_ERROR(GetFrame(lock, id, &frame, &loaded));
    if (loaded) note_miss(id);
    ++frame->pins;
    pinned.push_back(id);
    return Status::OK();
  };

  // Pre-fault and pin the declared pages so apply never misses with the
  // mutex released (a miss unlocks mu_ for its fault and S read, and
  // evicting a dirty page for room unlocks it too — either would break
  // the op's linearizability); pinned pages stay resident while a later
  // page's miss has the mutex released. A blind-written page that is not
  // resident is reserved instead: its old value cannot reach the result,
  // so nothing is read. The reservation keeps four invariants:
  //  1. Never wait while holding a reservation. Reservations come only
  //     after every readset page is pinned (pinning may wait on another
  //     thread's latch); a blind page already latched, a handler that
  //     appeared, or an install conflict drops every reservation and pin
  //     and restarts the pre-fault — otherwise ops blind-writing {X, Z}
  //     and {Z, X} could each hold one latch and wait for the other.
  //     EnsureRoom's install waits are fine: an install never waits on a
  //     load latch.
  //  2. An apply that reads an undeclared (or reserved) page still
  //     works: it takes the in-apply miss under mu_, and the commit
  //     updates the frame that miss inserted.
  //  3. The commit never calls GetFrame on its own reservation, which
  //     would wait on its own latch; it inserts the frame directly.
  //  4. Restoring mode keeps the read: while a page-fault handler is
  //     installed every miss runs it, so every writeset page is restored
  //     and its bit set before the record is appended, and the commit
  //     that writes the record saves the bit first (a blind write would
  //     set no bit, and after a crash the fault path would overwrite the
  //     redone value with the backup state). The handler is re-checked
  //     after the last point that released mu_.
  // Then wait until no writeset page is part of an in-flight install: its
  // image is the frozen snapshot being written to S.
  for (;;) {
    Status s;
    bool restart = false;
    PageId latched = kInvalidPageId;
    for (const PageId& id : rec->readset) {
      s = pin(id);
      if (!s.ok()) break;
    }
    for (const PageId& id : rec->writeset) {
      if (!s.ok() || restart) break;
      if (std::find(reserved.begin(), reserved.end(), id) != reserved.end()) {
        continue;
      }
      if (in_readset(id) || frames_.count(id) != 0) {
        s = pin(id);  // pinned already, or resident: a hit, never a wait
      } else if (page_fault_handler_) {
        if (reserved.empty()) {
          s = pin(id);  // invariant 4
        } else {
          restart = true;  // invariant 1: this miss could wait
        }
      } else if (loading_.count(id) != 0) {
        latched = id;  // invariant 1
        restart = true;
      } else {
        loading_.insert(id);
        reserved.push_back(id);
        note_miss(id);
        s = EnsureRoom(lock, reserved.size() - 1);
      }
    }
    if (!s.ok()) {
      release();
      return s;
    }
    // Invariant 4: EnsureRoom may have released mu_ after a reservation.
    if (page_fault_handler_ && !reserved.empty()) restart = true;
    if (restart) {
      release();
      if (latched != kInvalidPageId) {
        load_cv_.wait(lock, [&] { return loading_.count(latched) == 0; });
      }
      continue;
    }
    bool conflict = false;
    for (const PageId& id : rec->writeset) {
      auto it = frames_.find(id);
      conflict |= it != frames_.end() && it->second.installing;
    }
    if (!conflict) break;
    release();
    ++stats_.install_waits;
    install_cv_.wait(lock);
  }
  std::vector<PageId> declared(rec->readset);
  declared.insert(declared.end(), rec->writeset.begin(), rec->writeset.end());
  std::sort(declared.begin(), declared.end());
  declared.erase(std::unique(declared.begin(), declared.end()),
                 declared.end());
  stats_.misses += missed.size();
  stats_.hits += declared.size() - missed.size();

  CacheOpContext ctx(this, &lock);
  in_apply_ = true;
  Status applied = registry_->Apply(ctx, *rec);
  in_apply_ = false;
  if (!applied.ok()) {
    release();
    return applied;
  }

  // Every writeset member must have been staged; no extras allowed.
  if (ctx.staged().size() != rec->writeset.size()) {
    release();
    return Status::Internal("apply wrote a different page set than declared");
  }
  for (const PageId& id : rec->writeset) {
    if (!ctx.staged().count(id)) {
      release();
      return Status::Internal("apply missed declared target " + id.ToString());
    }
  }

  Lsn lsn = log_->Append(rec);

  for (auto& [id, image] : ctx.staged()) {
    auto it = frames_.find(id);
    Frame* frame = nullptr;
    if (it == frames_.end()) {
      // A reservation (pinned pages are resident) that no in-apply miss
      // loaded: its staged image becomes the frame, at the MRU end.
      // Invariant 3: never GetFrame here — the latch is this op's own.
      frame = &AddFrame(id);
      ++stats_.blind_misses;
    } else {
      frame = &it->second;
      Touch(*frame);
    }
    frame->image = std::move(image);
    frame->image.set_lsn(lsn);
    MarkDirty(*frame);
  }
  graph_->OnOperation(*rec);
  ++stats_.ops_applied;
  release();
  WakeCleaners();
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
                                 const std::vector<InstallUnit>& plan,
                                 Installer by, bool* deferred) {
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

  // Iw/oF decisions, and identity writes for multi-var nodes. Crash
  // redo seeds an Iw'd page with the logged value and skips the
  // operations below it, so an Iw record may become durable only once
  // every operation that read the page's older value is installed or
  // skipped too: identity writes go in installation order (DESIGN.md §3).
  // Such an operation belongs to the page's own node or to a
  // predecessor. Logging one var of a node logs them all, so redo seeds
  // every var past the node's operations; a node with several vars is
  // always logged that way, which installs it without an atomic
  // multi-page write (paper 2.5: a node whose vars are all identity-
  // written needs no flush at all). And the plan is cut before the first
  // unit that must log while it has a predecessor in the plan: the
  // prefix is closed under predecessors, and the caller re-plans the
  // rest once it is on S, when the cut unit has none left.
  std::vector<std::vector<PageId>> to_log(plan.size());
  std::vector<bool> multivar(plan.size(), false);
  size_t units = plan.size();
  const uint64_t decisions = stats_.decisions;
  for (size_t i = 0; i < plan.size(); ++i) {
    const CacheStats counted = stats_;
    if (progress != nullptr) {
      DecideBackupLogging(plan[i], *progress, &to_log[i]);
    }
    multivar[i] = to_log[i].empty() && plan[i].vars.size() > 1;
    if (to_log[i].empty() && !multivar[i]) continue;
    to_log[i] = plan[i].vars;
    if (!plan[i].preds.empty()) {
      stats_ = counted;  // decided again when the unit is re-planned
      ++stats_.iw_order_waits;
      units = i;
      break;
    }
  }
  *deferred = units < plan.size();
  if (by == Installer::kCleaner) {
    stats_.cleaner_decisions += stats_.decisions - decisions;
  }

  // The plan goes out in write-graph levels, each durable before the
  // next is written.
  std::vector<size_t> level_of;
  LLB_RETURN_IF_ERROR(InstallLevels(plan, units, &level_of));
  size_t num_levels = 1;
  for (size_t level : level_of) num_levels = std::max(num_levels, level + 1);
  std::vector<std::vector<PageStore::Entry>> levels(num_levels);

  struct PendingInstall {
    uint64_t node_id = 0;
    std::vector<PageId> pages;
  };
  std::vector<PendingInstall> pending;
  pending.reserve(units);
  Epoch wait_epoch = kInvalidEpoch;
  Lsn wait_lsn = 0;

  auto clear_marks = [&] {
    for (const PendingInstall& pi : pending) {
      for (const PageId& x : pi.pages) {
        auto it = frames_.find(x);
        if (it != frames_.end()) it->second.installing = false;
      }
      installing_nodes_.erase(pi.node_id);
      graph_->EndInstall(pi.node_id);
    }
    install_cv_.notify_all();
  };

  // Phase 1 (cache mutex held): append Iw records + snapshot the images
  // to write + mark every unit installing. Iw/oF puts the chosen pages'
  // values on the media recovery log, installing their operations in B
  // without relying on the sweep (paper 3.2); the pages are still
  // flushed too ("we both log and flush X"). A planned node's vars are
  // dirty and therefore resident, so lookups must hit.
  for (size_t i = 0; i < units; ++i) {
    const InstallUnit& unit = plan[i];
    for (const PageId& x : to_log[i]) {
      auto it = frames_.find(x);
      if (it == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
      Frame* frame = &it->second;
      if (by != Installer::kCleaner) Touch(*frame);
      LogRecord wip = MakeIdentityWrite(x, frame->image);
      if (multivar[i]) wip.op_code = kOpInstallIdentity;
      Epoch epoch = kInvalidEpoch;
      Lsn lsn = log_->Append(&wip, &epoch);
      graph_->OnIdentityWrite(x, lsn);
      frame->image.set_lsn(lsn);
      ++(multivar[i] ? stats_.multivar_identity_writes
                     : stats_.identity_writes);
      wait_epoch = std::max(wait_epoch, epoch);
    }

    for (const PageId& x : unit.vars) {
      if (frames_.find(x) == frames_.end()) {
        clear_marks();
        return Status::Internal("installing page not resident: " +
                                x.ToString());
      }
    }
    PendingInstall pi;
    pi.node_id = unit.node_id;
    pi.pages = unit.vars;
    wait_lsn = std::max(wait_lsn, unit.max_lsn);
    std::vector<PageStore::Entry>& level = levels[level_of[i]];
    for (const PageId& x : unit.vars) {
      Frame& frame = frames_.find(x)->second;
      if (by != Installer::kCleaner) Touch(frame);
      frame.installing = true;
      wait_lsn = std::max(wait_lsn, frame.image.lsn());
      level.push_back(PageStore::Entry{x, frame.image});
    }
    installing_nodes_.insert(unit.node_id);
    // Freeze the node's identity in the graph for the unlocked phase 2:
    // a cycle collapse merging it would make phase 3's MarkInstalled
    // retire operations whose pages were never part of this snapshot.
    graph_->BeginInstall(unit.node_id);
    pending.push_back(std::move(pi));
  }
  ++stats_.overlapped_installs;
  size_t pages = 0;
  size_t written_levels = 0;
  for (const std::vector<PageStore::Entry>& level : levels) {
    pages += level.size();
    if (!level.empty()) ++written_levels;
  }
  if (by == Installer::kCleaner) cleaner_pages_ += pages;

  // Phase 2 (cache mutex released, backup latch still shared): the WAL
  // rule first. A plan that logged Iw records waits for their epoch —
  // "the epoch containing the Iw record has been published" is the
  // commit point — and that covers every earlier record too; any other
  // plan waits only if one of its operations or pages is past the
  // durable LSN, so cold victims logged long ago cost no log IO.
  // Concurrent installers piggyback on one group commit's single sync.
  // Then the frozen images go to S level by level.
  lk.unlock();
  Status s = wait_epoch != kInvalidEpoch ? log_->WaitEpochDurable(wait_epoch)
                                         : log_->WaitLsnDurable(wait_lsn);
  for (size_t i = 0; s.ok() && i < levels.size(); ++i) {
    if (!levels[i].empty()) s = stable_->WritePages(levels[i]);
  }
  // The fence obligation ends once the images are on S; phase 3 is pure
  // in-memory bookkeeping. Drop the latch BEFORE re-taking the cache
  // mutex: waiting on mu_ while holding the latch shared would deadlock
  // with a mu_ holder entering phase 1 behind the backup job's queued
  // exclusive fence update (writer-preferring rwlock).
  if (latch.owns_lock()) latch.unlock();
  lk.lock();
  if (by == Installer::kCleaner) cleaner_pages_ -= pages;

  // Phase 3 (cache mutex re-held): mark pages clean and nodes installed,
  // wake writers and planners that waited on these units.
  if (!s.ok()) {
    clear_marks();
    return s;
  }
  for (const PendingInstall& pi : pending) {
    for (const PageId& x : pi.pages) {
      auto it = frames_.find(x);
      if (it != frames_.end()) {
        MarkClean(x, it->second);
        it->second.installing = false;
      }
      if (tracker_ != nullptr) tracker_->OnPageFlushed(x);
    }
    graph_->MarkInstalled(pi.node_id);
    installing_nodes_.erase(pi.node_id);
    graph_->EndInstall(pi.node_id);
    ++stats_.node_installs;
  }
  stats_.pages_flushed += pages;
  if (by != Installer::kFlush) {
    ++(by == Installer::kCleaner ? stats_.cleaner_installs
                                 : stats_.client_writebacks);
    ++stats_.writeback_batches;
    stats_.writeback_pages += pages;
    if (written_levels > 1) ++stats_.writeback_multilevel;
  }
  install_cv_.notify_all();
  return Status::OK();
}

Lsn CacheManager::PlanLsn(const std::vector<InstallUnit>& plan) const {
  Lsn lsn = 0;
  for (const InstallUnit& unit : plan) {
    lsn = std::max(lsn, unit.max_lsn);
    for (const PageId& x : unit.vars) {
      auto it = frames_.find(x);
      if (it != frames_.end()) lsn = std::max(lsn, it->second.image.lsn());
    }
  }
  return lsn;
}

void CacheManager::AddWriteBackVictims(const PageId& victim, Installer by,
                                       std::vector<InstallUnit>* plan) {
  const size_t window = options_.capacity_pages / 4;
  const size_t limit = std::min<size_t>(kWriteBackBatch, window);
  std::unordered_set<uint64_t> nodes;
  std::unordered_set<PageId, PageIdHash> planned;
  for (const InstallUnit& unit : *plan) {
    nodes.insert(unit.node_id);
    planned.insert(unit.vars.begin(), unit.vars.end());
  }
  // If the victim's own plan forces the log, the force makes everything
  // appended durable and any cold page may ride along. Otherwise a page
  // whose operations are not yet durable would turn a write-back that
  // costs no log IO into a log force on this client's op: skip it.
  const Lsn durable = log_->durable_lsn();
  const bool forces = PlanLsn(*plan) > durable;
  std::vector<InstallUnit> more;
  size_t scanned = 0;
  for (auto it = lru_.rbegin();
       it != lru_.rend() && scanned < window && planned.size() < limit;
       ++it) {
    const PageId& id = *it;
    const Frame& frame = frames_.find(id)->second;
    // The pages cleaners clean stay at the cold end: a cleaner's window
    // is the coldest dirty frames of the victim's partition.
    if (by == Installer::kCleaner &&
        (!frame.dirty || id.partition != victim.partition)) {
      continue;
    }
    ++scanned;
    if (id.partition != victim.partition || planned.count(id) != 0) continue;
    if (!frame.dirty || frame.pins > 0 || frame.installing ||
        loading_.count(id) != 0 || !graph_->IsTracked(id) ||
        !graph_->PlanInstall(id, &more).ok()) {
      continue;
    }
    // Take the page's whole plan or none of it: never wait on a node
    // mid-install, and stay within the batch.
    size_t added = 0;
    bool busy = false;
    for (const InstallUnit& unit : more) {
      busy |= installing_nodes_.count(unit.node_id) != 0;
      if (nodes.count(unit.node_id) != 0) continue;
      added += unit.vars.size();
      if (forces) continue;
      busy |= unit.max_lsn > durable;
      for (const PageId& x : unit.vars) {
        busy |= frames_.find(x)->second.image.lsn() > durable;
      }
    }
    if (busy || planned.size() + added > limit) continue;
    // Deduplicate by node, keeping first occurrences: each added plan
    // lists a node's predecessors before it, and a predecessor already
    // planned sits earlier still, so the merged plan stays in
    // write-graph order.
    for (InstallUnit& unit : more) {
      if (!nodes.insert(unit.node_id).second) continue;
      planned.insert(unit.vars.begin(), unit.vars.end());
      plan->push_back(std::move(unit));
    }
  }
}

Status CacheManager::FlushPageLocked(std::unique_lock<std::mutex>& lk,
                                     const PageId& x, Installer by) {
  // A plan touching a node already mid-install waits for it to finish
  // (its pages come out clean), then re-plans — the graph may have
  // changed while waiting.
  bool logged = false;
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
    if (!busy && by == Installer::kCleaner && !logged &&
        !BackupActive(x.partition)) {
      // Log before mark: a cleaner forces the log for its plan with the
      // mutex released before it marks any page installing, so writers
      // of those pages wait only for the S writes. Then it re-plans.
      // During a backup an Iw plan waits for its own records after it
      // marks (InstallPlan phase 2), and that one sync covers the plan.
      logged = true;
      const Lsn need = PlanLsn(plan);
      if (need > log_->durable_lsn()) {
        lk.unlock();
        Status s = log_->WaitLsnDurable(need);
        lk.lock();
        LLB_RETURN_IF_ERROR(s);
        continue;
      }
    }
    if (!busy) {
      if (by != Installer::kFlush) AddWriteBackVictims(x, by, &plan);
      bool deferred = false;
      LLB_RETURN_IF_ERROR(InstallPlan(lk, plan, by, &deferred));
      if (!deferred) return Status::OK();
      continue;
    }
    ++stats_.install_waits;
    install_cv_.wait(lk);
  }
}

bool CacheManager::BackupActive(PartitionId partition) const {
  BackupProgress* progress =
      coordinator_ != nullptr ? coordinator_->Get(partition) : nullptr;
  if (progress == nullptr) return false;
  std::shared_lock<std::shared_mutex> latch(progress->latch());
  return progress->active();
}

bool CacheManager::CleanersNeeded() const {
  if (!cleaner_error_.ok()) return false;
  const size_t capacity = options_.capacity_pages;
  const size_t free =
      frames_.size() < capacity ? capacity - frames_.size() : 0;
  return free + clean_.size() + cleaner_pages_ < capacity / 4;
}

void CacheManager::WakeCleaners() {
  if (stop_cleaners_ || active_clients_ < 2 || !CleanersNeeded()) return;
  if (cleaners_.empty()) {
    for (size_t i = 0; i < kCleaners; ++i) {
      cleaners_.emplace_back([this] { CleanerLoop(); });
    }
  } else if (idle_cleaners_ > 0) {
    cleaner_cv_.notify_one();
  }
}

PageId CacheManager::CleanerVictim() const {
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    const Frame& frame = frames_.find(*it)->second;
    if (frame.dirty && frame.pins == 0 && !frame.installing &&
        std::find(cleaning_.begin(), cleaning_.end(), *it) ==
            cleaning_.end()) {
      return *it;
    }
  }
  return kInvalidPageId;
}

Status CacheManager::TakeCleanerError() {
  Status s = std::move(cleaner_error_);
  cleaner_error_ = Status::OK();
  return s;
}

void CacheManager::CleanerLoop() {
  // Only a client that sees another client active wakes a cleaner, which
  // then installs until the clean frames are back at the low-water mark.
  // A lone client writes back for itself, as a cache without cleaners
  // would: with no other client to overlap with, a hand-off only adds a
  // thread switch, and single-threaded runs keep one install sequence
  // (the crash sweeps count on it).
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_cleaners_) {
    PageId victim = CleanersNeeded() ? CleanerVictim() : kInvalidPageId;
    if (victim == kInvalidPageId) {
      ++idle_cleaners_;
      cleaner_cv_.wait(lk);
      --idle_cleaners_;
      continue;
    }
    cleaning_.push_back(victim);
    Status s = FlushPageLocked(lk, victim, Installer::kCleaner);
    cleaning_.erase(std::find(cleaning_.begin(), cleaning_.end(), victim));
    // A failure leaves the pages dirty; cleaners pause until a client op
    // has returned it.
    if (!s.ok() && cleaner_error_.ok()) cleaner_error_ = std::move(s);
    // Clients waiting for this install re-derive their victims.
    install_cv_.notify_all();
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    LogRecord rec;
    rec.op_code = kOpCheckpoint;
    PutFixed64(&rec.payload, graph_->RedoStartLsn(log_->next_lsn()));
    // Checkpoints have no page writes; give them an empty writeset by
    // bypassing ExecuteOp.
    log_->Append(&rec);
  }
  // The redo start is fixed with the record's LSN; the force needs no
  // cache state, so clients keep running through its sync.
  return log_->Force();
}

Lsn CacheManager::RedoStartLsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graph_->RedoStartLsn(log_->next_lsn());
}

Status CacheManager::DropCleanPages() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    auto next = std::next(it);
    if (!it->second.dirty && it->second.pins == 0) RemoveFrame(it);
    it = next;
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
