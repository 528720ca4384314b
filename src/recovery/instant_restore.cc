#include "recovery/instant_restore.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/coding.h"
#include "io/durable_cursor.h"
#include "io/transfer_pipeline.h"
#include "recovery/redo.h"

namespace llb {

namespace {

constexpr uint32_t kBitmapMagic = 0x4C4C5242;  // "LLRB"
constexpr uint32_t kBitmapVersion = 1;

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

SliceIndex::SliceIndex(std::vector<LogRecord> records)
    : records_(std::move(records)) {
  for (uint32_t i = 0; i < records_.size(); ++i) {
    for (const PageId& id : records_[i].writeset) {
      std::vector<uint32_t>& writers = writers_[id];
      if (writers.empty() || writers.back() != i) writers.push_back(i);
    }
  }
}

SliceIndex::Closure SliceIndex::ClosureOf(
    const std::vector<PageId>& seeds) const {
  // Worklist over pages: each newly reached page pulls in the records
  // writing it, and each record its readset and writeset. Every record
  // writing a closure page is therefore visited — the restricted replay
  // set — and every replayed record's readset ends up inside the closure,
  // the property the restricted replay's soundness rests on. Operations
  // never span partitions, so the closure stays within the seeds'.
  std::unordered_set<PageId, PageIdHash> pages(seeds.begin(), seeds.end());
  std::unordered_set<uint32_t> records;
  std::vector<PageId> work(pages.begin(), pages.end());
  while (!work.empty()) {
    PageId page = work.back();
    work.pop_back();
    auto it = writers_.find(page);
    if (it == writers_.end()) continue;
    for (uint32_t r : it->second) {
      if (!records.insert(r).second) continue;
      for (const std::vector<PageId>* set :
           {&records_[r].readset, &records_[r].writeset}) {
        for (const PageId& id : *set) {
          if (pages.insert(id).second) work.push_back(id);
        }
      }
    }
  }
  Closure closure;
  closure.pages.assign(pages.begin(), pages.end());
  std::sort(closure.pages.begin(), closure.pages.end());
  closure.records.assign(records.begin(), records.end());
  std::sort(closure.records.begin(), closure.records.end());
  return closure;
}

InstantRestorer::InstantRestorer(Env* env, std::string bitmap_name,
                                 std::string backup_name,
                                 const OpRegistry& registry, PageStore* stable,
                                 LogManager* log,
                                 const InstantRestoreOptions& options,
                                 RestoreChainPlan plan)
    : env_(env),
      bitmap_name_(std::move(bitmap_name)),
      backup_name_(std::move(backup_name)),
      registry_(registry),
      stable_(stable),
      log_(log),
      options_(options),
      plan_(std::move(plan)) {}

Result<std::unique_ptr<InstantRestorer>> InstantRestorer::Open(
    Env* env, const std::string& bitmap_name, const std::string& backup_name,
    const OpRegistry& registry, PageStore* stable, LogManager* log,
    const InstantRestoreOptions& options) {
  LLB_ASSIGN_OR_RETURN(RestoreChainPlan plan,
                       LoadRestoreChain(env, backup_name));
  std::unique_ptr<InstantRestorer> restorer(
      new InstantRestorer(env, bitmap_name, backup_name, registry, stable, log,
                          options, std::move(plan)));
  LLB_RETURN_IF_ERROR(restorer->Init());
  return restorer;
}

Result<RestoreStatus> InstantRestorer::InspectBitmap(
    Env* env, const std::string& bitmap_name, std::string* backup_name) {
  LLB_ASSIGN_OR_RETURN(std::string cell, DurableCursor::Load(env, bitmap_name));
  SliceReader reader{Slice(cell)};
  uint32_t magic = 0, version = 0, parts = 0, ppp = 0;
  uint64_t tail = 0;
  Slice name;
  if (!reader.ReadFixed32(&magic) || magic != kBitmapMagic ||
      !reader.ReadFixed32(&version) || version != kBitmapVersion ||
      !reader.ReadFixed64(&tail) || !reader.ReadLengthPrefixed(&name) ||
      !reader.ReadFixed32(&parts) || !reader.ReadFixed32(&ppp)) {
    return Status::Corruption("restored-bitmap cell malformed: " + bitmap_name);
  }
  uint64_t total = uint64_t{parts} * ppp;
  Slice raw_bits;
  if (!reader.ReadBytes((total + 7) / 8, &raw_bits)) {
    return Status::Corruption("restored-bitmap cell malformed: " + bitmap_name);
  }
  RestoreStatus status;
  status.restoring = true;
  status.pages_total = total;
  for (uint64_t pos = 0; pos < total; ++pos) {
    if ((static_cast<uint8_t>(raw_bits[pos >> 3]) & (1u << (pos & 7))) != 0) {
      ++status.pages_restored;
    }
  }
  status.complete = status.pages_restored == total;
  status.recovery_tail = tail;
  if (total > 0) {
    status.fraction =
        static_cast<double>(status.pages_restored) / static_cast<double>(total);
  }
  if (backup_name != nullptr) *backup_name = name.ToString();
  return status;
}

Status InstantRestorer::Init() {
  partitions_ = plan_.base().partitions;
  pages_per_partition_ = plan_.base().pages_per_partition;
  total_pages_ = uint64_t{partitions_} * pages_per_partition_;
  if (stable_->num_partitions() != partitions_) {
    return Status::InvalidArgument(
        "restore target partition count does not match the backup chain");
  }
  for (const BackupManifest& m : plan_.chain) {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> store,
                         PageStore::Open(env_, m.StoreName(), m.partitions));
    carriers_.push_back(std::move(store));
  }
  decoder_ = std::make_unique<codec::FrameDecoder>(env_, partitions_);

  bits_.assign((total_pages_ + 7) / 8, 0);
  Result<std::string> cell = DurableCursor::Load(env_, bitmap_name_);
  if (cell.ok()) {
    // Resume: a crash interrupted a previous restoring session. The cell
    // pins the recovery tail and the chain; bits cleared by the crash
    // (set in memory but never saved) simply re-restore.
    SliceReader reader{Slice(*cell)};
    uint32_t magic = 0, version = 0, parts = 0, ppp = 0;
    uint64_t tail = 0;
    Slice name, raw_bits;
    if (!reader.ReadFixed32(&magic) || magic != kBitmapMagic ||
        !reader.ReadFixed32(&version) || version != kBitmapVersion ||
        !reader.ReadFixed64(&tail) || !reader.ReadLengthPrefixed(&name) ||
        !reader.ReadFixed32(&parts) || !reader.ReadFixed32(&ppp) ||
        !reader.ReadBytes(bits_.size(), &raw_bits)) {
      return Status::Corruption("restored-bitmap cell malformed: " +
                                bitmap_name_);
    }
    if (name.ToString() != backup_name_ || parts != partitions_ ||
        ppp != pages_per_partition_) {
      return Status::InvalidArgument(
          "restored-bitmap cell belongs to a different restore (backup '" +
          name.ToString() + "'); finish or discard that restore first");
    }
    recovery_tail_ = tail;
    std::memcpy(bits_.data(), raw_bits.data(), bits_.size());
    for (uint64_t pos = 0; pos < total_pages_; ++pos) {
      if ((bits_[pos >> 3] & (1u << (pos & 7))) != 0) ++restored_count_;
    }
  } else if (cell.status().IsNotFound()) {
    // First restoring open after the media failure: freeze the durable
    // log tail and pin it durably BEFORE any transaction can append —
    // the slice/new-work split must survive a crash that loses the
    // in-memory value.
    recovery_tail_ = log_->durable_lsn();
    std::lock_guard<std::mutex> lock(mu_);
    LLB_RETURN_IF_ERROR(
        DurableCursor::Save(env_, bitmap_name_, Slice(EncodeBitmapLocked())));
    ++bitmap_saves_;
  } else {
    return cell.status();
  }
  saved_count_ = restored_count_;

  // Snapshot the media-recovery slice. Taken before new appends (Open
  // precedes serving), so the snapshot equals the log range
  // [newest.start_lsn, recovery_tail] for the restore's whole lifetime —
  // closures and replays never race the live log.
  std::vector<LogRecord> slice;
  LLB_RETURN_IF_ERROR(
      log_->Scan(plan_.newest().start_lsn, [&](const LogRecord& rec) {
        if (rec.lsn > recovery_tail_ || rec.IsCheckpoint()) {
          return Status::OK();
        }
        slice.push_back(rec);
        return Status::OK();
      }));
  slice_ = SliceIndex(std::move(slice));
  return Status::OK();
}

void InstantRestorer::SetBitLocked(const PageId& id) {
  uint64_t pos = BitIndex(id);
  uint8_t mask = static_cast<uint8_t>(1u << (pos & 7));
  if ((bits_[pos >> 3] & mask) == 0) {
    bits_[pos >> 3] |= mask;
    ++restored_count_;
  }
}

std::string InstantRestorer::EncodeBitmapLocked() const {
  std::string payload;
  PutFixed32(&payload, kBitmapMagic);
  PutFixed32(&payload, kBitmapVersion);
  PutFixed64(&payload, recovery_tail_);
  PutLengthPrefixed(&payload, Slice(backup_name_));
  PutFixed32(&payload, partitions_);
  PutFixed32(&payload, pages_per_partition_);
  payload.append(reinterpret_cast<const char*>(bits_.data()), bits_.size());
  return payload;
}

Status InstantRestorer::WaitSavedLocked(std::unique_lock<std::mutex>& lk) {
  // Bits are only ever set, so restored_count_ orders them: a save that
  // snapshot the bitmap at count n holds every bit set before it.
  const uint64_t want = restored_count_;
  while (saved_count_ < want) {
    if (saving_) {
      // The save in flight may have started before these bits were set:
      // wait for it, then look again (and lead the next one if needed).
      cv_.wait(lk);
      continue;
    }
    saving_ = true;
    std::string payload = EncodeBitmapLocked();
    const uint64_t count = restored_count_;
    lk.unlock();
    Status s = DurableCursor::Save(env_, bitmap_name_, Slice(payload));
    lk.lock();
    saving_ = false;
    if (s.ok()) {
      saved_count_ = count;
      ++bitmap_saves_;
    }
    cv_.notify_all();
    LLB_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status InstantRestorer::SaveBitmap() {
  std::unique_lock<std::mutex> lock(mu_);
  return WaitSavedLocked(lock);
}

bool InstantRestorer::TryClaimLocked(const SliceIndex::Closure& closure,
                                     std::vector<PageId>* to_install) {
  // Set bits are never reinstalled: the live page may already be newer
  // than the slice state (the transaction that faulted it in has moved
  // on). Claimed pages are being installed by another fault or step.
  to_install->clear();
  for (const PageId& id : closure.pages) {
    if (TestBit(bits_, id)) continue;
    if (claimed_.count(id) != 0) return false;
    to_install->push_back(id);
  }
  claimed_.insert(to_install->begin(), to_install->end());
  return true;
}

Status InstantRestorer::ReplayClosure(const SliceIndex::Closure& closure,
                                      LogApplier::PageMap* pages) const {
  // 1. Seed: the closure's newest-carrier images, one inline read per
  //    run. Always fresh — mixing previously replayed (post-slice)
  //    values with raw carrier values would not be a legal redo base for
  //    logical operations (the paper's Figure 1 problem in miniature).
  std::vector<std::vector<PageId>> claims = plan_.Claims(closure.pages);
  for (size_t i = 0; i < claims.size(); ++i) {
    TransferPlan seed_plan;
    seed_plan.AddPages(claims[i], options_.batch_pages);
    for (const TransferRun& run : seed_plan.runs()) {
      std::vector<PageImage> images;
      LLB_RETURN_IF_ERROR(carriers_[i]->ReadRun(run.partition, run.first_page,
                                                run.count, &images));
      LLB_RETURN_IF_ERROR(decoder_->DecodeRun(run, &images));
      for (uint32_t k = 0; k < run.count; ++k) {
        (*pages)[PageId{run.partition, run.first_page + k}] =
            std::move(images[k]);
      }
    }
  }

  // 2. Replay the closure's records. Mirrors RunRedoRange over a restored
  //    base: identity writes seed (install-without-flush — an installed
  //    operation's effects may exist only on the log), everything else
  //    replays in LSN order under the per-target LSN test. Readsets are
  //    inside the closure, so every replay sees exactly the page states
  //    the full offline replay would.
  const std::vector<LogRecord>& slice = slice_.records();
  LogApplier applier(registry_, pages);
  struct IdentitySeed {
    Lsn lsn = kInvalidLsn;
    const std::string* value = nullptr;
  };
  std::unordered_map<PageId, IdentitySeed, PageIdHash> identity_seeds;
  for (uint32_t r : closure.records) {
    const LogRecord& rec = slice[r];
    if (rec.IsIdentityWrite() && rec.writeset.size() == 1) {
      IdentitySeed& seed = identity_seeds[rec.writeset[0]];
      if (seed.value == nullptr || rec.lsn >= seed.lsn) {
        seed = IdentitySeed{rec.lsn, &rec.payload};
      }
    }
  }
  for (const auto& [id, seed] : identity_seeds) {
    LLB_RETURN_IF_ERROR(applier.SeedPage(id, *seed.value, seed.lsn, nullptr));
  }
  for (uint32_t r : closure.records) {
    if (slice[r].IsIdentityWrite()) continue;
    LLB_RETURN_IF_ERROR(applier.Apply(slice[r]));
  }
  return applier.Flush();  // seals the replayed pages
}

Status InstantRestorer::RestoreClaimed(const SliceIndex::Closure& closure,
                                       const std::vector<PageId>& to_install,
                                       bool yield, uint64_t* installed,
                                       bool* yielded) {
  TransferPlan plan;
  plan.AddPages(to_install, options_.batch_pages);
  const std::vector<TransferRun>& runs = plan.runs();
  size_t landed = 0;
  LogApplier::PageMap pages;
  Status s = ReplayClosure(closure, &pages);
  // 3. Install run by run: one inline write + sync each. Bits are set
  //    per durably-written run, so exactly what landed is recorded — also
  //    after a yield or a partial failure.
  for (; s.ok() && landed < runs.size(); ++landed) {
    const TransferRun& run = runs[landed];
    if (yield) {
      std::lock_guard<std::mutex> lock(mu_);
      if (faults_waiting_ > 0) {
        *yielded = true;
        break;
      }
    }
    std::vector<PageImage> images;
    images.reserve(run.count);
    for (uint32_t k = 0; k < run.count; ++k) {
      images.push_back(
          std::move(pages.at(PageId{run.partition, run.first_page + k})));
    }
    s = stable_->WriteSealedRun(run.partition, run.first_page, images);
    if (!s.ok()) break;
    std::lock_guard<std::mutex> lock(mu_);
    for (uint32_t k = 0; k < run.count; ++k) {
      PageId id{run.partition, run.first_page + k};
      SetBitLocked(id);
      claimed_.erase(id);
    }
    *installed += run.count;
    cv_.notify_all();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = landed; i < runs.size(); ++i) {
    for (uint32_t k = 0; k < runs[i].count; ++k) {
      claimed_.erase(PageId{runs[i].partition, runs[i].first_page + k});
    }
  }
  cv_.notify_all();
  return s;
}

Status InstantRestorer::RestoreOnFault(const PageId& id) {
  if (id.partition >= partitions_ || id.page >= pages_per_partition_) {
    // Outside the backed-up geometry: nothing to restore (the page was
    // never written before the failure; it reads as zero).
    return Status::OK();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (TestBit(bits_, id)) return Status::OK();
  SliceIndex::Closure closure = slice_.ClosureOf({id});
  std::vector<PageId> to_install;
  bool waiting = false;
  while (!TestBit(bits_, id) && !TryClaimLocked(closure, &to_install)) {
    if (!waiting) ++faults_waiting_;
    waiting = true;
    cv_.wait(lock);
  }
  if (waiting) {
    --faults_waiting_;
    cv_.notify_all();
  }
  if (TestBit(bits_, id)) return Status::OK();
  lock.unlock();
  uint64_t installed = 0;
  Status s = RestoreClaimed(closure, to_install, /*yield=*/false, &installed,
                            nullptr);
  lock.lock();
  faulted_pages_ += installed;
  if (installed > 0) closure_extra_pages_ += installed - 1;
  // The bits ride the next log commit (SaveBitmap as the log's commit
  // barrier): durable before any record that touches these pages.
  return s;
}

Result<uint64_t> InstantRestorer::Step() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t max_pages = std::max<uint32_t>(1, options_.step_pages);
  SliceIndex::Closure closure;
  std::vector<PageId> to_install;
  for (;;) {
    if (restored_count_ == total_pages_) return uint64_t{0};
    std::vector<PageId> seeds;
    for (uint64_t pos = 0; pos < total_pages_ && seeds.size() < max_pages;
         ++pos) {
      PageId id{static_cast<PartitionId>(pos / pages_per_partition_),
                static_cast<uint32_t>(pos % pages_per_partition_)};
      if (!TestBit(bits_, id) && claimed_.count(id) == 0) seeds.push_back(id);
    }
    if (!seeds.empty()) {
      closure = slice_.ClosureOf(seeds);
      if (TryClaimLocked(closure, &to_install)) break;
    }
    // Every unrestored page is a fault's, or the closure meets a fault's
    // claim: sleep until a claim drops.
    cv_.wait(lock);
  }
  lock.unlock();
  auto started = std::chrono::steady_clock::now();
  uint64_t installed = 0;
  bool yielded = false;
  Status s = RestoreClaimed(closure, to_install, /*yield=*/true, &installed,
                            &yielded);
  lock.lock();
  sweep_pages_ += installed;
  if (installed > 0) sweep_us_ += ElapsedUs(started);
  LLB_RETURN_IF_ERROR(s);
  // Yielded to a waiting fault: sleep until no fault waits rather than
  // come straight back for an empty step.
  if (yielded) cv_.wait(lock, [this] { return faults_waiting_ == 0; });
  LLB_RETURN_IF_ERROR(WaitSavedLocked(lock));
  return installed;
}

Status InstantRestorer::Drain() {
  while (!complete()) {
    LLB_ASSIGN_OR_RETURN(uint64_t moved, Step());
    (void)moved;
  }
  return Status::OK();
}

Status InstantRestorer::ResumeRedo() {
  return RunCrashRedo(log_, RedoTarget::kDatabase, registry_, stable_,
                      recovery_tail_ + 1)
      .status();
}

bool InstantRestorer::complete() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restored_count_ == total_pages_;
}

Status InstantRestorer::Finalize() {
  std::unique_lock<std::mutex> lock(mu_);
  if (restored_count_ != total_pages_) {
    return Status::FailedPrecondition("restore incomplete: " +
                                      std::to_string(restored_count_) + "/" +
                                      std::to_string(total_pages_) + " pages");
  }
  // A save still in flight would recreate the cell after its removal.
  cv_.wait(lock, [this] { return !saving_; });
  return DurableCursor::Remove(env_, bitmap_name_);
}

RestoreStatus InstantRestorer::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  RestoreStatus s;
  s.restoring = true;
  s.complete = restored_count_ == total_pages_;
  s.pages_total = total_pages_;
  s.pages_restored = restored_count_;
  s.pages_faulted = faulted_pages_;
  s.closure_pages = closure_extra_pages_;
  s.sweep_pages = sweep_pages_;
  s.bitmap_saves = bitmap_saves_;
  s.recovery_tail = recovery_tail_;
  s.fraction = total_pages_ == 0
                   ? 1.0
                   : static_cast<double>(restored_count_) /
                         static_cast<double>(total_pages_);
  if (sweep_pages_ > 0 && restored_count_ < total_pages_) {
    s.eta_us = (total_pages_ - restored_count_) * (sweep_us_ / sweep_pages_);
  }
  return s;
}

}  // namespace llb
