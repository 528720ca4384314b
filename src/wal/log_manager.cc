#include "wal/log_manager.h"

#include <chrono>

namespace llb {

Result<std::unique_ptr<LogManager>> LogManager::Open(Env* env,
                                                     const std::string& name,
                                                     LogManagerOptions options) {
  if (options.channels == 0) options.channels = 1;
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> file,
                       env->OpenFile(name, /*create=*/true));

  // Find the next LSN by scanning the durable records.
  Lsn next = 1;
  {
    LogReader reader(file);
    LLB_RETURN_IF_ERROR(reader.Init());
    LogRecord rec;
    while (reader.Next(&rec)) {
      if (rec.lsn >= next) next = rec.lsn + 1;
    }
  }
  return std::unique_ptr<LogManager>(
      new LogManager(env, name, std::move(file), next, options));
}

LogManager::LogManager(Env* env, std::string name, std::shared_ptr<File> file,
                       Lsn next_lsn, LogManagerOptions options)
    : env_(env),
      name_(std::move(name)),
      options_(options),
      file_(std::move(file)),
      writer_(file_),
      durable_lsn_(next_lsn - 1),
      next_lsn_(next_lsn) {
  channels_.reserve(options_.channels);
  for (uint32_t i = 0; i < options_.channels; ++i) {
    channels_.push_back(std::make_unique<LogChannel>());
  }
  runs_.resize(channels_.size());
  if (options_.group_commit_interval_us > 0) {
    advancer_ = std::thread([this] { AdvancerLoop(); });
  }
}

LogManager::~LogManager() {
  if (advancer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(watermark_mu_);
      stop_advancer_ = true;
    }
    watermark_cv_.notify_all();
    advancer_.join();
  }
}

LogChannel& LogManager::ChannelForThisThread() {
  // Threads bind to channels round-robin at first append; the binding is
  // process-wide (not per-LogManager) which only affects which channel a
  // thread lands on, never correctness.
  static std::atomic<uint64_t> next_slot{0};
  thread_local uint64_t slot = next_slot.fetch_add(1);
  return *channels_[slot % channels_.size()];
}

Lsn LogManager::Append(LogRecord* record, Epoch* epoch_out) {
  LogChannel& channel = ChannelForThisThread();
  // The channel mutex is held across issuance AND buffering: once the
  // group commit closes epoch E, any record issued in an epoch <= E is
  // either fully buffered or its appender still holds the channel mutex
  // the drain must take — the drain never sees a half-buffered epoch.
  std::lock_guard<std::mutex> lock(channel.mu());
  Epoch epoch;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    record->lsn = next_lsn_++;
    epoch = open_epoch_;
  }
  channel.AddLocked(epoch, *record);
  if (epoch_out != nullptr) *epoch_out = epoch;
  return record->lsn;
}

Status LogManager::Force() {
  std::lock_guard<std::mutex> commit(commit_mu_);
  return GroupCommitLocked();
}

Status LogManager::GroupCommitLocked() {
  // Close the open epoch. Everything issued before this point belongs to
  // an epoch <= sealed and is (or is being) buffered in some channel.
  Epoch sealed;
  Lsn tail;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    sealed = open_epoch_++;
    tail = next_lsn_ - 1;
  }

  size_t total = 0;
  for (size_t i = 0; i < channels_.size(); ++i) {
    Run& run = runs_[i];
    run.head = 0;
    run.offset = 0;
    channels_[i]->Drain(sealed, &run);
    total += run.lsns.size();
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (total > 0) {
    // Merge the runs by LSN: each is already in LSN order, so the next
    // record is always some run's head. The merged records must continue
    // the log densely up to the LSN issuance tail captured at the epoch
    // close; a gap means a record was issued but never buffered — an
    // invariant violation, not an IO error.
    const Lsn first =
        (last_appended_ != kInvalidLsn ? last_appended_ : durable_lsn_) + 1;
    merge_order_.clear();
    for (Lsn expect = first; merge_order_.size() < total; ++expect) {
      size_t r = 0;
      while (r < runs_.size() && (runs_[r].head == runs_[r].lsns.size() ||
                                  runs_[r].lsns[runs_[r].head] != expect)) {
        ++r;
      }
      if (r == runs_.size()) {
        return Status::Internal("group commit: channel merge gap at lsn " +
                                std::to_string(expect));
      }
      merge_order_.push_back(r);
      ++runs_[r].head;
    }
    if (first + total - 1 != tail) {
      return Status::Internal("group commit: merge does not reach epoch tail");
    }
    if (runs_[merge_order_.front()].lsns.size() == total) {
      // One run holds everything (always so on one channel): it already
      // is the merged order, so hand its buffer over without copying.
      writer_.AddRaw(&runs_[merge_order_.front()].bytes);
    } else {
      for (Run& run : runs_) run.head = 0;
      for (size_t r : merge_order_) {
        Run& run = runs_[r];
        size_t size = run.sizes[run.head++];
        writer_.AddRaw(Slice(run.bytes.data() + run.offset, size));
        run.offset += size;
      }
    }
    if (seal_first_lsn_ == kInvalidLsn) seal_first_lsn_ = first;
    last_appended_ = tail;
  }
  LLB_RETURN_IF_ERROR(SealLocked(sealed));
  ++stats_.forces;
  ++stats_.group_commits;
  lock.unlock();

  {
    std::lock_guard<std::mutex> watermark(watermark_mu_);
    durable_epoch_.store(sealed, std::memory_order_release);
    advancer_error_ = Status::OK();
  }
  watermark_cv_.notify_all();
  return Status::OK();
}

Status LogManager::WaitEpochDurable(Epoch epoch) {
  if (epoch == kInvalidEpoch) return Status::OK();
  if (durable_epoch() >= epoch) return Status::OK();
  if (options_.group_commit_interval_us == 0) {
    // Caller-driven: lead a commit, or piggyback if a concurrent leader
    // already published our epoch while we queued on the commit lock.
    std::lock_guard<std::mutex> commit(commit_mu_);
    if (durable_epoch() >= epoch) return Status::OK();
    return GroupCommitLocked();
  }
  std::unique_lock<std::mutex> watermark(watermark_mu_);
  watermark_cv_.wait(watermark, [&] {
    return durable_epoch() >= epoch || !advancer_error_.ok() || stop_advancer_;
  });
  if (durable_epoch() >= epoch) return Status::OK();
  if (!advancer_error_.ok()) return advancer_error_;
  return Status::Internal("log manager shut down while waiting for epoch");
}

Epoch LogManager::CurrentEpoch() const {
  std::lock_guard<std::mutex> issue(issue_mu_);
  return open_epoch_;
}

void LogManager::AdvancerLoop() {
  const auto interval =
      std::chrono::microseconds(options_.group_commit_interval_us);
  while (true) {
    {
      std::unique_lock<std::mutex> watermark(watermark_mu_);
      watermark_cv_.wait_for(watermark, interval,
                             [&] { return stop_advancer_; });
      if (stop_advancer_) return;
    }
    Status s;
    {
      std::lock_guard<std::mutex> commit(commit_mu_);
      s = GroupCommitLocked();
    }
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> watermark(watermark_mu_);
        advancer_error_ = s;
      }
      watermark_cv_.notify_all();
    }
  }
}

Status LogManager::SealLocked(Epoch sealed_epoch) {
  std::string sealed;
  LLB_RETURN_IF_ERROR(writer_.Force(&sealed));
  if (last_appended_ != kInvalidLsn) durable_lsn_ = last_appended_;
  if (!sealed.empty()) {
    SealedSegment segment;
    segment.seq = ++seal_seq_;
    segment.epoch = sealed_epoch;
    segment.first_lsn = seal_first_lsn_;
    segment.last_lsn = last_appended_;
    segment.bytes = std::move(sealed);
    seal_first_lsn_ = kInvalidLsn;
    if (seal_observer_) seal_observer_(segment);
  }
  return Status::OK();
}

void LogManager::SetSealObserver(SealObserver observer) {
  std::lock_guard<std::mutex> lock(mu_);
  seal_observer_ = std::move(observer);
}

Lsn LogManager::InstallSealObserver(SealObserver observer) {
  // Seals happen under mu_, so swapping the observer under mu_ and
  // reading durable_lsn_ in the same critical section gives the caller
  // an exact cut: LSNs <= the returned value were sealed before the new
  // observer existed, anything later will fire it.
  std::lock_guard<std::mutex> lock(mu_);
  seal_observer_ = std::move(observer);
  return durable_lsn_;
}

Status LogManager::AppendSealed(const SealedSegment& segment,
                                std::vector<LogRecord>* records_out) {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn next;
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    next = next_lsn_;
  }
  if (segment.epoch != kInvalidEpoch &&
      segment.epoch <= last_ingested_epoch_) {
    // Duplicate epoch replay: idempotent iff everything it carries is
    // already ingested; a stale epoch must not introduce unseen records.
    if (segment.first_lsn == kInvalidLsn ||
        (segment.last_lsn != kInvalidLsn && segment.last_lsn < next)) {
      return Status::OK();
    }
    return Status::InvalidArgument(
        "sealed segment replays epoch " + std::to_string(segment.epoch) +
        " with records beyond next_lsn " + std::to_string(next));
  }
  if (segment.first_lsn == kInvalidLsn && segment.bytes.empty()) {
    // An idle epoch published with no records: nothing to buffer, just
    // advance the (epoch, LSN) merge bookkeeping.
    if (segment.epoch != kInvalidEpoch) last_ingested_epoch_ = segment.epoch;
    return Status::OK();
  }
  if (segment.first_lsn != next) {
    return Status::InvalidArgument(
        "sealed segment not contiguous: first_lsn " +
        std::to_string(segment.first_lsn) + " != next_lsn " +
        std::to_string(next));
  }
  // Validate before buffering: framing + CRC, and LSNs dense over
  // [first_lsn, last_lsn]. A torn or rotten segment is rejected whole.
  std::vector<LogRecord> records;
  Slice cursor(segment.bytes);
  Lsn expect = segment.first_lsn;
  while (!cursor.empty()) {
    LogRecord rec;
    Status s = LogRecord::DecodeFrom(&cursor, &rec);
    if (!s.ok()) return Status::Corruption("sealed segment: " + s.ToString());
    if (rec.lsn != expect) {
      return Status::Corruption("sealed segment LSNs not dense");
    }
    ++expect;
    records.push_back(std::move(rec));
  }
  if (records.empty() || records.back().lsn != segment.last_lsn) {
    return Status::Corruption("sealed segment does not end at last_lsn");
  }
  writer_.AddRaw(Slice(segment.bytes));
  if (seal_first_lsn_ == kInvalidLsn) seal_first_lsn_ = segment.first_lsn;
  for (const LogRecord& rec : records) {
    size_t encoded = rec.EncodedSize();
    ++stats_.records;
    stats_.bytes += encoded;
    if (rec.IsIdentityWrite()) {
      ++stats_.identity_records;
      stats_.identity_bytes += encoded;
    }
  }
  {
    std::lock_guard<std::mutex> issue(issue_mu_);
    next_lsn_ = segment.last_lsn + 1;
  }
  last_appended_ = segment.last_lsn;
  if (segment.epoch != kInvalidEpoch) last_ingested_epoch_ = segment.epoch;
  if (records_out != nullptr) {
    for (LogRecord& rec : records) records_out->push_back(std::move(rec));
  }
  return Status::OK();
}

Epoch LogManager::last_ingested_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_ingested_epoch_;
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> issue(issue_mu_);
  return next_lsn_;
}

Lsn LogManager::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

Status LogManager::Scan(
    Lsn start_lsn, const std::function<Status(const LogRecord&)>& fn) const {
  // Readers take their own snapshot of the durable contents; no lock held
  // during the scan so recovery can read while nothing else is running and
  // benches can scan concurrently with appends (they see a prefix).
  LogReader reader(file_);
  LLB_RETURN_IF_ERROR(reader.Init());
  LogRecord rec;
  while (reader.Next(&rec)) {
    if (rec.lsn < start_lsn) continue;
    LLB_RETURN_IF_ERROR(fn(rec));
  }
  return Status::OK();
}

LogStats LogManager::stats() const {
  LogStats total;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total = stats_;
  }
  // Channel mutexes rank above mu_, so they are read after releasing it.
  for (const auto& channel : channels_) {
    LogChannel::Counters c = channel->ReadCounters(/*reset=*/false);
    total.records += c.records;
    total.bytes += c.bytes;
    total.identity_records += c.identity_records;
    total.identity_bytes += c.identity_bytes;
  }
  return total;
}

void LogManager::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = LogStats{};
  }
  for (const auto& channel : channels_) channel->ReadCounters(/*reset=*/true);
}

Status LogManager::TruncatePrefix(Lsn keep_from) {
  {
    // Drain the channels through a full group commit first so the file
    // rewrite below sees every buffered record.
    std::lock_guard<std::mutex> commit(commit_mu_);
    LLB_RETURN_IF_ERROR(GroupCommitLocked());
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Flush buffered records first so the rewrite sees everything. Routed
  // through SealLocked so records sealed by this internal force still
  // reach the seal observer (a shipper must not lose them).
  LLB_RETURN_IF_ERROR(SealLocked(kInvalidEpoch));

  LLB_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  std::string contents;
  LLB_RETURN_IF_ERROR(file_->ReadAt(0, size, &contents));

  std::string kept;
  Slice cursor(contents);
  LogRecord rec;
  while (!cursor.empty()) {
    const char* record_start = cursor.data();
    size_t before = cursor.size();
    if (!LogRecord::DecodeFrom(&cursor, &rec).ok()) break;
    if (rec.lsn >= keep_from) {
      kept.append(record_start, before - cursor.size());
    }
  }
  LLB_RETURN_IF_ERROR(file_->Truncate(0));
  LLB_RETURN_IF_ERROR(file_->WriteAt(0, Slice(kept)));
  return file_->Sync();
}

}  // namespace llb
