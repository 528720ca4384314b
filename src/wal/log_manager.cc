#include "wal/log_manager.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>

namespace llb {

namespace {

constexpr size_t kLsnDigits = 20;

std::string SealedName(const std::string& name, Lsn first_lsn) {
  std::string digits = std::to_string(first_lsn);
  return name + "." + std::string(kLsnDigits - digits.size(), '0') + digits;
}

/// First and last LSN of a log file's valid records (kInvalidLsn when it
/// holds none) and the bytes they span.
struct RecordRange {
  Lsn first = kInvalidLsn;
  Lsn last = kInvalidLsn;
  uint64_t valid_bytes = 0;
};

Result<RecordRange> ReadRecordRange(std::shared_ptr<File> file) {
  RecordRange range;
  LogReader reader(std::move(file));
  LLB_RETURN_IF_ERROR(reader.Init());
  LogRecord rec;
  while (reader.Next(&rec)) {
    if (range.first == kInvalidLsn) range.first = rec.lsn;
    range.last = rec.lsn;
  }
  LLB_RETURN_IF_ERROR(reader.status());
  range.valid_bytes = reader.valid_bytes();
  return range;
}

}  // namespace

Result<std::unique_ptr<LogManager>> LogManager::Open(Env* env,
                                                     const std::string& name) {
  // Sealed files are "<name>.<20 digits>"; the digits are the first LSN.
  const std::string prefix = name + ".";
  std::vector<LogFile> files;
  for (const std::string& file_name : env->ListFiles()) {
    if (file_name.size() != prefix.size() + kLsnDigits ||
        file_name.compare(0, prefix.size(), prefix) != 0 ||
        file_name.find_first_not_of("0123456789", prefix.size()) !=
            std::string::npos) {
      continue;
    }
    LogFile sealed;
    sealed.name = file_name;
    sealed.first_lsn =
        std::strtoull(file_name.c_str() + prefix.size(), nullptr, 10);
    sealed.sealed = true;
    LLB_ASSIGN_OR_RETURN(sealed.file, env->OpenFile(file_name, false));
    LLB_ASSIGN_OR_RETURN(sealed.bytes, sealed.file->Size());
    files.push_back(std::move(sealed));
  }
  std::sort(files.begin(), files.end(), [](const LogFile& a, const LogFile& b) {
    return a.first_lsn < b.first_lsn;
  });

  LogFile active;
  active.name = name;
  LLB_ASSIGN_OR_RETURN(active.file, env->OpenFile(name, /*create=*/true));
  LLB_ASSIGN_OR_RETURN(RecordRange range, ReadRecordRange(active.file));
  if (range.first != kInvalidLsn) {
    active.first_lsn = range.first;
  } else if (!files.empty()) {
    // Empty after a roll: the newest sealed file says where LSNs go on
    // (an empty one is an anchor, whose name does).
    LLB_ASSIGN_OR_RETURN(RecordRange newest,
                         ReadRecordRange(files.back().file));
    active.first_lsn = newest.last != kInvalidLsn ? newest.last + 1
                                                  : files.back().first_lsn;
  } else {
    active.first_lsn = 1;
  }
  const Lsn next = range.last != kInvalidLsn ? range.last + 1
                                             : active.first_lsn;
  // A torn tail never reached a successful sync; cut it so appends
  // continue right after the last valid record.
  LLB_ASSIGN_OR_RETURN(active.bytes, active.file->Size());
  if (range.valid_bytes < active.bytes) {
    LLB_RETURN_IF_ERROR(active.file->Truncate(range.valid_bytes));
    active.bytes = range.valid_bytes;
  }
  files.push_back(std::move(active));
  return std::unique_ptr<LogManager>(
      new LogManager(env, name, std::move(files), next));
}

LogManager::LogManager(Env* env, std::string name, std::vector<LogFile> files,
                       Lsn next_lsn)
    : env_(env),
      name_(std::move(name)),
      files_(std::move(files)),
      writer_(files_.back().file, files_.back().bytes),
      durable_lsn_(next_lsn - 1),
      next_lsn_(next_lsn) {}

Lsn LogManager::Append(LogRecord* record, Epoch* epoch_out) {
  // Issuance and buffering under one mutex keep the buffer in LSN order,
  // and a group commit that closes epoch E finds every record issued in
  // an epoch <= E fully buffered.
  std::lock_guard<std::mutex> append(append_mu_);
  record->lsn = next_lsn_++;
  if (epoch_out != nullptr) *epoch_out = open_epoch_;
  const size_t before = buffer_.size();
  record->EncodeTo(&buffer_);
  const size_t size = buffer_.size() - before;
  ++appended_.records;
  appended_.bytes += size;
  if (record->IsIdentityWrite()) {
    ++appended_.identity_records;
    appended_.identity_bytes += size;
  }
  return record->lsn;
}

Status LogManager::Force() {
  std::lock_guard<std::mutex> commit(commit_mu_);
  return GroupCommitLocked();
}

Status LogManager::GroupCommitLocked(bool roll) {
  // Close the open epoch and cut the buffer: the records before the cut
  // are exactly those issued in an epoch <= sealed, up to `tail`.
  Epoch sealed;
  Lsn tail;
  size_t cut;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    sealed = open_epoch_++;
    tail = next_lsn_ - 1;
    cut = buffer_.size();
  }
  // Before taking the prefix: a failing barrier leaves every record
  // buffered for the next commit, whose later cut covers it too.
  if (commit_barrier_) LLB_RETURN_IF_ERROR(commit_barrier_());
  if (cut > 0) {
    std::lock_guard<std::mutex> append(append_mu_);
    if (buffer_.size() == cut) {
      commit_bytes_.swap(buffer_);
    } else {
      commit_bytes_.assign(buffer_, 0, cut);
      buffer_.erase(0, cut);
    }
  }

  std::unique_lock<std::mutex> lock(mu_);
  if (cut > 0) {
    writer_.AddRaw(&commit_bytes_);
    if (seal_first_lsn_ == kInvalidLsn) {
      seal_first_lsn_ =
          (last_appended_ != kInvalidLsn ? last_appended_ : durable_lsn()) + 1;
    }
    last_appended_ = tail;
  }
  LLB_RETURN_IF_ERROR(SealLocked(sealed));
  ++group_commits_;
  if (roll ? writer_.file_bytes() > 0 : writer_.file_bytes() >= kLogRollBytes) {
    LLB_RETURN_IF_ERROR(RollLocked());
  }
  lock.unlock();
  durable_epoch_.store(sealed, std::memory_order_release);
  return Status::OK();
}

Status LogManager::WaitEpochDurable(Epoch epoch) {
  if (epoch == kInvalidEpoch) return Status::OK();
  if (durable_epoch() >= epoch) return Status::OK();
  // Lead a commit, or piggyback if a concurrent leader already published
  // our epoch while we queued on the commit lock.
  std::lock_guard<std::mutex> commit(commit_mu_);
  if (durable_epoch() >= epoch) return Status::OK();
  return GroupCommitLocked();
}

Epoch LogManager::CurrentEpoch() const {
  std::lock_guard<std::mutex> append(append_mu_);
  return open_epoch_;
}

Status LogManager::WaitLsnDurable(Lsn lsn) {
  if (lsn <= durable_lsn()) return Status::OK();
  return WaitEpochDurable(CurrentEpoch());
}

Status LogManager::SealLocked(Epoch sealed_epoch) {
  if (files_.back().sealed) LLB_RETURN_IF_ERROR(OpenActiveLocked());
  std::string sealed;
  LLB_RETURN_IF_ERROR(writer_.Force(&sealed));
  if (last_appended_ != kInvalidLsn) {
    durable_lsn_.store(last_appended_, std::memory_order_release);
  }
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

Status LogManager::RollLocked() {
  const Lsn first = files_.back().first_lsn;
  const std::string sealed_name = SealedName(name_, first);
  LLB_RETURN_IF_ERROR(env_->RenameFile(name_, sealed_name));
  if (files_.size() >= 2 && files_[files_.size() - 2].first_lsn == first) {
    // The rename replaced the anchor a full truncation left under this
    // very name.
    files_.erase(files_.end() - 2);
  }
  LogFile& rolled = files_.back();
  rolled.name = sealed_name;
  rolled.sealed = true;
  rolled.bytes = writer_.file_bytes();
  // Reopened under its new name so readers' handles carry it; the old
  // handle reads the same file if that fails.
  Result<std::shared_ptr<File>> reopened = env_->OpenFile(sealed_name, false);
  if (reopened.ok()) rolled.file = std::move(reopened).value();
  return OpenActiveLocked();
}

Status LogManager::OpenActiveLocked() {
  LogFile active;
  active.name = name_;
  active.first_lsn = durable_lsn() + 1;
  LLB_ASSIGN_OR_RETURN(active.file, env_->OpenFile(name_, /*create=*/true));
  writer_.SetFile(active.file);
  files_.push_back(std::move(active));
  return Status::OK();
}

void LogManager::SetCommitBarrier(CommitBarrier barrier) {
  std::lock_guard<std::mutex> commit(commit_mu_);
  commit_barrier_ = std::move(barrier);
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
  return durable_lsn();
}

Status LogManager::AppendSealed(const SealedSegment& segment,
                                std::vector<LogRecord>* records_out) {
  std::lock_guard<std::mutex> append(append_mu_);
  const Lsn next = next_lsn_;
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
  buffer_.append(segment.bytes);
  for (const LogRecord& rec : records) {
    size_t encoded = rec.EncodedSize();
    ++appended_.records;
    appended_.bytes += encoded;
    if (rec.IsIdentityWrite()) {
      ++appended_.identity_records;
      appended_.identity_bytes += encoded;
    }
  }
  next_lsn_ = segment.last_lsn + 1;
  if (segment.epoch != kInvalidEpoch) last_ingested_epoch_ = segment.epoch;
  if (records_out != nullptr) {
    for (LogRecord& rec : records) records_out->push_back(std::move(rec));
  }
  return Status::OK();
}

Epoch LogManager::last_ingested_epoch() const {
  std::lock_guard<std::mutex> append(append_mu_);
  return last_ingested_epoch_;
}

Lsn LogManager::next_lsn() const {
  std::lock_guard<std::mutex> append(append_mu_);
  return next_lsn_;
}

Status LogManager::Scan(
    Lsn start_lsn, const std::function<Status(const LogRecord&)>& fn) const {
  // Snapshot the files under mu_, then read without it: the snapshot's
  // handles stay readable across a concurrent roll or unlink, and benches
  // can scan concurrently with appends (they see a prefix).
  std::vector<std::shared_ptr<File>> files;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < files_.size(); ++i) {
      // A file whose successor starts at or below start_lsn lies wholly
      // below it.
      if (i + 1 < files_.size() && files_[i + 1].first_lsn <= start_lsn) {
        continue;
      }
      files.push_back(files_[i].file);
    }
  }
  LogReader reader(std::move(files));
  LLB_RETURN_IF_ERROR(reader.Init());
  LogRecord rec;
  while (reader.Next(&rec)) {
    if (rec.lsn < start_lsn) continue;
    LLB_RETURN_IF_ERROR(fn(rec));
  }
  return reader.status();
}

std::vector<LogFileInfo> LogManager::Files() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<LogFileInfo> files(files_.begin(), files_.end());
  if (!files_.back().sealed) files.back().bytes = writer_.file_bytes();
  return files;
}

LogStats LogManager::stats() const {
  LogStats total;
  {
    std::lock_guard<std::mutex> append(append_mu_);
    total = appended_;
  }
  std::lock_guard<std::mutex> lock(mu_);
  total.forces = group_commits_;
  total.group_commits = group_commits_;
  return total;
}

void LogManager::ResetStats() {
  {
    std::lock_guard<std::mutex> append(append_mu_);
    appended_ = LogStats{};
  }
  std::lock_guard<std::mutex> lock(mu_);
  group_commits_ = 0;
}

Status LogManager::TruncateAfter(Lsn last) {
  // Declared first so the unlinked files' memory (MemEnv) is freed after
  // both log locks are released.
  std::vector<LogFile> doomed;
  std::lock_guard<std::mutex> commit(commit_mu_);
  {
    std::lock_guard<std::mutex> append(append_mu_);
    if (next_lsn_ <= last + 1) return Status::OK();
    if (!buffer_.empty() || durable_lsn() + 1 != next_lsn_) {
      return Status::FailedPrecondition("log tail cut past the durable LSN");
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (files_.front().first_lsn > last + 1) {
      return Status::FailedPrecondition("log tail cut below the log's start");
    }
    // Newest first, each step durable before the next: a crash part-way
    // leaves a contiguous run of files with a shorter tail, which a rerun
    // cuts. The active file is emptied; a sealed file wholly after the
    // cut is unlinked, unless it is the oldest, which is emptied and
    // stays as the anchor naming the next LSN; the file holding `last`
    // is cut after it.
    for (size_t i = files_.size(); i-- > 0;) {
      LogFile& file = files_[i];
      const bool cut_is_older = file.first_lsn > last + 1;
      if (file.sealed && file.first_lsn > last && i > 0) {
        LLB_RETURN_IF_ERROR(env_->DeleteFile(file.name));
        doomed.push_back(std::move(file));
        files_.erase(files_.begin() + i);
        continue;
      }
      uint64_t keep = 0;
      if (file.first_lsn <= last) {
        LogReader reader(file.file);
        LLB_RETURN_IF_ERROR(reader.Init());
        LogRecord rec;
        while (reader.Next(&rec) && rec.lsn <= last) keep = reader.valid_bytes();
        LLB_RETURN_IF_ERROR(reader.status());
      }
      LLB_ASSIGN_OR_RETURN(uint64_t size, file.file->Size());
      if (keep < size) {
        LLB_RETURN_IF_ERROR(file.file->Truncate(keep));
        LLB_RETURN_IF_ERROR(file.file->Sync());
      }
      file.bytes = keep;
      if (!file.sealed) {
        writer_.SetFile(file.file, keep);
        if (keep == 0) file.first_lsn = last + 1;
      }
      if (!cut_is_older) break;
    }
    durable_lsn_.store(last, std::memory_order_release);
    last_appended_ = last;
    seal_first_lsn_ = kInvalidLsn;
  }
  std::lock_guard<std::mutex> append(append_mu_);
  next_lsn_ = last + 1;
  return Status::OK();
}

Status LogManager::TruncatePrefix(Lsn keep_from) {
  // Holding the doomed handles until after the unlinks frees the files'
  // memory (MemEnv) here, outside every env and log lock.
  std::vector<LogFile> doomed;
  {
    // The roll leaves the active file empty: everything logged from here
    // on lands in it, and everything before is in sealed files.
    std::lock_guard<std::mutex> commit(commit_mu_);
    LLB_RETURN_IF_ERROR(GroupCommitLocked(/*roll=*/true));
    std::lock_guard<std::mutex> lock(mu_);
    size_t drop = 0;
    while (drop + 1 < files_.size() && files_[drop + 1].first_lsn <= keep_from) {
      ++drop;
    }
    if (drop > 0 && drop == files_.size() - 1) {
      // Every sealed file would go while the active file is empty, and a
      // reopen would lose the next LSN. An anchor already there stays;
      // otherwise one is created before anything is unlinked.
      if (files_[drop - 1].bytes == 0) {
        --drop;
      } else {
        LogFile anchor;
        anchor.first_lsn = files_.back().first_lsn;
        anchor.name = SealedName(name_, anchor.first_lsn);
        anchor.sealed = true;
        LLB_ASSIGN_OR_RETURN(anchor.file,
                             env_->OpenFile(anchor.name, /*create=*/true));
        files_.insert(files_.end() - 1, std::move(anchor));
      }
    }
    doomed.assign(std::make_move_iterator(files_.begin()),
                  std::make_move_iterator(files_.begin() + drop));
    files_.erase(files_.begin(), files_.begin() + drop);
  }
  // Oldest first, stopping at the first failure: what is left is always
  // a contiguous run of files.
  for (const LogFile& file : doomed) {
    LLB_RETURN_IF_ERROR(env_->DeleteFile(file.name));
  }
  return Status::OK();
}

}  // namespace llb
