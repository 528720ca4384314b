#include "storage/page_store.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"

namespace llb {

namespace {
constexpr uint32_t kJournalMagic = 0x4C4C424Au;  // "LLBJ"
}  // namespace

Result<std::unique_ptr<PageStore>> PageStore::Open(Env* env,
                                                   const std::string& prefix,
                                                   uint32_t num_partitions) {
  if (num_partitions == 0) {
    return Status::InvalidArgument("page store needs >= 1 partition");
  }
  std::unique_ptr<PageStore> store(
      new PageStore(env, prefix, num_partitions));
  LLB_RETURN_IF_ERROR(store->OpenFiles());
  LLB_RETURN_IF_ERROR(store->RecoverJournal());
  return store;
}

Status PageStore::OpenFiles() {
  partition_files_.resize(num_partitions_);
  partition_mu_.resize(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    LLB_ASSIGN_OR_RETURN(
        partition_files_[p],
        env_->OpenFile(prefix_ + ".p" + std::to_string(p), /*create=*/true));
    partition_mu_[p] = std::make_unique<std::mutex>();
  }
  LLB_ASSIGN_OR_RETURN(journal_,
                       env_->OpenFile(prefix_ + ".journal", /*create=*/true));
  return Status::OK();
}

Status PageStore::RecoverJournal() {
  LLB_ASSIGN_OR_RETURN(uint64_t size, journal_->Size());
  if (size == 0) return Status::OK();
  std::string blob;
  LLB_RETURN_IF_ERROR(journal_->ReadAt(0, size, &blob));

  // Journal layout: magic(4) count(4) entries{partition(4) page(4)
  // image(kPageSize)}* crc(4). If the blob does not parse or the CRC is
  // wrong, the batch never committed: discard it.
  auto discard = [&]() -> Status {
    LLB_RETURN_IF_ERROR(journal_->Truncate(0));
    return journal_->Sync();
  };

  SliceReader reader{Slice(blob)};
  uint32_t magic = 0, count = 0;
  if (!reader.ReadFixed32(&magic) || magic != kJournalMagic ||
      !reader.ReadFixed32(&count)) {
    return discard();
  }
  std::vector<Entry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Entry e;
    Slice image;
    if (!reader.ReadFixed32(&e.id.partition) ||
        !reader.ReadFixed32(&e.id.page) ||
        !reader.ReadBytes(kPageSize, &image) ||
        e.id.partition >= num_partitions_) {
      return discard();
    }
    e.image = PageImage::FromRaw(image.ToString());
    entries.push_back(std::move(e));
  }
  uint32_t stored_crc = 0;
  if (!reader.ReadFixed32(&stored_crc) ||
      stored_crc !=
          crc32c::Value(blob.data(), blob.size() - reader.remaining() - 4)) {
    return discard();
  }

  // Committed: (re)apply all page writes, then clear the journal.
  // (Open-time, single-threaded; the partition locks are uncontended.)
  for (const Entry& e : entries) {
    std::lock_guard<std::mutex> lock(PartitionMutex(e.id.partition));
    LLB_RETURN_IF_ERROR(WritePageLocked(e.id, e.image));
  }
  return discard();
}

Status PageStore::ReadPage(const PageId& id, PageImage* out) const {
  if (id.partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  std::lock_guard<std::mutex> lock(PartitionMutex(id.partition));
  return ReadPageLocked(id, out);
}

Status PageStore::ReadPageLocked(const PageId& id, PageImage* out) const {
  std::string raw;
  LLB_RETURN_IF_ERROR(partition_files_[id.partition]->ReadAt(
      uint64_t{id.page} * kPageSize, kPageSize, &raw));
  *out = PageImage::FromRaw(std::move(raw));
  return out->VerifyChecksum();
}

Status PageStore::WritePage(const PageId& id, const PageImage& image) {
  if (id.partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  PageImage sealed = image;
  sealed.Seal();
  std::lock_guard<std::mutex> lock(PartitionMutex(id.partition));
  return WritePageLocked(id, sealed);
}

Status PageStore::WritePageLocked(const PageId& id, const PageImage& sealed) {
  File* file = partition_files_[id.partition].get();
  LLB_RETURN_IF_ERROR(
      file->WriteAt(uint64_t{id.page} * kPageSize, sealed.raw()));
  return file->Sync();
}

Status PageStore::ReadRun(PartitionId partition, uint32_t first_page,
                          uint32_t count, std::vector<PageImage>* out) const {
  if (partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  out->clear();
  if (count == 0) return Status::OK();
  // One vectored scatter read straight into per-page buffers: a single
  // device IO and no reassembly copies. ReadAtv zero-fills past the end
  // of the file — never-written all-zero pages, exactly as ReadPage
  // would report them.
  std::vector<std::string> buffers(count, std::string(kPageSize, '\0'));
  std::vector<IoBuffer> chunks(count);
  for (uint32_t i = 0; i < count; ++i) {
    chunks[i] = {buffers[i].data(), kPageSize};
  }
  {
    std::lock_guard<std::mutex> lock(PartitionMutex(partition));
    LLB_RETURN_IF_ERROR(partition_files_[partition]->ReadAtv(
        uint64_t{first_page} * kPageSize, chunks));
  }
  // Checksum verification happens outside the latch: it is pure CPU work
  // on private buffers, and keeping it out lets other partitions' IO in.
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    out->push_back(PageImage::FromRaw(std::move(buffers[i])));
    LLB_RETURN_IF_ERROR(out->back().VerifyChecksum());
  }
  return Status::OK();
}

Status PageStore::WriteSealedRun(PartitionId partition, uint32_t first_page,
                                 const std::vector<PageImage>& images) {
  if (partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  if (images.empty()) return Status::OK();
  std::vector<Slice> chunks;
  chunks.reserve(images.size());
  for (const PageImage& image : images) chunks.push_back(image.raw());
  std::lock_guard<std::mutex> lock(PartitionMutex(partition));
  File* file = partition_files_[partition].get();
  LLB_RETURN_IF_ERROR(
      file->WriteAtv(uint64_t{first_page} * kPageSize, chunks));
  return file->Sync();
}

PageStore::AsyncRunReader::AsyncRunReader(const PageStore* store,
                                          uint32_t queue_depth,
                                          uint32_t streams)
    : store_(store),
      depth_(std::max<uint32_t>(1, queue_depth)),
      streams_(streams),
      slots_(depth_) {
  channels_.resize(store_->num_partitions_);
}

PageStore::AsyncRunReader::~AsyncRunReader() {
  // Channel destructors drain any still-in-flight reads (the kernel may
  // hold our buffers); results are discarded.
  std::vector<AsyncRunResult> discard;
  if (in_flight_ != 0) ReapAll(&discard);
}

Result<AsyncFile*> PageStore::AsyncRunReader::Channel(PartitionId partition) {
  if (channels_[partition] == nullptr) {
    AsyncIoOptions options;
    options.queue_depth = depth_;
    options.streams = streams_;
    LLB_ASSIGN_OR_RETURN(
        channels_[partition],
        store_->env_->OpenAsync(
            store_->prefix_ + ".p" + std::to_string(partition),
            /*create=*/false, options));
  }
  return channels_[partition].get();
}

const char* PageStore::AsyncRunReader::backend() const {
  for (const std::shared_ptr<AsyncFile>& channel : channels_) {
    if (channel != nullptr) return channel->backend();
  }
  return "none";
}

Status PageStore::AsyncRunReader::SubmitRead(PartitionId partition,
                                             uint32_t first_page,
                                             uint32_t count, uint64_t tag) {
  if (partition >= store_->num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  if (count == 0) return Status::InvalidArgument("empty run read");
  if (in_flight_ >= depth_) {
    return Status::FailedPrecondition("async reader full: reap first");
  }
  LLB_ASSIGN_OR_RETURN(AsyncFile * channel, Channel(partition));
  // Scatter straight into per-page buffers, like ReadRun: no reassembly
  // copy at reap.
  PendingRead& read = slots_[in_flight_];
  read.partition = partition;
  read.first_page = first_page;
  read.tag = tag;
  read.pages.resize(count);
  std::vector<IoBuffer> chunks(count);
  for (uint32_t i = 0; i < count; ++i) {
    read.pages[i].assign(kPageSize, '\0');
    chunks[i] = IoBuffer{read.pages[i].data(), kPageSize};
  }
  LLB_RETURN_IF_ERROR(channel->SubmitReadAtv(uint64_t{first_page} * kPageSize,
                                             chunks, in_flight_));
  ++in_flight_;
  return Status::OK();
}

Status PageStore::AsyncRunReader::ReapAll(std::vector<AsyncRunResult>* out) {
  std::vector<AsyncIoCompletion> completions;
  for (const std::shared_ptr<AsyncFile>& channel : channels_) {
    if (channel == nullptr) continue;
    size_t in_flight = channel->in_flight();
    if (in_flight == 0) continue;
    LLB_RETURN_IF_ERROR(channel->Reap(in_flight, &completions));
  }
  for (AsyncIoCompletion& completion : completions) {
    if (completion.tag >= in_flight_) continue;  // cannot happen; defensive
    PendingRead& read = slots_[completion.tag];
    AsyncRunResult result;
    result.tag = read.tag;
    if (!completion.status.ok()) {
      // Device error: propagate as-is. No sync retry here — scripted
      // fault injection means this sweep must abort, not self-heal.
      result.status = std::move(completion.status);
    } else {
      const uint32_t count = static_cast<uint32_t>(read.pages.size());
      result.images.reserve(count);
      Status verify;
      for (uint32_t i = 0; i < count && verify.ok(); ++i) {
        result.images.push_back(PageImage::FromRaw(std::move(read.pages[i])));
        verify = result.images.back().VerifyChecksum();
      }
      if (!verify.ok()) {
        // A checksum failure on an optimistic unlatched read is usually a
        // torn read (a writer was mid-run). One latched synchronous
        // re-read settles it: success means torn, failure means the
        // corruption is really on the media.
        ++checksum_rereads_;
        result.images.clear();
        result.status = store_->ReadRun(read.partition, read.first_page,
                                        count, &result.images);
      }
    }
    out->push_back(std::move(result));
  }
  in_flight_ = 0;
  return Status::OK();
}

PageStore::AsyncRunWriter::AsyncRunWriter(PageStore* store,
                                          uint32_t queue_depth,
                                          uint32_t streams)
    : store_(store),
      depth_(std::max<uint32_t>(1, queue_depth)),
      streams_(streams) {
  channels_.resize(store_->num_partitions_);
}

PageStore::AsyncRunWriter::~AsyncRunWriter() = default;

Result<AsyncFile*> PageStore::AsyncRunWriter::Channel(PartitionId partition) {
  if (channels_[partition] == nullptr) {
    AsyncIoOptions options;
    options.queue_depth = depth_;
    options.streams = streams_;
    LLB_ASSIGN_OR_RETURN(
        channels_[partition],
        store_->env_->OpenAsync(
            store_->prefix_ + ".p" + std::to_string(partition),
            /*create=*/false, options));
  }
  return channels_[partition].get();
}

const char* PageStore::AsyncRunWriter::backend() const {
  for (const std::shared_ptr<AsyncFile>& channel : channels_) {
    if (channel != nullptr) return channel->backend();
  }
  return "none";
}

Status PageStore::AsyncRunWriter::WriteWindow(
    const std::vector<SealedRunWrite>& runs,
    std::vector<AsyncRunResult>* results) {
  if (runs.empty()) return Status::OK();
  std::vector<PartitionId> touched;
  for (const SealedRunWrite& run : runs) {
    if (run.partition >= store_->num_partitions_) {
      return Status::InvalidArgument("partition out of range");
    }
    if (run.images == nullptr || run.images->empty()) {
      return Status::InvalidArgument("empty run write");
    }
    touched.push_back(run.partition);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Latch every partition of the window, ascending — the whole window is
  // one critical section per partition, so readers never see a torn page
  // and concurrent writers (always a disjoint or identically-ordered
  // partition set) cannot deadlock.
  std::vector<std::unique_lock<std::mutex>> latches;
  latches.reserve(touched.size());
  for (PartitionId partition : touched) {
    latches.emplace_back(store_->PartitionMutex(partition));
  }

  // Submit all writes: each run's sealed images go down as one vectored
  // write. Every failure exit between the first submit and the last reap
  // goes through the drain below.
  std::vector<Status> statuses(runs.size());
  auto submit_and_reap = [&]() -> Status {
    for (size_t i = 0; i < runs.size(); ++i) {
      const SealedRunWrite& run = runs[i];
      LLB_ASSIGN_OR_RETURN(AsyncFile * channel, Channel(run.partition));
      std::vector<Slice> chunks;
      chunks.reserve(run.images->size());
      for (const PageImage& image : *run.images) chunks.push_back(image.raw());
      const uint64_t offset = uint64_t{run.first_page} * kPageSize;
      Status submitted = channel->SubmitWriteAtv(offset, chunks, i);
      if (!submitted.ok() && submitted.IsFailedPrecondition()) {
        // Channel momentarily full (window larger than one channel's
        // queue): absorb a round of completions and retry once.
        std::vector<AsyncIoCompletion> completions;
        LLB_RETURN_IF_ERROR(channel->Reap(1, &completions));
        for (AsyncIoCompletion& completion : completions) {
          statuses[completion.tag] = std::move(completion.status);
        }
        submitted = channel->SubmitWriteAtv(offset, chunks, i);
      }
      LLB_RETURN_IF_ERROR(submitted);
    }
    for (PartitionId partition : touched) {
      AsyncFile* channel = channels_[partition].get();
      if (channel == nullptr) continue;
      size_t in_flight = channel->in_flight();
      if (in_flight == 0) continue;
      std::vector<AsyncIoCompletion> completions;
      LLB_RETURN_IF_ERROR(channel->Reap(in_flight, &completions));
      for (AsyncIoCompletion& completion : completions) {
        statuses[completion.tag] = std::move(completion.status);
      }
    }
    return Status::OK();
  };
  Status window = submit_and_reap();
  if (!window.ok()) {
    // Drain every touched channel (discarding results) while the latches
    // are still held, so no write lands after the window has failed. A
    // channel that cannot be drained (ring enter failure) only ever
    // references its own bounce buffers, never the caller's images.
    for (PartitionId partition : touched) {
      AsyncFile* channel = channels_[partition].get();
      if (channel == nullptr) continue;
      while (channel->in_flight() > 0) {
        std::vector<AsyncIoCompletion> discard;
        if (!channel->Reap(channel->in_flight(), &discard).ok()) break;
      }
    }
    return window;
  }

  // Queues are empty: one durability barrier per touched partition.
  for (PartitionId partition : touched) {
    AsyncFile* channel = channels_[partition].get();
    if (channel == nullptr) continue;
    Status synced = channel->Sync();
    if (window.ok() && !synced.ok()) window = synced;
  }
  for (size_t i = 0; i < runs.size(); ++i) {
    AsyncRunResult result;
    result.tag = runs[i].tag;
    result.status = std::move(statuses[i]);
    results->push_back(std::move(result));
  }
  return window;
}

std::unique_ptr<PageStore::AsyncRunReader> PageStore::NewAsyncReader(
    uint32_t queue_depth, uint32_t streams) const {
  return std::unique_ptr<AsyncRunReader>(
      new AsyncRunReader(this, queue_depth, streams));
}

std::unique_ptr<PageStore::AsyncRunWriter> PageStore::NewAsyncWriter(
    uint32_t queue_depth, uint32_t streams) {
  return std::unique_ptr<AsyncRunWriter>(
      new AsyncRunWriter(this, queue_depth, streams));
}

Status PageStore::WriteBatchAtomic(const std::vector<Entry>& entries) {
  if (entries.empty()) return Status::OK();
  for (const Entry& e : entries) {
    if (e.id.partition >= num_partitions_) {
      return Status::InvalidArgument("partition out of range");
    }
  }
  if (entries.size() == 1) {
    PageImage sealed = entries[0].image;
    sealed.Seal();
    std::lock_guard<std::mutex> lock(PartitionMutex(entries[0].id.partition));
    return WritePageLocked(entries[0].id, sealed);
  }
  // Lock order: the journal mutex first, then partition mutexes one at a
  // time per page write. Batches serialize against each other on
  // journal_mu_ (they share the shadow journal file) but let sweep IO on
  // untouched partitions through.
  std::lock_guard<std::mutex> journal_lock(journal_mu_);

  std::vector<Entry> sealed;
  sealed.reserve(entries.size());
  for (const Entry& e : entries) {
    sealed.push_back(e);
    sealed.back().image.Seal();
  }

  // 1. Persist the shadow journal.
  std::string blob;
  PutFixed32(&blob, kJournalMagic);
  PutFixed32(&blob, static_cast<uint32_t>(sealed.size()));
  for (const Entry& e : sealed) {
    PutFixed32(&blob, e.id.partition);
    PutFixed32(&blob, e.id.page);
    blob.append(e.image.raw().data(), kPageSize);
  }
  PutFixed32(&blob, crc32c::Value(blob.data(), blob.size()));
  LLB_RETURN_IF_ERROR(journal_->Truncate(0));
  LLB_RETURN_IF_ERROR(journal_->WriteAt(0, Slice(blob)));
  LLB_RETURN_IF_ERROR(journal_->Sync());

  // 2. Apply the page writes (each durable; a crash here is repaired by
  //    journal replay at the next open).
  for (const Entry& e : sealed) {
    std::lock_guard<std::mutex> lock(PartitionMutex(e.id.partition));
    LLB_RETURN_IF_ERROR(WritePageLocked(e.id, e.image));
  }

  // 3. Retire the journal.
  LLB_RETURN_IF_ERROR(journal_->Truncate(0));
  return journal_->Sync();
}

Result<uint32_t> PageStore::PageCount(PartitionId partition) const {
  if (partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  std::lock_guard<std::mutex> lock(PartitionMutex(partition));
  LLB_ASSIGN_OR_RETURN(uint64_t size, partition_files_[partition]->Size());
  return static_cast<uint32_t>(size / kPageSize);
}

Status PageStore::WipePartition(PartitionId partition) {
  if (partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  std::lock_guard<std::mutex> lock(PartitionMutex(partition));
  LLB_RETURN_IF_ERROR(partition_files_[partition]->Truncate(0));
  return partition_files_[partition]->Sync();
}

Status PageStore::CorruptPage(const PageId& id) {
  if (id.partition >= num_partitions_) {
    return Status::InvalidArgument("partition out of range");
  }
  std::string junk(kPageSize, '\xDB');
  std::lock_guard<std::mutex> lock(PartitionMutex(id.partition));
  File* file = partition_files_[id.partition].get();
  LLB_RETURN_IF_ERROR(
      file->WriteAt(uint64_t{id.page} * kPageSize, Slice(junk)));
  return file->Sync();
}

Status PageStore::CopyAllFrom(const PageStore& src,
                              uint32_t pages_per_partition) {
  for (uint32_t p = 0; p < num_partitions_ && p < src.num_partitions(); ++p) {
    for (uint32_t page = 0; page < pages_per_partition; ++page) {
      PageId id{p, page};
      PageImage image;
      LLB_RETURN_IF_ERROR(src.ReadPage(id, &image));
      std::lock_guard<std::mutex> lock(PartitionMutex(p));
      LLB_RETURN_IF_ERROR(WritePageLocked(id, image));
    }
  }
  return Status::OK();
}

}  // namespace llb
