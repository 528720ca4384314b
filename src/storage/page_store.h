#ifndef LLB_STORAGE_PAGE_STORE_H_
#define LLB_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "io/env.h"
#include "io/uring_env.h"
#include "storage/page.h"

namespace llb {

/// A durable, partitioned page store. Used both for the stable database S
/// and for backup databases B (a backup is just a stable database — paper
/// section 1, "a backup is a stable database").
///
/// Guarantees:
///  * single-page writes are atomic and durable on return (write + sync),
///    the paper's "I/O page atomicity" assumption;
///  * `WriteBatchAtomic` writes a set of pages atomically with respect to
///    crashes, via a shadow journal: either all pages of the batch are in
///    the store after recovery, or none are. This is what lets the cache
///    manager atomically flush a multi-object vars(n) set (paper 2.4);
///  * pages never written read back as all-zero images with LSN 0.
///
/// Thread-safe: reads/writes are serialized by a per-partition mutex, so
/// a concurrent backup sweep sees each page either entirely before or
/// entirely after any write ("coordination ... occurs at the disk arm",
/// paper 1.2) — while sweeps of DIFFERENT partitions proceed fully in
/// parallel, which is what makes a multi-threaded partitioned backup
/// faster than a serial one. WriteBatchAtomic additionally serializes on
/// a store-wide journal mutex (lock order: journal, then partition;
/// nothing acquires the journal mutex while holding a partition mutex).
class PageStore {
 public:
  struct Entry {
    PageId id;
    PageImage image;
  };

  /// Opens (creating if absent) a store of `num_partitions` partitions
  /// under the given file-name prefix, and replays any committed shadow
  /// journal left by a crash mid-batch.
  static Result<std::unique_ptr<PageStore>> Open(Env* env,
                                                 const std::string& prefix,
                                                 uint32_t num_partitions);

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Reads a page and verifies its checksum.
  Status ReadPage(const PageId& id, PageImage* out) const;

  /// Atomically and durably writes one page (seals the image first).
  Status WritePage(const PageId& id, const PageImage& image);

  /// Reads `count` contiguous pages [first_page, first_page + count) of
  /// one partition with a single device read under a single latch
  /// acquisition, verifying every page's checksum. The batch-oriented
  /// read half of the backup sweep: one mutex round trip and one IO per
  /// run instead of per page.
  Status ReadRun(PartitionId partition, uint32_t first_page, uint32_t count,
                 std::vector<PageImage>* out) const;

  /// Durably writes `images` to the `images.size()` contiguous page slots
  /// starting at first_page, as one vectored device write followed by one
  /// sync, under a single latch acquisition. The images must already
  /// carry valid checksums (e.g. they came from ReadRun of another
  /// store): they are written raw, without the per-page re-seal
  /// WritePage performs — an identity copy of sealed bytes stays sealed.
  /// Crash atomicity is the sync: the whole run becomes durable at the
  /// final Sync or, after a crash before it, none of it does.
  Status WriteSealedRun(PartitionId partition, uint32_t first_page,
                        const std::vector<PageImage>& images);

  /// Atomically (w.r.t. crash) writes all entries. Order of persistence is
  /// all-or-nothing even across partitions.
  Status WriteBatchAtomic(const std::vector<Entry>& entries);

  /// One finished asynchronous run. Reads carry the checksum-verified
  /// images; write results leave `images` empty.
  struct AsyncRunResult {
    uint64_t tag = 0;
    Status status;
    std::vector<PageImage> images;
  };

  /// Deep-queue read half of the bulk mover: up to queue_depth run reads
  /// in flight at once (across partitions), each an optimistic unlatched
  /// vectored read through the env's async backend (Env::OpenAsync — an
  /// io_uring on capable kernels, the portable thread pool elsewhere).
  /// Checksums are verified at reap; a failure there is re-read once
  /// under the partition latch with the synchronous ReadRun, which
  /// separates a torn optimistic read (the retry succeeds — a writer was
  /// mid-run) from real media corruption (the retry fails too, and that
  /// error is what propagates).
  ///
  /// Not thread-safe: each sweep worker owns its own reader.
  class AsyncRunReader {
   public:
    ~AsyncRunReader();

    AsyncRunReader(const AsyncRunReader&) = delete;
    AsyncRunReader& operator=(const AsyncRunReader&) = delete;

    /// Enqueues a read of `count` pages [first_page, first_page + count)
    /// of one partition. Fails (without enqueueing) when queue_depth
    /// reads are already in flight — reap first.
    Status SubmitRead(PartitionId partition, uint32_t first_page,
                      uint32_t count, uint64_t tag);

    /// Blocks until every submitted read finishes and appends one result
    /// per read, in completion order — match by tag. Per-run errors live
    /// in the results; the returned Status covers the reap machinery.
    Status ReapAll(std::vector<AsyncRunResult>* out);

    size_t in_flight() const { return in_flight_; }
    uint32_t queue_depth() const { return depth_; }
    /// Runs re-read under the latch after a checksum miss at reap, over
    /// this reader's lifetime (TransferStats::checksum_rereads).
    uint64_t checksum_rereads() const { return checksum_rereads_; }
    /// Backend of the first open channel ("io_uring" / "thread-pool"),
    /// "none" before the first submit.
    const char* backend() const;

   private:
    friend class PageStore;

    struct PendingRead {
      PartitionId partition = 0;
      uint32_t first_page = 0;
      uint64_t tag = 0;
      std::vector<std::string> pages;  // scatter targets, one per page
    };

    AsyncRunReader(const PageStore* store, uint32_t queue_depth,
                   uint32_t streams);
    Result<AsyncFile*> Channel(PartitionId partition);

    const PageStore* const store_;
    const uint32_t depth_;
    const uint32_t streams_;
    // slots_ owns the read buffers and is declared before channels_ on
    // purpose: members destroy in reverse order, so the channels (whose
    // destructors drain in-flight reads into those buffers) go away
    // first. Slots [0, in_flight_) are in flight; a slot's index is its
    // async op tag. ReapAll drains every slot, so they refill from 0.
    std::vector<PendingRead> slots_;
    size_t in_flight_ = 0;
    uint64_t checksum_rereads_ = 0;
    std::vector<std::shared_ptr<AsyncFile>> channels_;  // per partition
  };

  /// One run of already-sealed images for AsyncRunWriter::WriteWindow.
  /// `images` stays caller-owned and must outlive the call.
  struct SealedRunWrite {
    PartitionId partition = 0;
    uint32_t first_page = 0;
    const std::vector<PageImage>* images = nullptr;
    uint64_t tag = 0;
  };

  /// Deep-queue write half: moves a window of sealed runs with up to
  /// queue_depth writes in flight, then one durability barrier per
  /// touched partition (N writes : 1 sync, like WriteSealedRun's batch
  /// economics but across runs). The window latches every partition it
  /// touches for its whole duration — acquired in ascending partition
  /// order, so concurrent writers cannot deadlock — which preserves the
  /// no-torn-reads guarantee ReadPage relies on.
  ///
  /// Not thread-safe: each sweep worker owns its own writer.
  class AsyncRunWriter {
   public:
    ~AsyncRunWriter();

    AsyncRunWriter(const AsyncRunWriter&) = delete;
    AsyncRunWriter& operator=(const AsyncRunWriter&) = delete;

    /// Executes one window: submit every run, reap, sync touched
    /// partitions once each. Appends one result per run; a run is
    /// durable only when its own status and the returned (sync-covering)
    /// Status are both OK.
    Status WriteWindow(const std::vector<SealedRunWrite>& runs,
                       std::vector<AsyncRunResult>* results);

    uint32_t queue_depth() const { return depth_; }
    const char* backend() const;

   private:
    friend class PageStore;

    AsyncRunWriter(PageStore* store, uint32_t queue_depth, uint32_t streams);
    Result<AsyncFile*> Channel(PartitionId partition);

    PageStore* const store_;
    const uint32_t depth_;
    const uint32_t streams_;
    std::vector<std::shared_ptr<AsyncFile>> channels_;  // per partition
  };

  /// Creates a deep-queue reader/writer over this store's partitions.
  /// Channels open lazily on first touch, via env->OpenAsync; `streams`
  /// is AsyncIoOptions::streams (readers/writers running at once).
  std::unique_ptr<AsyncRunReader> NewAsyncReader(uint32_t queue_depth,
                                                 uint32_t streams = 1) const;
  std::unique_ptr<AsyncRunWriter> NewAsyncWriter(uint32_t queue_depth,
                                                 uint32_t streams = 1);

  /// Number of pages ever written in the partition (file size based).
  Result<uint32_t> PageCount(PartitionId partition) const;

  uint32_t num_partitions() const { return num_partitions_; }

  /// Destroys all data in one partition (simulated media failure).
  Status WipePartition(PartitionId partition);

  /// Overwrites one page with garbage bytes, leaving a checksum mismatch
  /// (simulated partial media corruption).
  Status CorruptPage(const PageId& id);

  /// Copies every page of `src` into this store (used by restore-from-
  /// backup: "restoring S by copying B", paper section 1). `pages_hint`
  /// bounds the per-partition page range to copy.
  Status CopyAllFrom(const PageStore& src, uint32_t pages_per_partition);

 private:
  PageStore(Env* env, std::string prefix, uint32_t num_partitions)
      : env_(env), prefix_(std::move(prefix)), num_partitions_(num_partitions) {}

  Status OpenFiles();
  Status RecoverJournal();
  /// Callers hold the partition's mutex.
  Status WritePageLocked(const PageId& id, const PageImage& sealed);
  Status ReadPageLocked(const PageId& id, PageImage* out) const;

  std::mutex& PartitionMutex(PartitionId partition) const {
    return *partition_mu_[partition];
  }

  Env* const env_;
  const std::string prefix_;
  const uint32_t num_partitions_;

  /// One latch per partition: concurrent sweeps of different partitions
  /// never contend (paper 3.4 — a backup latch per partition).
  mutable std::vector<std::unique_ptr<std::mutex>> partition_mu_;
  /// Serializes multi-page atomic batches (they own the shadow journal).
  /// Lock order: journal_mu_ before any partition mutex.
  mutable std::mutex journal_mu_;
  std::vector<std::shared_ptr<File>> partition_files_;
  std::shared_ptr<File> journal_;
};

}  // namespace llb

#endif  // LLB_STORAGE_PAGE_STORE_H_
