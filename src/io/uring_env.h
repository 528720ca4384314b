#ifndef LLB_IO_URING_ENV_H_
#define LLB_IO_URING_ENV_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "io/sweep_pool.h"

namespace llb {

/// The asynchronous deep-queue IO backend (ROADMAP "raw-speed IO
/// backend"). An AsyncFile exposes a batched submit/reap interface over
/// one engine file: up to queue_depth() operations may be in flight at
/// once, so a bulk sweep keeps the device queue deep instead of hiding
/// exactly one IO behind double buffering.
///
/// Two implementations, byte-identical in semantics and selected at
/// runtime by Env::OpenAsync:
///  * io_uring (NewUringAsyncFile) where the kernel grants it — a real
///    submission/completion ring over the raw fd, no IO threads at all;
///  * a portable submission-queue thread pool (NewThreadPoolAsyncFile)
///    everywhere else — ops dispatch to SweepThreadPool workers that run
///    the plain File calls, so MemEnv / LatencyEnv / FaultyEnv all gain
///    async semantics (and LatencyEnv's simulated device time genuinely
///    overlaps, since each in-flight op sleeps on its own worker).
///
/// Error contract: Submit* enqueues and never reports device errors —
/// a failed operation surfaces on Reap, in its completion's status
/// (tests/async_io_test.cc pins this). Submit itself fails only on
/// misuse: a full queue or an empty buffer.
///
/// Durability: like File::WriteAt, a reaped write is volatile until
/// Sync(). Sync drains every in-flight operation (their completions stay
/// reapable) and then issues one durability barrier, so N async writes
/// cost one sync instead of N.

/// One finished async operation, identified by the caller's tag.
/// (The AsyncIoOptions knobs live in io/env.h next to Env::OpenAsync.)
struct AsyncIoCompletion {
  uint64_t tag = 0;
  Status status;
};

class AsyncFile {
 public:
  virtual ~AsyncFile();

  AsyncFile(const AsyncFile&) = delete;
  AsyncFile& operator=(const AsyncFile&) = delete;

  /// Enqueues one read of the bytes at `offset` scattered across
  /// `chunks`, caller-owned buffers that must stay valid until the
  /// completion is reaped (the vector itself is copied at submit). Bytes
  /// past end of file read as zero (the never-written-page convention,
  /// matching File::ReadAtv).
  virtual Status SubmitReadAtv(uint64_t offset,
                               const std::vector<IoBuffer>& chunks,
                               uint64_t tag) = 0;

  /// Enqueues one write of the concatenated `chunks` at `offset`,
  /// extending the file if needed; the chunk bytes are caller-owned until
  /// reaped (the vector itself is copied at submit).
  ///
  /// Both directions are vectored so a run of page images moves with no
  /// gather/scatter copy on the thread-pool backend. The io_uring backend
  /// stages every op in its own kIoAlignment-aligned buffer (copy-in at
  /// submit, copy-out at completion), so aligned ops can ride the
  /// O_DIRECT fd and the ring never touches caller memory.
  virtual Status SubmitWriteAtv(uint64_t offset,
                                const std::vector<Slice>& chunks,
                                uint64_t tag) = 0;

  /// Blocks until at least min_completions operations have finished
  /// (clamped to the number in flight) and appends their completions to
  /// *out, freeing their queue slots. Completion order is not submission
  /// order — match by tag.
  virtual Status Reap(size_t min_completions,
                      std::vector<AsyncIoCompletion>* out) = 0;

  /// Drains all in-flight operations (their completions remain queued
  /// for Reap) and makes every reapable write durable.
  virtual Status Sync() = 0;

  virtual uint32_t queue_depth() const = 0;
  /// Operations submitted and not yet reaped.
  virtual size_t in_flight() const = 0;
  /// "io_uring" or "thread-pool" — surfaced by `dbtool env-caps`.
  virtual const char* backend() const = 0;

 protected:
  AsyncFile() = default;
};

/// True when this kernel lets us set up an io_uring (probed once; many
/// container seccomp policies return EPERM even on new kernels). The
/// LLB_NO_URING environment variable forces false, so the thread-pool
/// fallback is testable on uring-capable machines.
bool UringAvailable();

/// Portable fallback: async semantics over any File via a SweepThreadPool
/// whose workers run the synchronous calls. The pool is shared (the env
/// owns one for all its async files) and kept alive by the returned file.
/// A null `pool` makes every op complete inline on the submitting thread
/// (what Env::OpenAsync picks at queue_depth 1, where nothing overlaps).
std::shared_ptr<AsyncFile> NewThreadPoolAsyncFile(
    std::shared_ptr<File> file, uint32_t queue_depth,
    std::shared_ptr<SweepThreadPool> pool);

/// Native backend: an io_uring over `fd` (and, when >= 0, `direct_fd`
/// for operations whose offset and length are 4 KB-aligned on
/// O_DIRECT-capable files; the ring's own staging buffers are always
/// aligned, see MakeAlignedIoString).
/// `on_write_extent` is invoked with the end offset of each completed
/// write so the owning File can keep its cached size honest; `sync_fn`
/// supplies the durability barrier (the File's Sync). Fails if the
/// kernel refuses the ring — callers fall back to the thread pool.
Result<std::shared_ptr<AsyncFile>> NewUringAsyncFile(
    int fd, int direct_fd, uint32_t queue_depth,
    std::function<void(uint64_t)> on_write_extent,
    std::function<Status()> sync_fn);

/// IO buffer alignment required for O_DIRECT and for the uring backend's
/// direct-fd path.
inline constexpr size_t kIoAlignment = 4096;

/// A std::string whose data() is kIoAlignment-aligned (std::string has
/// no alignment guarantee, so the aligned storage is reserved explicitly
/// and the result views a suffix). Returned as the backing store plus an
/// aligned pointer/size view.
struct AlignedIoString {
  std::string storage;
  char* data = nullptr;
  size_t size = 0;
};
AlignedIoString MakeAlignedIoString(size_t size);

}  // namespace llb

#endif  // LLB_IO_URING_ENV_H_
