#ifndef LLB_IO_ENV_H_
#define LLB_IO_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace llb {

class AsyncFile;
class SweepThreadPool;

/// Knobs for Env::OpenAsync (the async deep-queue IO backend; see
/// io/uring_env.h for the AsyncFile contract).
struct AsyncIoOptions {
  /// Maximum operations in flight (submitted and not yet reaped).
  uint32_t queue_depth = 8;
  /// Streams that run at this depth at the same time (partition-sharded
  /// transfer workers). Sizes only the thread-pool fallback, which every
  /// async file of the env shares: it grows to queue_depth x streams
  /// workers (capped), so parallel streams do not queue behind one
  /// file's depth of threads.
  uint32_t streams = 1;
};

/// A caller-owned destination buffer for vectored reads.
struct IoBuffer {
  char* data = nullptr;
  size_t size = 0;
};

/// A random-access file. All engine IO (stable database, backup store,
/// recovery log) goes through this interface so that tests can interpose
/// deterministic crash/fault behavior.
///
/// Durability model: written data is volatile until Sync() succeeds.
/// A crash (Env::CrashAndRestart in the simulated env) discards all
/// unsynced data. There are no torn writes at sub-write granularity,
/// matching the paper's "I/O page atomicity" assumption: a write either
/// is entirely durable (it was followed by a successful Sync) or entirely
/// absent after a crash.
class File {
 public:
  virtual ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Reads up to n bytes at offset; appends the bytes actually available
  /// to *out (fewer than n at end of file).
  virtual Status ReadAt(uint64_t offset, size_t n, std::string* out) const = 0;

  /// Vectored scatter read: fills `chunks` (caller-owned buffers) back to
  /// back from `offset`, as one logical read operation. Bytes past the
  /// end of the file are zero-filled — the never-written-page convention
  /// ReadAt callers implement by hand. The base implementation loops over
  /// ReadAt; environments that can do better (a single buffer scan, a
  /// single preadv) override it, so batching callers get one device IO
  /// per run instead of one per page.
  virtual Status ReadAtv(uint64_t offset,
                         const std::vector<IoBuffer>& chunks) const;

  /// Writes data at offset, extending the file if needed.
  virtual Status WriteAt(uint64_t offset, Slice data) = 0;

  /// Vectored write: persists `chunks` back to back starting at `offset`,
  /// as one logical write operation. The base implementation loops over
  /// WriteAt; environments that can do better (a single buffer splice, a
  /// single writev) override it. Like WriteAt, the data is volatile until
  /// Sync() — batching callers pair one WriteAtv with one Sync to turn K
  /// per-page durability round trips into one.
  virtual Status WriteAtv(uint64_t offset, const std::vector<Slice>& chunks);

  /// Appends data at the current end of file.
  virtual Status Append(Slice data) = 0;

  /// Makes all previously written data durable.
  virtual Status Sync() = 0;

  virtual Result<uint64_t> Size() const = 0;

  virtual Status Truncate(uint64_t size) = 0;

 protected:
  File() = default;
};

/// Decides the fate of durability events (syncs). Used to schedule crashes
/// at precise points for recovery property tests.
class FaultInjector {
 public:
  virtual ~FaultInjector();
  /// Called before each durability event. Returning false makes the event
  /// (and all subsequent IO until restart) fail with IoError.
  virtual bool AllowDurableEvent() = 0;
};

/// Fails every durability event from the (count+1)-th onward.
class CountdownFaultInjector : public FaultInjector {
 public:
  explicit CountdownFaultInjector(uint64_t allowed) : remaining_(allowed) {}
  bool AllowDurableEvent() override {
    if (remaining_ == 0) return false;
    --remaining_;
    return true;
  }
  uint64_t remaining() const { return remaining_; }

 private:
  uint64_t remaining_;
};

/// File-system environment.
class Env {
 public:
  virtual ~Env();

  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;

  /// Opens (or creates, if create is true) a file. The returned file stays
  /// valid across CrashAndRestart (its contents revert to the durable
  /// image).
  virtual Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                                 bool create) = 0;

  virtual Status DeleteFile(const std::string& name) = 0;
  virtual bool FileExists(const std::string& name) const = 0;
  virtual std::vector<std::string> ListFiles() const = 0;

  /// Atomically replaces `dst` with `src` (which must exist). After a
  /// crash, `dst` holds either its old contents or the durable contents
  /// of `src` — never a mix; this is the publish step of the
  /// write-tmp/sync/rename pattern (DurableCursor). The base
  /// implementation copies durably and deletes the source, which is
  /// atomic on the single-writer engine files it is used for;
  /// environments with a native atomic rename override it.
  virtual Status RenameFile(const std::string& src, const std::string& dst);

  /// Opens `name` for asynchronous deep-queue IO: up to
  /// options.queue_depth reads/writes in flight at once, submitted and
  /// reaped in batches (io/uring_env.h documents the AsyncFile
  /// contract). This is the capability probe of the async backend — the
  /// base implementation wraps OpenFile in a portable submission-queue
  /// thread pool (one SweepThreadPool shared by all of this env's async
  /// files), so every Env is async-capable; PosixEnv overrides it with a
  /// native io_uring when the kernel grants one. Both backends have
  /// byte-identical semantics.
  virtual Result<std::shared_ptr<AsyncFile>> OpenAsync(
      const std::string& name, bool create,
      const AsyncIoOptions& options = AsyncIoOptions());

 protected:
  Env() = default;

  /// The lazily-created pool backing the default OpenAsync fallback,
  /// shared across all async files of this env so queue depth does not
  /// multiply into unbounded threads.
  std::shared_ptr<SweepThreadPool> FallbackAsyncPool(uint32_t threads);

 private:
  std::mutex async_pool_mu_;
  std::shared_ptr<SweepThreadPool> async_pool_;
};

}  // namespace llb

#endif  // LLB_IO_ENV_H_
