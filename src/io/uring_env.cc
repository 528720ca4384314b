#include "io/uring_env.h"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

#if defined(__linux__) && __has_include(<linux/io_uring.h>)
#define LLB_HAVE_URING 1
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#else
#define LLB_HAVE_URING 0
#endif

namespace llb {

AsyncFile::~AsyncFile() = default;

namespace {

size_t TotalSize(const std::vector<Slice>& chunks) {
  size_t total = 0;
  for (const Slice& chunk : chunks) total += chunk.size();
  return total;
}

size_t TotalSize(const std::vector<IoBuffer>& chunks) {
  size_t total = 0;
  for (const IoBuffer& chunk : chunks) total += chunk.size;
  return total;
}

}  // namespace

AlignedIoString MakeAlignedIoString(size_t size) {
  AlignedIoString out;
  // size + alignment always exceeds the small-string buffer, so the
  // storage is heap-allocated and the aligned view survives moves.
  out.storage.resize(size + kIoAlignment);
  auto base = reinterpret_cast<uintptr_t>(out.storage.data());
  uintptr_t aligned = (base + kIoAlignment - 1) & ~uintptr_t(kIoAlignment - 1);
  out.data = out.storage.data() + (aligned - base);
  out.size = size;
  return out;
}

namespace {

/// Portable fallback: each submitted op becomes a SweepThreadPool task
/// running the synchronous File call; completions queue up locally for
/// Reap. Queue depth genuinely overlaps device time because every
/// in-flight op occupies its own pool worker (LatencyEnv sleeps there).
/// Without a pool (Env::OpenAsync at depth 1, where no overlap is
/// possible) ops run inline on the submitting thread instead: same slot
/// and completion bookkeeping, no pool handoff.
class ThreadPoolAsyncFile : public AsyncFile {
 public:
  ThreadPoolAsyncFile(std::shared_ptr<File> file, uint32_t queue_depth,
                      std::shared_ptr<SweepThreadPool> pool)
      : file_(std::move(file)), pool_(std::move(pool)), depth_(queue_depth) {}

  ~ThreadPoolAsyncFile() override {
    // Tasks hold `this`: wait for every dispatched op to finish before
    // the members go away. Their completions are dropped unreaped.
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }

  Status SubmitReadAtv(uint64_t offset, const std::vector<IoBuffer>& chunks,
                       uint64_t tag) override {
    if (TotalSize(chunks) == 0) {
      return Status::InvalidArgument("async read needs a non-empty buffer");
    }
    LLB_RETURN_IF_ERROR(ReserveSlot());
    Dispatch(tag, [this, offset, chunks] {
      return file_->ReadAtv(offset, chunks);
    });
    return Status::OK();
  }

  Status SubmitWriteAtv(uint64_t offset, const std::vector<Slice>& chunks,
                        uint64_t tag) override {
    if (TotalSize(chunks) == 0) {
      return Status::InvalidArgument("async write needs a non-empty buffer");
    }
    LLB_RETURN_IF_ERROR(ReserveSlot());
    Dispatch(tag, [this, offset, chunks] {
      return file_->WriteAtv(offset, chunks);
    });
    return Status::OK();
  }

  Status Reap(size_t min_completions,
              std::vector<AsyncIoCompletion>* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    size_t target = std::min(min_completions, pending_ + completed_.size());
    done_cv_.wait(lock, [this, target] { return completed_.size() >= target; });
    for (AsyncIoCompletion& completion : completed_) {
      out->push_back(std::move(completion));
    }
    completed_.clear();
    return Status::OK();
  }

  Status Sync() override {
    {
      // Drain the device queue (completions stay reapable), then issue
      // one durability barrier for everything written so far.
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return pending_ == 0; });
    }
    return file_->Sync();
  }

  uint32_t queue_depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_ + completed_.size();
  }

  const char* backend() const override { return "thread-pool"; }

 private:
  Status ReserveSlot() {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ + completed_.size() >= depth_) {
      return Status::FailedPrecondition("async queue full: reap first");
    }
    ++pending_;
    return Status::OK();
  }

  template <typename Op>
  void Dispatch(uint64_t tag, Op op) {
    if (pool_ == nullptr) {
      Complete(tag, op());
      return;
    }
    pool_->Submit([this, tag, op] {
      Complete(tag, op());
      return Status::OK();
    });
  }

  void Complete(uint64_t tag, Status status) {
    // Notify while still holding the lock: the destructor waits on
    // done_cv_ and destroys it as soon as pending_ hits 0, so a
    // notify after unlock could touch a dead condvar.
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    completed_.push_back(AsyncIoCompletion{tag, std::move(status)});
    done_cv_.notify_all();
  }

  const std::shared_ptr<File> file_;
  const std::shared_ptr<SweepThreadPool> pool_;
  const uint32_t depth_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  size_t pending_ = 0;  // dispatched to the pool, not yet completed
  std::deque<AsyncIoCompletion> completed_;
};

}  // namespace

std::shared_ptr<AsyncFile> NewThreadPoolAsyncFile(
    std::shared_ptr<File> file, uint32_t queue_depth,
    std::shared_ptr<SweepThreadPool> pool) {
  return std::make_shared<ThreadPoolAsyncFile>(
      std::move(file), std::max<uint32_t>(1, queue_depth), std::move(pool));
}

#if LLB_HAVE_URING

namespace {

int SysUringSetup(unsigned entries, struct io_uring_params* params) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_setup, entries, params));
}

int SysUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

bool UringAligned(uint64_t offset, const void* data, size_t len) {
  return offset % kIoAlignment == 0 && len % kIoAlignment == 0 &&
         reinterpret_cast<uintptr_t>(data) % kIoAlignment == 0;
}

/// Native backend: one io_uring per async file, driven with raw syscalls
/// (the toolchain has the kernel uapi header but no liburing). SQ/CQ ring
/// heads and tails are shared with the kernel, so they are accessed with
/// explicit acquire/release atomics.
class UringAsyncFile : public AsyncFile {
 public:
  UringAsyncFile(int fd, int direct_fd, uint32_t queue_depth,
                 std::function<void(uint64_t)> on_write_extent,
                 std::function<Status()> sync_fn)
      : fd_(fd),
        direct_fd_(direct_fd),
        depth_(queue_depth),
        on_write_extent_(std::move(on_write_extent)),
        sync_fn_(std::move(sync_fn)) {}

  ~UringAsyncFile() override {
    if (ring_fd_ >= 0) {
      // Drain the kernel's view of our buffers before unmapping.
      std::vector<AsyncIoCompletion> discard;
      std::unique_lock<std::mutex> lock(mu_);
      while (pending_ > 0) {
        if (!WaitLocked(&discard).ok()) {
          // Undrainable: in-flight ops may still use the bounce buffers,
          // so leak them rather than free them under the kernel.
          for (Op& op : slots_) {
            new std::string(std::move(op.bounce.storage));  // intentional leak
          }
          break;
        }
      }
    }
    if (sqes_ != nullptr) {
      ::munmap(sqes_, sq_entries_ * sizeof(struct io_uring_sqe));
    }
    if (cq_ring_ != nullptr && cq_ring_ != sq_ring_) {
      ::munmap(cq_ring_, cq_ring_bytes_);
    }
    if (sq_ring_ != nullptr) ::munmap(sq_ring_, sq_ring_bytes_);
    if (ring_fd_ >= 0) ::close(ring_fd_);
  }

  Status Init() {
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    ring_fd_ = SysUringSetup(depth_, &params);
    if (ring_fd_ < 0) {
      return Status::NotSupported(std::string("io_uring_setup: ") +
                                  std::strerror(errno));
    }
    sq_entries_ = params.sq_entries;
    sq_ring_bytes_ = params.sq_off.array + params.sq_entries * sizeof(__u32);
    cq_ring_bytes_ =
        params.cq_off.cqes + params.cq_entries * sizeof(struct io_uring_cqe);
    bool single_mmap = (params.features & IORING_FEAT_SINGLE_MMAP) != 0;
    if (single_mmap) {
      sq_ring_bytes_ = cq_ring_bytes_ = std::max(sq_ring_bytes_,
                                                 cq_ring_bytes_);
    }
    sq_ring_ = ::mmap(nullptr, sq_ring_bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, ring_fd_, IORING_OFF_SQ_RING);
    if (sq_ring_ == MAP_FAILED) {
      sq_ring_ = nullptr;
      return Status::NotSupported("io_uring sq mmap failed");
    }
    if (single_mmap) {
      cq_ring_ = sq_ring_;
    } else {
      cq_ring_ = ::mmap(nullptr, cq_ring_bytes_, PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_POPULATE, ring_fd_,
                        IORING_OFF_CQ_RING);
      if (cq_ring_ == MAP_FAILED) {
        cq_ring_ = nullptr;
        return Status::NotSupported("io_uring cq mmap failed");
      }
    }
    sqes_ = static_cast<struct io_uring_sqe*>(
        ::mmap(nullptr, sq_entries_ * sizeof(struct io_uring_sqe),
               PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE, ring_fd_,
               IORING_OFF_SQES));
    if (sqes_ == MAP_FAILED) {
      sqes_ = nullptr;
      return Status::NotSupported("io_uring sqe mmap failed");
    }
    auto* sq = static_cast<char*>(sq_ring_);
    sq_head_ = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    sq_tail_ = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    sq_mask_ = reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    sq_array_ = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    auto* cq = static_cast<char*>(cq_ring_);
    cq_head_ = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    cq_tail_ = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    cq_mask_ = reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    cqes_ = reinterpret_cast<struct io_uring_cqe*>(cq + params.cq_off.cqes);
    slots_.resize(depth_);
    free_slots_.reserve(depth_);
    for (uint32_t i = 0; i < depth_; ++i) free_slots_.push_back(i);
    return Status::OK();
  }

  Status SubmitReadAtv(uint64_t offset, const std::vector<IoBuffer>& chunks,
                       uint64_t tag) override {
    const size_t len = TotalSize(chunks);
    if (len == 0) {
      return Status::InvalidArgument("async read needs a non-empty buffer");
    }
    return SubmitOp(offset, len, tag, nullptr, &chunks);
  }

  Status SubmitWriteAtv(uint64_t offset, const std::vector<Slice>& chunks,
                        uint64_t tag) override {
    const size_t len = TotalSize(chunks);
    if (len == 0) {
      return Status::InvalidArgument("async write needs a non-empty buffer");
    }
    return SubmitOp(offset, len, tag, &chunks, nullptr);
  }

  Status Reap(size_t min_completions,
              std::vector<AsyncIoCompletion>* out) override {
    std::unique_lock<std::mutex> lock(mu_);
    size_t target = std::min(min_completions, pending_ + completed_.size());
    DrainCqLocked();
    while (completed_.size() < target) {
      LLB_RETURN_IF_ERROR(WaitLocked(nullptr));
    }
    for (AsyncIoCompletion& completion : completed_) {
      out->push_back(std::move(completion));
    }
    completed_.clear();
    return Status::OK();
  }

  Status Sync() override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      DrainCqLocked();
      while (pending_ > 0) {
        LLB_RETURN_IF_ERROR(WaitLocked(nullptr));
      }
    }
    return sync_fn_();
  }

  uint32_t queue_depth() const override { return depth_; }

  size_t in_flight() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_ + completed_.size();
  }

  const char* backend() const override { return "io_uring"; }

 private:
  /// Book-keeping for one in-flight operation; user_data is the slot
  /// index so completions map back here. The ring only ever reads and
  /// writes `bounce`, the slot's own aligned staging buffer (reused
  /// across ops; it only ever grows): a write's chunks are copied in at
  /// submit, a read is scattered out to the caller's chunks at
  /// completion.
  struct Op {
    uint64_t tag = 0;
    size_t len = 0;
    uint64_t offset = 0;
    bool write = false;
    AlignedIoString bounce;
    std::vector<IoBuffer> scatter;  // reads: the caller's chunks
  };

  /// Exactly one of `gather` (a write) and `scatter` (a read) is set.
  Status SubmitOp(uint64_t offset, size_t len, uint64_t tag,
                  const std::vector<Slice>* gather,
                  const std::vector<IoBuffer>* scatter) {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ + completed_.size() >= depth_ || free_slots_.empty()) {
      return Status::FailedPrecondition("async queue full: reap first");
    }
    uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Op& op = slots_[slot];
    op.tag = tag;
    op.len = len;
    op.offset = offset;
    op.write = gather != nullptr;
    if (op.bounce.storage.size() < len + kIoAlignment) {
      op.bounce = MakeAlignedIoString(len);
    }
    char* const data = op.bounce.data;
    if (op.write) {
      char* at = data;
      for (const Slice& chunk : *gather) {
        std::memcpy(at, chunk.data(), chunk.size());
        at += chunk.size();
      }
    } else {
      op.scatter = *scatter;
    }

    int op_fd = fd_;
    if (direct_fd_ >= 0 && UringAligned(offset, data, len)) op_fd = direct_fd_;

    unsigned tail = *sq_tail_;  // we are the only SQ producer (mu_ held)
    unsigned index = tail & *sq_mask_;
    struct io_uring_sqe* sqe = &sqes_[index];
    std::memset(sqe, 0, sizeof(*sqe));
    sqe->opcode = op.write ? IORING_OP_WRITE : IORING_OP_READ;
    sqe->fd = op_fd;
    sqe->off = offset;
    sqe->addr = reinterpret_cast<uint64_t>(data);
    sqe->len = static_cast<unsigned>(len);
    sqe->user_data = slot;
    sq_array_[index] = index;
    __atomic_store_n(sq_tail_, tail + 1, __ATOMIC_RELEASE);

    ++pending_;
    int rc = SysUringEnter(ring_fd_, 1, 0, 0);
    if (rc < 0 &&
        __atomic_load_n(sq_head_, __ATOMIC_ACQUIRE) != tail + 1) {
      // enter failed before the kernel consumed the sqe (the kernel only
      // consumes SQEs inside io_uring_enter, and sq_head has not passed
      // ours). Unpublish it by restoring the tail — safe, mu_ is held so
      // we are the only producer — then surface the failure as this op's
      // completion, keeping the error-on-Reap contract. Leaving the sqe
      // published would let the next successful enter submit it after
      // the slot (and its buffer) had been recycled.
      __atomic_store_n(sq_tail_, tail, __ATOMIC_RELEASE);
      --pending_;
      free_slots_.push_back(slot);
      completed_.push_back(AsyncIoCompletion{
          tag, Status::IoError(std::string("io_uring_enter: ") +
                               std::strerror(errno))});
    }
    return Status::OK();
  }

  /// Consumes every posted cqe into completed_. Caller holds mu_.
  void DrainCqLocked() {
    unsigned head = *cq_head_;
    unsigned tail = __atomic_load_n(cq_tail_, __ATOMIC_ACQUIRE);
    while (head != tail) {
      const struct io_uring_cqe* cqe = &cqes_[head & *cq_mask_];
      uint32_t slot = static_cast<uint32_t>(cqe->user_data);
      Op& op = slots_[slot];
      Status status;
      if (cqe->res < 0) {
        status = Status::IoError(std::string(op.write ? "async write: "
                                                      : "async read: ") +
                                 std::strerror(-cqe->res));
      } else if (op.write) {
        if (static_cast<size_t>(cqe->res) < op.len) {
          status = Status::IoError("short async write");
        } else if (on_write_extent_) {
          on_write_extent_(op.offset + op.len);
        }
      } else {
        // Past end of file: zero-fill, the never-written-page convention.
        const size_t got = static_cast<size_t>(cqe->res);
        if (got < op.len) {
          std::memset(op.bounce.data + got, 0, op.len - got);
        }
        const char* from = op.bounce.data;
        for (const IoBuffer& chunk : op.scatter) {
          std::memcpy(chunk.data, from, chunk.size);
          from += chunk.size;
        }
      }
      completed_.push_back(AsyncIoCompletion{op.tag, std::move(status)});
      free_slots_.push_back(slot);
      --pending_;
      ++head;
    }
    __atomic_store_n(cq_head_, head, __ATOMIC_RELEASE);
  }

  /// Blocks in the kernel for one completion, then drains. Caller holds
  /// mu_; `discard` is unused (kept for the destructor's call shape).
  Status WaitLocked(std::vector<AsyncIoCompletion>* /*discard*/) {
    int rc = SysUringEnter(ring_fd_, 0, 1, IORING_ENTER_GETEVENTS);
    if (rc < 0 && errno != EINTR) {
      return Status::IoError(std::string("io_uring_enter(wait): ") +
                             std::strerror(errno));
    }
    DrainCqLocked();
    return Status::OK();
  }

  const int fd_;
  const int direct_fd_;
  const uint32_t depth_;
  const std::function<void(uint64_t)> on_write_extent_;
  const std::function<Status()> sync_fn_;

  int ring_fd_ = -1;
  void* sq_ring_ = nullptr;
  void* cq_ring_ = nullptr;
  size_t sq_ring_bytes_ = 0;
  size_t cq_ring_bytes_ = 0;
  struct io_uring_sqe* sqes_ = nullptr;
  unsigned sq_entries_ = 0;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned* sq_mask_ = nullptr;
  unsigned* sq_array_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned* cq_mask_ = nullptr;
  struct io_uring_cqe* cqes_ = nullptr;

  mutable std::mutex mu_;
  std::vector<Op> slots_;
  std::vector<uint32_t> free_slots_;
  size_t pending_ = 0;
  std::deque<AsyncIoCompletion> completed_;
};

}  // namespace

bool UringAvailable() {
  static const bool available = [] {
    if (std::getenv("LLB_NO_URING") != nullptr) return false;
    struct io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    int fd = SysUringSetup(4, &params);
    if (fd < 0) return false;  // old kernel, or seccomp EPERM in containers
    ::close(fd);
    return true;
  }();
  return available;
}

Result<std::shared_ptr<AsyncFile>> NewUringAsyncFile(
    int fd, int direct_fd, uint32_t queue_depth,
    std::function<void(uint64_t)> on_write_extent,
    std::function<Status()> sync_fn) {
  auto file = std::make_shared<UringAsyncFile>(
      fd, direct_fd, std::max<uint32_t>(1, queue_depth),
      std::move(on_write_extent), std::move(sync_fn));
  LLB_RETURN_IF_ERROR(file->Init());
  return {std::shared_ptr<AsyncFile>(std::move(file))};
}

#else  // !LLB_HAVE_URING

bool UringAvailable() { return false; }

Result<std::shared_ptr<AsyncFile>> NewUringAsyncFile(
    int /*fd*/, int /*direct_fd*/, uint32_t /*queue_depth*/,
    std::function<void(uint64_t)> /*on_write_extent*/,
    std::function<Status()> /*sync_fn*/) {
  return Status::NotSupported("io_uring not available on this platform");
}

#endif  // LLB_HAVE_URING

}  // namespace llb
