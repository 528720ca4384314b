#ifndef LLB_IO_SWEEP_POOL_H_
#define LLB_IO_SWEEP_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace llb {

/// A persistent pool of sweep workers shared by all backup work of one
/// database: threads are created once — lazily, via Grow — and reused
/// across every backup run, so a pooled sweep spawns zero transient
/// threads. The same class backs Env::OpenAsync's portable thread-pool
/// backend.
///
/// Submit() enqueues unconditionally, blocking while the bounded run
/// queue is full. Safe ONLY from threads outside the pool (the thread
/// running the backup); a pool worker calling it could deadlock the pool.
///
/// Task results are Status futures; a task must not throw.
class SweepThreadPool {
 public:
  /// Creates a pool with `threads` workers (may be 0; Grow adds more).
  explicit SweepThreadPool(size_t threads = 0);

  /// Joins all workers. Pending queued tasks are still run to completion
  /// first — their futures stay valid.
  ~SweepThreadPool();

  SweepThreadPool(const SweepThreadPool&) = delete;
  SweepThreadPool& operator=(const SweepThreadPool&) = delete;

  /// Ensures the pool has at least `threads` workers. The pool never
  /// shrinks: a database that once ran an 8-way sweep keeps 8 workers
  /// parked (they cost an idle condvar wait each).
  void Grow(size_t threads);

  /// Enqueues a task, blocking while the run queue is at capacity.
  /// Must not be called from a pool worker thread.
  std::future<Status> Submit(std::function<Status()> fn);

  size_t threads() const;
  uint64_t tasks_run() const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks / stop
  std::condition_variable space_cv_;  // submitters wait for queue space
  std::deque<std::packaged_task<Status()>> queue_;
  std::vector<std::thread> workers_;
  uint64_t tasks_run_ = 0;
  bool stop_ = false;
};

}  // namespace llb

#endif  // LLB_IO_SWEEP_POOL_H_
