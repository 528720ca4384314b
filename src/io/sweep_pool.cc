#include "io/sweep_pool.h"

#include <utility>

namespace llb {

namespace {
/// Run-queue capacity headroom beyond the worker count. Small on purpose:
/// the queue exists to hand tasks off, not to buffer a backlog — sweep
/// callers pace themselves against device speed, not queue depth.
constexpr size_t kQueueSlack = 2;
}  // namespace

SweepThreadPool::SweepThreadPool(size_t threads) { Grow(threads); }

SweepThreadPool::~SweepThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void SweepThreadPool::Grow(size_t threads) {
  std::vector<std::thread> started;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (workers_.size() + started.size() < threads) {
      started.emplace_back([this] { WorkerLoop(); });
    }
    for (std::thread& worker : started) {
      workers_.push_back(std::move(worker));
    }
  }
}

std::future<Status> SweepThreadPool::Submit(std::function<Status()> fn) {
  std::packaged_task<Status()> task(std::move(fn));
  std::future<Status> future = task.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    space_cv_.wait(lock, [this] {
      return stop_ || queue_.size() < workers_.size() + kQueueSlack;
    });
    // After Shutdown-in-progress, still enqueue: the destructor drains
    // the queue before joining, so the future resolves.
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return future;
}

size_t SweepThreadPool::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return workers_.size();
}

uint64_t SweepThreadPool::tasks_run() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tasks_run_;
}

void SweepThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<Status()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++tasks_run_;
    }
    space_cv_.notify_one();
    task();  // exceptions are captured into the future by packaged_task
  }
}

}  // namespace llb
