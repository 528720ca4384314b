#include "io/transfer_pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>

namespace llb {

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

}  // namespace

void TransferPlan::AddRange(PartitionId partition, uint32_t from, uint32_t to,
                            const std::vector<uint32_t>* page_filter,
                            uint32_t batch_pages) {
  const uint32_t batch = std::max<uint32_t>(1, batch_pages);
  const size_t first_new = runs_.size();
  for (uint32_t page = from; page < to; ++page) {
    if (page_filter != nullptr &&
        !std::binary_search(page_filter->begin(), page_filter->end(), page)) {
      continue;
    }
    if (runs_.size() > first_new &&
        runs_.back().first_page + runs_.back().count == page &&
        runs_.back().count < batch) {
      ++runs_.back().count;
    } else {
      runs_.push_back(TransferRun{partition, page, 1});
    }
  }
}

void TransferPlan::AddPages(const std::vector<PageId>& pages,
                            uint32_t batch_pages) {
  const uint32_t batch = std::max<uint32_t>(1, batch_pages);
  const size_t first_new = runs_.size();
  for (const PageId& id : pages) {
    if (runs_.size() > first_new && runs_.back().partition == id.partition &&
        runs_.back().first_page + runs_.back().count == id.page &&
        runs_.back().count < batch) {
      ++runs_.back().count;
    } else {
      runs_.push_back(TransferRun{id.partition, id.page, 1});
    }
  }
}

uint64_t TransferPlan::pages() const {
  uint64_t total = 0;
  for (const TransferRun& run : runs_) total += run.count;
  return total;
}

void TransferStats::MergeFrom(const TransferStats& other) {
  pages_moved += other.pages_moved;
  read_batches += other.read_batches;
  write_batches += other.write_batches;
  read_stage_us += other.read_stage_us;
  write_stage_us += other.write_stage_us;
  threads_spawned += other.threads_spawned;
  checksum_rereads += other.checksum_rereads;
}

Status TransferPipeline::ExecuteWindow(Mover* mover, const TransferRun* window,
                                       size_t count, uint64_t* pages_moved) {
  if (count == 0) return Status::OK();
  PageStore::AsyncRunReader* reader = mover->reader.get();
  std::vector<std::vector<PageImage>> images(count);
  std::vector<PageStore::AsyncRunResult> results;

  // Read phase: every run of the window in flight at once, one reap.
  // Retried as a unit by the io_wrapper — reads are idempotent and
  // ReapAll always drains the queue, so a retry starts clean.
  auto read_window = [&]() -> Status {
    auto started = std::chrono::steady_clock::now();
    const uint64_t rereads_before = reader->checksum_rereads();
    results.clear();
    Status reaped;
    for (size_t i = 0; i < count && reaped.ok(); ++i) {
      // A failed submit leaves earlier reads of this window in flight:
      // the ReapAll below drains them, so a retry genuinely starts with
      // an empty queue instead of hitting "async reader full".
      reaped = reader->SubmitRead(window[i].partition, window[i].first_page,
                                  window[i].count, i);
    }
    Status drained = reader->ReapAll(&results);
    if (reaped.ok()) reaped = drained;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.read_batches += count;
      stats_.read_stage_us += ElapsedUs(started);
      stats_.checksum_rereads += reader->checksum_rereads() - rereads_before;
    }
    LLB_RETURN_IF_ERROR(reaped);
    for (PageStore::AsyncRunResult& result : results) {
      LLB_RETURN_IF_ERROR(result.status);
      images[result.tag] = std::move(result.images);
    }
    return Status::OK();
  };
  LLB_RETURN_IF_ERROR(CallIo(read_window));

  if (options_.transform) {
    for (size_t i = 0; i < count; ++i) {
      LLB_RETURN_IF_ERROR(options_.transform(window[i], &images[i]));
    }
  }

  // Write phase: the whole window in flight, one durability barrier per
  // touched partition. Also retried as a unit — rewriting the same
  // sealed bytes to the same slots is idempotent.
  std::vector<PageStore::SealedRunWrite> writes;
  writes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    writes.push_back(PageStore::SealedRunWrite{
        window[i].partition, window[i].first_page, &images[i], i});
  }
  auto write_window = [&]() -> Status {
    auto started = std::chrono::steady_clock::now();
    results.clear();
    Status window_status = mover->writer->WriteWindow(writes, &results);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.write_batches += count;
      stats_.write_stage_us += ElapsedUs(started);
    }
    LLB_RETURN_IF_ERROR(window_status);
    for (const PageStore::AsyncRunResult& result : results) {
      LLB_RETURN_IF_ERROR(result.status);
    }
    return Status::OK();
  };
  LLB_RETURN_IF_ERROR(CallIo(write_window));

  // Durable: count pages and fire after_run in plan order.
  uint64_t moved = 0;
  for (size_t i = 0; i < count; ++i) moved += images[i].size();
  *pages_moved += moved;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.pages_moved += moved;
  }
  if (options_.after_run) {
    for (size_t i = 0; i < count; ++i) {
      LLB_RETURN_IF_ERROR(options_.after_run(window[i], images[i]));
    }
  }
  return Status::OK();
}

Status TransferPipeline::ExecuteRuns(const TransferRun* runs, size_t count,
                                     uint64_t* pages_moved) {
  if (count == 0) return Status::OK();
  std::unique_ptr<Mover> mover;
  {
    std::lock_guard<std::mutex> lock(movers_mu_);
    if (!idle_movers_.empty()) {
      mover = std::move(idle_movers_.back());
      idle_movers_.pop_back();
    }
  }
  if (mover == nullptr) {
    const uint32_t depth = std::max<uint32_t>(1, options_.queue_depth);
    // RunParallel's workers each own a mover: size the env's shared
    // fallback pool for all of them, not for one.
    const uint32_t streams = std::max<uint32_t>(1, options_.workers);
    mover = std::make_unique<Mover>();
    mover->reader = source_->NewAsyncReader(depth, streams);
    mover->writer = dest_->NewAsyncWriter(depth, streams);
  }
  Status s = MoveRuns(mover.get(), runs, count, pages_moved);
  if (s.ok()) {  // a failed mover may hold undrained state: drop it
    std::lock_guard<std::mutex> lock(movers_mu_);
    idle_movers_.push_back(std::move(mover));
  }
  return s;
}

Status TransferPipeline::MoveRuns(Mover* mover, const TransferRun* runs,
                                  size_t count, uint64_t* pages_moved) {
  const size_t depth = mover->reader->queue_depth();
  for (size_t w = 0; w < count; w += depth) {
    LLB_RETURN_IF_ERROR(ExecuteWindow(mover, runs + w,
                                      std::min(depth, count - w),
                                      pages_moved));
  }
  return Status::OK();
}

Status TransferPipeline::Run(const TransferPlan& plan,
                             uint64_t* pages_moved) {
  uint64_t moved = 0;
  Status s = ExecuteRuns(plan.runs().data(), plan.runs().size(), &moved);
  if (pages_moved != nullptr) *pages_moved += moved;
  return s;
}

Status TransferPipeline::RunParallel(const TransferPlan& plan,
                                     uint64_t* pages_moved) {
  // Group runs by partition, preserving their order within each group:
  // every partition stays single-writer, so parallel output is byte-
  // identical to serial (the partition stores serialize per-partition
  // anyway — cross-partition concurrency is where the device overlap is).
  std::vector<std::vector<TransferRun>> groups;
  for (const TransferRun& run : plan.runs()) {
    if (groups.empty() || groups.back().front().partition != run.partition) {
      groups.emplace_back();
    }
    groups.back().push_back(run);
  }

  const uint32_t workers =
      std::min<uint32_t>(std::max<uint32_t>(1, options_.workers),
                         static_cast<uint32_t>(groups.size()));
  if (workers <= 1) return Run(plan, pages_moved);

  // Workers claim the next unmoved partition group from a shared
  // counter. A failed group does not stop the others — each partition's
  // pages land or fail independently, and the first error is returned.
  auto next = std::make_shared<std::atomic<size_t>>(0);
  auto moved_total = std::make_shared<std::atomic<uint64_t>>(0);
  auto worker = [this, next, moved_total, &groups]() -> Status {
    Status result;
    for (size_t g = next->fetch_add(1); g < groups.size();
         g = next->fetch_add(1)) {
      uint64_t moved = 0;
      Status s =
          ExecuteRuns(groups[g].data(), groups[g].size(), &moved);
      moved_total->fetch_add(moved);
      if (result.ok() && !s.ok()) result = s;
    }
    return result;
  };

  Status result;
  if (options_.pool != nullptr) {
    options_.pool->Grow(workers);
    std::vector<std::future<Status>> futures;
    futures.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
      futures.push_back(options_.pool->Submit(worker));
    }
    for (std::future<Status>& future : futures) {
      Status s = future.get();
      if (result.ok() && !s.ok()) result = s;
    }
  } else {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.threads_spawned += workers;
    }
    std::vector<Status> results(workers);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
      threads.emplace_back([&results, &worker, i]() { results[i] = worker(); });
    }
    for (std::thread& t : threads) t.join();
    for (const Status& s : results) {
      if (result.ok() && !s.ok()) result = s;
    }
  }
  if (pages_moved != nullptr) *pages_moved += moved_total->load();
  return result;
}

}  // namespace llb
