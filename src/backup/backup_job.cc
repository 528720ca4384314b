#include "backup/backup_job.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "io/backup_codec.h"
#include "io/transfer_pipeline.h"

namespace llb {

BackupJob::BackupJob(Env* env, PageStore* stable,
                     BackupCoordinator* coordinator, LogManager* log,
                     uint32_t pages_per_partition, BackupJobOptions options)
    : env_(env),
      stable_(stable),
      coordinator_(coordinator),
      log_(log),
      pages_per_partition_(pages_per_partition),
      options_(options) {}

Status BackupJob::WithRetry(const std::function<Status()>& fn) {
  uint64_t backoff_us = options_.retry.backoff_start_us;
  for (uint32_t attempt = 0;; ++attempt) {
    Status s = fn();
    if (s.ok() || (!s.IsIoError() && !s.IsCorruption())) return s;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.io_faults;
    }
    if (attempt >= options_.retry.max_retries) return s;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.retries;
    }
    if (backoff_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us = static_cast<uint64_t>(
          static_cast<double>(backoff_us) * options_.retry.backoff_multiplier);
    }
  }
}

Status BackupJob::UpdateCursor(BackupCursor* cursor, PartitionId partition,
                               uint32_t boundary) {
  std::lock_guard<std::mutex> lock(cursor_mu_);
  cursor->next_page[partition] = boundary;
  return WithRetry([&] { return cursor->Save(env_); });
}

Status BackupJob::BackupPartition(TransferPipeline* pipeline,
                                  PartitionId partition,
                                  const std::vector<uint32_t>* page_filter,
                                  uint32_t steps, uint32_t start_from,
                                  BackupCursor* cursor) {
  BackupProgress* progress = coordinator_->Get(partition);
  uint64_t copied = 0;

  // Resuming: everything below the durable cursor is Done, nothing is in
  // flight. The fences have stayed up since the abort (conservatively
  // classifying [cursor, old P) as Doubt); pulling P back to the cursor
  // is safe because the sweep below re-copies everything from there.
  if (start_from > 0) {
    std::unique_lock<std::shared_mutex> latch(progress->latch());
    progress->RestoreFences(start_from);
  }

  uint32_t copy_from = start_from;
  for (uint32_t m = 1; m <= steps; ++m) {
    // Advance the pending fence to this step's boundary (exclusive latch:
    // "When the backup process updates its progress, it requests the
    // partition backup latch in exclusive mode").
    uint32_t boundary = (m == steps)
                            ? pages_per_partition_
                            : (pages_per_partition_ * m) / steps;
    if (boundary <= start_from) continue;  // step completed before abort
    {
      std::unique_lock<std::shared_mutex> latch(progress->latch());
      progress->SetPendingFence(boundary);
    }

    if (options_.mid_step) {
      LLB_RETURN_IF_ERROR(options_.mid_step(partition, m));
    }

    // Copy the pages of this step from S to B at full speed, without any
    // cache-manager involvement. Concurrent flushes to these positions
    // are in the Doubt region and hence identity-logged by the cache
    // manager; page-level read/write atomicity is all we need here.
    // Transient IO errors are retried (the pipeline wraps every IO in
    // WithRetry); if retries are exhausted the sweep aborts with the
    // fences still up and the cursor at the last completed step, ready
    // for Resume. Each step is one plan, so the pipeline's read-ahead
    // never reaches past this step's Doubt window [D, P).
    TransferPlan plan;
    plan.AddRange(partition, copy_from, boundary, page_filter,
                  options_.batch_pages);
    LLB_RETURN_IF_ERROR(pipeline->Run(plan, &copied));
    copy_from = boundary;

    // All pages below the boundary are now in B: Done. Persist the
    // cursor so a later fault can resume from this boundary.
    {
      std::unique_lock<std::shared_mutex> latch(progress->latch());
      progress->SetDoneFence();
    }
    if (cursor != nullptr) {
      LLB_RETURN_IF_ERROR(UpdateCursor(cursor, partition, boundary));
    }
  }

  // Backup of this partition complete: back to the between-backups state.
  {
    std::unique_lock<std::shared_mutex> latch(progress->latch());
    progress->Reset();
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.pages_copied += copied;
  return Status::OK();
}

uint32_t BackupJob::SweepWorkers() const {
  uint32_t n = coordinator_->num_partitions();
  uint32_t desired = options_.parallel_partitions
                         ? n
                         : std::max<uint32_t>(1, options_.sweep_threads);
  return std::min(desired, n);
}

Status BackupJob::RunPartitions(
    const std::function<Status(PartitionId)>& body) {
  const uint32_t n = coordinator_->num_partitions();
  const uint32_t workers = SweepWorkers();
  if (workers <= 1) {
    for (PartitionId p = 0; p < n; ++p) LLB_RETURN_IF_ERROR(body(p));
    return Status::OK();
  }

  // Each worker claims the next unswept partition from a shared counter,
  // so exactly one worker ever advances a given partition's fences. A
  // failed partition does not stop the others — matching the serial
  // behavior where every partition's cursor reflects its own progress,
  // which is what Resume relies on.
  auto next = std::make_shared<std::atomic<uint32_t>>(0);
  auto worker = [n, next, &body]() -> Status {
    Status result;
    for (uint32_t p = next->fetch_add(1); p < n; p = next->fetch_add(1)) {
      Status s = body(p);
      if (result.ok() && !s.ok()) result = s;
    }
    return result;
  };

  Status result;
  if (options_.pool != nullptr) {
    // Blocking Submit is safe here: Run/Resume execute on the caller's
    // thread, never on a pool worker.
    std::vector<std::future<Status>> futures;
    futures.reserve(workers);
    for (uint32_t i = 0; i < workers; ++i) {
      futures.push_back(options_.pool->Submit(worker));
    }
    for (std::future<Status>& future : futures) {
      Status s = future.get();
      if (result.ok() && !s.ok()) result = s;
    }
    return result;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.threads_spawned += workers;
  }
  std::vector<Status> results(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t i = 0; i < workers; ++i) {
    threads.emplace_back([&, i]() { results[i] = worker(); });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : results) {
    if (result.ok() && !s.ok()) result = s;
  }
  return result;
}

Result<BackupManifest> BackupJob::Sweep(BackupManifest manifest,
                                        BackupCursor cursor, bool resuming) {
  uint64_t fences_before = 0;
  for (PartitionId p = 0; p < manifest.partitions; ++p) {
    fences_before += coordinator_->Get(p)->fence_updates();
  }

  // Per-partition sorted page filters (incremental backups only).
  std::unordered_map<PartitionId, std::vector<uint32_t>> filters;
  if (manifest.incremental) {
    for (PartitionId p = 0; p < manifest.partitions; ++p) filters[p] = {};
    for (const PageId& id : manifest.pages) {
      filters[id.partition].push_back(id.page);
    }
  }

  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> dest,
      PageStore::Open(env_, manifest.StoreName(), manifest.partitions));

  // Format v2: every page is framed between read and write. The dedup
  // base (a previous complete generation, hence immutable) is consulted
  // per page; a missing or unreadable base page just means "no ref
  // frame", never a failed sweep.
  std::unique_ptr<PageStore> dedup_store;
  if (manifest.format != 0 && !manifest.dedup_base.empty()) {
    Result<std::unique_ptr<PageStore>> opened = PageStore::Open(
        env_, manifest.dedup_base + ".pages", manifest.partitions);
    if (opened.ok()) dedup_store = std::move(opened).value();
  }
  auto raw_bytes = std::make_shared<std::atomic<uint64_t>>(0);
  auto stored_bytes = std::make_shared<std::atomic<uint64_t>>(0);

  // Size the pool up front: one worker per concurrent partition
  // sweeper. Grow is idempotent and the pool never shrinks, so repeated
  // backups reuse the same threads.
  const uint32_t workers = SweepWorkers();
  if (options_.pool != nullptr && workers > 1) options_.pool->Grow(workers);

  // One shared pipeline for every partition sweeper: the run-oriented
  // copy engine (windows of async run IO) lives in TransferPipeline; the
  // sweep contributes its retry policy as the IO wrapper and keeps the
  // fence/cursor protocol to itself.
  TransferOptions transfer;
  transfer.queue_depth = options_.queue_depth;
  transfer.pool = options_.pool;
  transfer.io_wrapper = [this](const std::function<Status()>& fn) {
    return WithRetry(fn);
  };
  if (manifest.format != 0) {
    transfer.transform = [&manifest, dedup = dedup_store.get(), raw_bytes,
                          stored_bytes](const TransferRun& run,
                                        std::vector<PageImage>* images) {
      for (size_t i = 0; i < images->size(); ++i) {
        PageId id{run.partition, run.first_page + static_cast<uint32_t>(i)};
        PageImage base_image;
        const PageImage* base = nullptr;
        if (dedup != nullptr && dedup->ReadPage(id, &base_image).ok()) {
          base = &base_image;
        }
        uint64_t encoded = 0;
        std::optional<PageImage> frame = codec::EncodePage(
            (*images)[i], base, manifest.dedup_base, &encoded);
        raw_bytes->fetch_add(kPageSize);
        stored_bytes->fetch_add(encoded);
        if (frame.has_value()) (*images)[i] = std::move(*frame);
      }
      return Status::OK();
    };
  }
  TransferPipeline pipeline(stable_, dest.get(), transfer);

  Status swept = RunPartitions([&](PartitionId p) {
    uint32_t start_from = cursor.next_page[p];
    if (start_from >= pages_per_partition_) return Status::OK();
    if (resuming && start_from > 0) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.partitions_resumed;
      stats_.pages_skipped_on_resume += start_from;
    }
    return BackupPartition(
        &pipeline, p,
        manifest.incremental ? &filters.find(p)->second : nullptr,
        manifest.steps, start_from, options_.resumable ? &cursor : nullptr);
  });

  // Fold the pipeline's transfer counters into the job stats even when
  // the sweep failed: partial-batch numbers feed the resume diagnostics.
  // pages_copied is intentionally not taken from the pipeline — each
  // partition accumulates it so a failed partition still counts exactly
  // the pages it durably moved.
  {
    TransferStats moved = pipeline.StatsSnapshot();
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.read_batches += moved.read_batches;
    stats_.write_batches += moved.write_batches;
    stats_.read_stage_us += moved.read_stage_us;
    stats_.write_stage_us += moved.write_stage_us;
    stats_.checksum_rereads += moved.checksum_rereads;
    stats_.threads_spawned += moved.threads_spawned;
  }
  LLB_RETURN_IF_ERROR(swept);

  manifest.end_lsn = log_->next_lsn() - 1;
  manifest.complete = true;
  manifest.raw_bytes = raw_bytes->load();
  manifest.stored_bytes =
      manifest.format != 0 ? stored_bytes->load() : raw_bytes->load();
  LLB_RETURN_IF_ERROR(WithRetry([&] { return manifest.Save(env_); }));
  if (options_.resumable) {
    LLB_RETURN_IF_ERROR(BackupCursor::Remove(env_, manifest.name));
  }

  uint64_t fences_after = 0;
  for (PartitionId p = 0; p < manifest.partitions; ++p) {
    fences_after += coordinator_->Get(p)->fence_updates();
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.fence_updates += fences_after - fences_before;
  return manifest;
}

Result<BackupManifest> BackupJob::Run(const std::string& name, Lsn start_lsn) {
  BackupManifest manifest;
  manifest.name = name;
  manifest.start_lsn = start_lsn;
  manifest.partitions = coordinator_->num_partitions();
  manifest.pages_per_partition = pages_per_partition_;
  manifest.steps = std::max<uint32_t>(1, options_.steps);
  manifest.format = options_.compress ? 1 : 0;
  if (options_.compress) manifest.dedup_base = options_.dedup_base;

  // Persist the incomplete manifest (carrying start_lsn) and an all-zero
  // cursor before sweeping: an aborted run leaves everything Resume
  // needs.
  LLB_RETURN_IF_ERROR(WithRetry([&] { return manifest.Save(env_); }));
  BackupCursor cursor;
  cursor.backup_name = name;
  cursor.partitions = manifest.partitions;
  cursor.pages_per_partition = pages_per_partition_;
  cursor.steps = manifest.steps;
  cursor.next_page.assign(manifest.partitions, 0);
  if (options_.resumable) {
    LLB_RETURN_IF_ERROR(WithRetry([&] { return cursor.Save(env_); }));
  }
  return Sweep(std::move(manifest), std::move(cursor), /*resuming=*/false);
}

Result<BackupManifest> BackupJob::RunIncremental(
    const std::string& name, const std::string& base_name, Lsn start_lsn,
    std::vector<PageId> changed_pages) {
  BackupManifest manifest;
  manifest.name = name;
  manifest.start_lsn = start_lsn;
  manifest.partitions = coordinator_->num_partitions();
  manifest.pages_per_partition = pages_per_partition_;
  manifest.steps = std::max<uint32_t>(1, options_.steps);
  manifest.format = options_.compress ? 1 : 0;
  manifest.incremental = true;
  manifest.base_name = base_name;
  std::sort(changed_pages.begin(), changed_pages.end());
  manifest.pages = changed_pages;

  LLB_RETURN_IF_ERROR(WithRetry([&] { return manifest.Save(env_); }));
  BackupCursor cursor;
  cursor.backup_name = name;
  cursor.partitions = manifest.partitions;
  cursor.pages_per_partition = pages_per_partition_;
  cursor.steps = manifest.steps;
  cursor.next_page.assign(manifest.partitions, 0);
  if (options_.resumable) {
    LLB_RETURN_IF_ERROR(WithRetry([&] { return cursor.Save(env_); }));
  }
  return Sweep(std::move(manifest), std::move(cursor), /*resuming=*/false);
}

Result<BackupManifest> BackupJob::Resume(const std::string& name) {
  LLB_ASSIGN_OR_RETURN(BackupManifest manifest,
                       BackupManifest::Load(env_, name));
  if (manifest.complete) {
    return Status::FailedPrecondition("backup already complete: " + name);
  }
  LLB_ASSIGN_OR_RETURN(BackupCursor cursor, BackupCursor::Load(env_, name));
  if (cursor.partitions != manifest.partitions ||
      cursor.partitions != coordinator_->num_partitions() ||
      cursor.pages_per_partition != pages_per_partition_ ||
      cursor.pages_per_partition != manifest.pages_per_partition ||
      cursor.steps != manifest.steps) {
    return Status::FailedPrecondition(
        "backup cursor does not match the job geometry: " + name);
  }
  return Sweep(std::move(manifest), std::move(cursor), /*resuming=*/true);
}

}  // namespace llb
