#include "torture/concurrent_torture.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "filestore/filestore.h"
#include "sim/workload.h"

namespace llb {

std::string ConcurrentTortureReport::ToString() const {
  return "updates=" + std::to_string(updates_applied) +
         " backups=" + std::to_string(backups_completed) +
         " pages_copied=" + std::to_string(pages_copied) +
         " identity_writes=" + std::to_string(identity_writes) +
         " cleaner_installs=" + std::to_string(cleaner_installs) +
         " cleaner_decisions=" + std::to_string(cleaner_decisions) +
         " stats_polls=" + std::to_string(stats_polls);
}

Result<ConcurrentTortureReport> RunConcurrentTorture(
    const ConcurrentTortureOptions& options) {
  if (options.partitions == 0 || options.backups == 0) {
    return Status::InvalidArgument("partitions and backups must be > 0");
  }

  DbOptions db_options;
  db_options.partitions = options.partitions;
  db_options.pages_per_partition = options.pages_per_partition;
  db_options.cache_pages = options.cache_pages;
  db_options.graph = WriteGraphKind::kGeneral;
  db_options.backup_policy = BackupPolicy::kGeneral;
  db_options.backup_steps = options.backup_steps;

  TortureEngine engine(db_options);
  LLB_RETURN_IF_ERROR(engine.Open());
  Database* db = engine.db.get();

  // Build the drivers serially (driver construction is not the race under
  // test) and pre-seed each partition so backups copy real content. A
  // driver Step flushes the page it writes; each updater also transforms
  // a random page of its partition and leaves it dirty, so dirty pages
  // outgrow the cache and write-back runs on the cleaners.
  std::vector<std::unique_ptr<GeneralUniformDriver>> drivers;
  std::vector<std::unique_ptr<FileStore>> dirtiers;
  for (uint32_t p = 0; p < options.partitions; ++p) {
    drivers.push_back(std::make_unique<GeneralUniformDriver>(
        db, p, options.pages_per_partition, options.seed * 1000 + p));
    dirtiers.push_back(std::make_unique<FileStore>(
        db, p, /*base_page=*/0, /*pages_per_file=*/1,
        options.pages_per_partition));
    LLB_RETURN_IF_ERROR(drivers[p]->Step());
  }
  LLB_RETURN_IF_ERROR(db->FlushAll());
  LLB_RETURN_IF_ERROR(db->Checkpoint());

  ConcurrentTortureReport report;
  std::vector<Status> updater_status(options.partitions);
  Status backup_status;
  std::atomic<uint64_t> updates_applied{0};
  std::atomic<uint64_t> pages_copied{0};
  std::atomic<uint64_t> backups_completed{0};
  std::atomic<uint64_t> stats_polls{0};
  std::atomic<bool> backups_done{false};
  std::atomic<bool> done{false};

  // Updaters run until the last backup completes, and every backup step
  // waits for its partition's updater to finish a Step inside the step's
  // Doubt window, so flushes take the Iw/oF path however the threads are
  // scheduled. steps[p] counts updater p's Steps; stopped[p] is set when
  // it exits.
  std::mutex progress_mu;
  std::condition_variable progress_cv;
  std::vector<uint64_t> steps(options.partitions, 0);
  std::vector<bool> stopped(options.partitions, false);
  std::vector<std::thread> updaters;
  updaters.reserve(options.partitions);
  for (uint32_t p = 0; p < options.partitions; ++p) {
    updaters.emplace_back([&, p] {
      Random rng(options.seed * 7919 + p);
      for (uint32_t i = 0;; ++i) {
        if (i >= options.updates_per_thread &&
            backups_done.load(std::memory_order_acquire)) {
          break;
        }
        Status s = drivers[p]->Step();
        if (s.ok()) {
          s = dirtiers[p]->Transform(
              static_cast<uint32_t>(rng.Uniform(options.pages_per_partition)),
              rng.Next());
        }
        if (!s.ok()) {
          updater_status[p] = s;
          break;
        }
        updates_applied.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(progress_mu);
        ++steps[p];
        progress_cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(progress_mu);
      stopped[p] = true;
      progress_cv.notify_all();
    });
  }
  // The Step in flight when the fence moved may have flushed before it;
  // the one after it runs wholly inside the window.
  auto await_updater = [&](PartitionId p, uint32_t) {
    std::unique_lock<std::mutex> lock(progress_mu);
    const uint64_t target = steps[p] + 2;
    progress_cv.wait(lock, [&] { return steps[p] >= target || stopped[p]; });
    return Status::OK();
  };

  auto take_backups = [&]() -> Status {
    for (uint32_t i = 0; i < options.backups; ++i) {
      BackupJobOptions job;
      job.steps = options.backup_steps;
      job.mid_step = await_updater;
      if (options.sweep_threads >= 2) {
        job.sweep_threads = options.sweep_threads;
      } else {
        job.parallel_partitions = true;
      }
      BackupJobStats stats;
      Result<BackupManifest> manifest =
          db->TakeBackupWithOptions("cbk_" + std::to_string(i), job, &stats);
      if (!manifest.ok()) return manifest.status();
      if (!manifest->complete) {
        return Status::Internal("concurrent backup " + std::to_string(i) +
                                " incomplete");
      }
      pages_copied.fetch_add(stats.pages_copied, std::memory_order_relaxed);
      backups_completed.fetch_add(1, std::memory_order_relaxed);
    }
    return Status::OK();
  };
  std::thread backup_thread([&] {
    backup_status = take_backups();
    backups_done.store(true, std::memory_order_release);
  });

  std::thread poller;
  if (options.poll_stats) {
    poller = std::thread([&] {
      while (!done.load(std::memory_order_acquire)) {
        DbStats stats = db->GatherStats();
        (void)stats;
        stats_polls.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
      }
    });
  }

  for (std::thread& t : updaters) t.join();
  backup_thread.join();
  done.store(true, std::memory_order_release);
  if (poller.joinable()) poller.join();

  for (uint32_t p = 0; p < options.partitions; ++p) {
    if (!updater_status[p].ok()) {
      return Status::Internal("updater for partition " + std::to_string(p) +
                              " failed: " + updater_status[p].ToString());
    }
  }
  if (!backup_status.ok()) {
    return Status::Internal("backup thread failed: " +
                            backup_status.ToString());
  }

  report.updates_applied = updates_applied.load();
  report.pages_copied = pages_copied.load();
  report.backups_completed = backups_completed.load();
  report.stats_polls = stats_polls.load();

  // Quiesce and check the invariants the race must not have broken.
  LLB_RETURN_IF_ERROR(db->FlushAll());
  LLB_RETURN_IF_ERROR(db->ForceLog());
  const CacheStats cache = db->GatherStats().cache;
  report.identity_writes = cache.identity_writes;
  report.cleaner_installs = cache.cleaner_installs;
  report.cleaner_decisions = cache.cleaner_decisions;
  if (report.identity_writes == 0) {
    return Status::Internal(
        "no identity writes: no flush took the Iw/oF path during a backup");
  }
  if (report.cleaner_installs == 0) {
    return Status::Internal("no cleaner install ran beside the updaters");
  }
  if (report.cleaner_decisions == 0) {
    return Status::Internal(
        "no cleaner install made an Iw/oF decision during a backup");
  }
  LLB_RETURN_IF_ERROR(torture::VerifyOpenDb(&engine));

  std::string last_backup = "cbk_" + std::to_string(options.backups - 1);
  for (uint32_t i = 0; i < options.backups; ++i) {
    std::string name = "cbk_" + std::to_string(i);
    LLB_ASSIGN_OR_RETURN(ScrubReport verify, db->VerifyBackup(name));
    if (!verify.clean()) {
      return Status::Internal("concurrent backup " + name + " not clean");
    }
  }

  // The last chain must carry a full media recovery: wipe S off-line,
  // restore, roll forward, and re-check against the oracle.
  engine.Shutdown();
  LLB_RETURN_IF_ERROR(torture::WipeStable(&engine));
  LLB_RETURN_IF_ERROR(torture::OfflineRestore(&engine, last_backup,
                                              kInvalidLsn));
  LLB_RETURN_IF_ERROR(torture::VerifyStableOffline(&engine, kInvalidLsn));
  LLB_RETURN_IF_ERROR(engine.Open());

  return report;
}

}  // namespace llb
