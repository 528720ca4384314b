// Experiment X4 (paper sections 1.3-1.4): update throughput under
// different backup strategies.
//
//   no_backup     — baseline insert throughput.
//   async_backup  — the paper's protocol: a backup sweep runs
//                   concurrently, loosely coupled through the backup
//                   latch and Iw/oF logging. Throughput should stay near
//                   the baseline.
//   linked_flush  — the strawman the paper rejects ("a completely
//                   unrealistic solution"): every operation's dirty pages
//                   are synchronously flushed to S *and* copied to B
//                   before the next operation starts.
//   offline       — updates stop entirely while the backup runs; measured
//                   as backup duration (throughput during it is zero).
//
// Experiment X12 rides in the same binary: BM_UpdatersDuringBackup runs
// 1/4/16 updater threads against a continuously-active backup over a
// device-shaped log (LatencyEnv, SSD profile). Every Iw/oF install waits
// out the epoch watermark with the cache mutex released, so one
// group-commit sync covers every concurrent waiter and updaters scale
// past the single device sync.
// bench/registry.json derives updater_scaling_t4 = ops(t4) / ops(t1)
// and its floor (EXPERIMENTS.md X12).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "btree/btree.h"
#include "filestore/filestore.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::BenchEngine;
using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPages = 2048;

std::unique_ptr<TestEngine> NewEngine() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  options.backup_steps = 8;
  return CheckResult(TestEngine::Create(options), "create");
}

void BM_Updates_NoBackup(benchmark::State& state) {
  std::unique_ptr<TestEngine> engine = NewEngine();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  Check(tree.Create(), "create");
  int64_t key = 0;
  for (auto _ : state) {
    Check(tree.Insert((key++ * 2654435761) % 20011, Slice("payload")),
          "insert");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Updates_NoBackup)->Unit(benchmark::kMicrosecond);

void BM_Updates_DuringAsyncBackup(benchmark::State& state) {
  std::unique_ptr<TestEngine> engine = NewEngine();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  Check(tree.Create(), "create");
  // Continuous backups on a second thread: the worst case for the
  // protocol (a backup is always active, maximizing Iw/oF exposure).
  std::atomic<bool> stop{false};
  std::thread backup_thread([&]() {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status s =
          engine->db()->TakeBackup("bk" + std::to_string(round++)).status();
      if (!s.ok()) break;
    }
  });
  int64_t key = 0;
  for (auto _ : state) {
    Check(tree.Insert((key++ * 2654435761) % 20011, Slice("payload")),
          "insert");
  }
  stop.store(true);
  backup_thread.join();
  state.SetItemsProcessed(state.iterations());
  DbStats stats = engine->db()->GatherStats();
  state.counters["iwof_per_1k_ops"] =
      1000.0 * static_cast<double>(stats.cache.identity_writes) /
      static_cast<double>(state.iterations());
  state.counters["flush_decisions_per_1k_ops"] =
      1000.0 * static_cast<double>(stats.cache.decisions) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Updates_DuringAsyncBackup)->Unit(benchmark::kMicrosecond);

void BM_Updates_LinkedFlush(benchmark::State& state) {
  std::unique_ptr<TestEngine> engine = NewEngine();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  Check(tree.Create(), "create");
  // The "linked flush" strawman: keep B in lock-step with S by flushing
  // after every operation and synchronously copying the flushed pages.
  std::unique_ptr<PageStore> linked_b = CheckResult(
      PageStore::Open(engine->env(), "linked_backup", 1), "open B");
  int64_t key = 0;
  for (auto _ : state) {
    Check(tree.Insert((key++ * 2654435761) % 20011, Slice("payload")),
          "insert");
    Check(engine->db()->FlushAll(), "linked flush to S");
    // Copy every page the flush touched to B, synchronously.
    for (uint32_t page = 0; page < 64; ++page) {
      PageImage image;
      Check(engine->db()->stable()->ReadPage(PageId{0, page}, &image),
            "read");
      Check(linked_b->WritePage(PageId{0, page}, image), "write B");
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Updates_LinkedFlush)->Unit(benchmark::kMicrosecond);

void BM_BackupDuration_Offline(benchmark::State& state) {
  std::unique_ptr<TestEngine> engine = NewEngine();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  Check(tree.Create(), "create");
  for (int64_t k = 0; k < 3000; ++k) {
    Check(tree.Insert(k, Slice("payload")), "insert");
  }
  Check(engine->db()->FlushAll(), "flush");
  int round = 0;
  for (auto _ : state) {
    Check(engine->db()
              ->TakeBackup("off" + std::to_string(round++))
              .status(),
          "backup");
  }
  state.counters["pages"] = kPages;
}
BENCHMARK(BM_BackupDuration_Offline)->Unit(benchmark::kMillisecond);

void BM_BackupDuration_Online(benchmark::State& state) {
  std::unique_ptr<TestEngine> engine = NewEngine();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  Check(tree.Create(), "create");
  for (int64_t k = 0; k < 3000; ++k) {
    Check(tree.Insert(k, Slice("payload")), "insert");
  }
  Check(engine->db()->FlushAll(), "flush");
  int64_t key = 100000;
  int round = 0;
  for (auto _ : state) {
    // Updates run inside the sweep via the mid-step hook (deterministic
    // "concurrency" so the measurement is stable).
    BackupJobOptions job;
    job.steps = 8;
    job.mid_step = [&](PartitionId, uint32_t) -> Status {
      for (int i = 0; i < 25; ++i) {
        LLB_RETURN_IF_ERROR(
            tree.Insert(100000 + (key++ % 3000), Slice("payload")));
      }
      return Status::OK();
    };
    Check(engine->db()
              ->TakeBackupWithOptions("on" + std::to_string(round++), job)
              .status(),
          "backup");
  }
  state.counters["pages"] = kPages;
}
BENCHMARK(BM_BackupDuration_Online)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// X12: multi-threaded updaters during backup over epoch group commit.

constexpr uint32_t kUpdaterPartitions = 16;  // one per updater at t=16
constexpr uint32_t kFilesPerPartition = 64;  // > cache: writes miss
constexpr uint32_t kOpsPerThread = 64;       // ops per thread per iteration

DbOptions UpdaterOptions() {
  DbOptions options;
  options.partitions = kUpdaterPartitions;
  options.pages_per_partition = kFilesPerPartition;
  // Smaller than one partition's file set: the round-robin updater
  // misses on most writes and keeps evicting dirty pages, so the
  // measured path is the Iw/oF install under an active backup, not a
  // cache hit. `WriteValues` is a blind write (FileWrite), so a miss
  // reserves its page and reads nothing from S.
  options.cache_pages = 48;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = 8;
  return options;
}

void BM_UpdatersDuringBackup(benchmark::State& state) {
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  BenchEngine engine("x12", UpdaterOptions(), LatencyProfile::Ssd());
  engine.Reopen();

  // Continuous backups on their own thread: a backup is always active,
  // so every dirty eviction is an Iw/oF flush decision.
  std::atomic<bool> stop{false};
  std::thread backup_thread([&]() {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Status s =
          engine.db()->TakeBackup("bk" + std::to_string(round++)).status();
      if (!s.ok()) break;
    }
  });

  uint64_t total_ops = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t]() {
        // Each updater owns one partition: threads contend on the
        // cache, the log, and the backup latch — not on page data.
        uint64_t key = total_ops + t;
        for (uint32_t i = 0; i < kOpsPerThread; ++i) {
          uint32_t f = static_cast<uint32_t>(
              (key + i) * 2654435761u % kFilesPerPartition);
          Check(engine.files(t)->WriteValues(
                    f, {static_cast<int64_t>(key + i), 1}),
                "update");
        }
      });
    }
    for (auto& w : workers) w.join();
    total_ops += static_cast<uint64_t>(threads) * kOpsPerThread;
  }
  stop.store(true);
  backup_thread.join();
  state.SetItemsProcessed(static_cast<int64_t>(total_ops));

  DbStats stats = engine.db()->GatherStats();
  state.counters["iwof_per_1k_ops"] =
      total_ops == 0 ? 0.0
                     : 1000.0 *
                           static_cast<double>(stats.cache.identity_writes) /
                           static_cast<double>(total_ops);
  state.counters["group_commits"] =
      static_cast<double>(stats.log.group_commits);
  state.counters["overlapped_installs"] =
      static_cast<double>(stats.cache.overlapped_installs);
  state.counters["log_forces"] = static_cast<double>(stats.log.forces);
}
BENCHMARK(BM_UpdatersDuringBackup)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
