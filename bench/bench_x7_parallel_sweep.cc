// Experiment X7: parallel partitioned sweep throughput under
// device-shaped IO.
//
// On the zero-latency MemEnv a parallel sweep cannot win: every IO is a
// memcpy under one env mutex, so extra workers only add contention. The
// win the paper's arithmetic predicts appears once IO has device shape —
// seek + transfer + sync time that concurrent per-partition streams can
// overlap. This benchmark wraps MemEnv in a LatencyEnv with the HDD
// profile (2 ms seek, 4 ms sync, 100 MB/s — the geometry backup sweeps
// were designed for) and shards 8 partitions across 1/2/4/8 pool
// workers:
//
//   BM_ParallelSweep/threads:T   — quiesced full-sweep MB/s, batched,
//                                  T sweep workers
//
// bench/registry.json derives speedup_parallel_tT = MB/s(T) / MB/s(1)
// and its floor (EXPERIMENTS.md X7). Counters mirror X6 plus the
// simulated device time per sweep.

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"

namespace llb {
namespace {

using benchutil::BenchEngine;
using benchutil::Check;

constexpr uint32_t kPartitions = 8;
constexpr uint32_t kPages = 256;  // per partition
constexpr uint32_t kSteps = 8;

void BM_ParallelSweep(benchmark::State& state) {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;
  BenchEngine engine("x7", options, LatencyProfile::Hdd());
  engine.Reopen();

  BackupJobOptions job;
  job.steps = kSteps;
  job.sweep_threads = static_cast<uint32_t>(state.range(0));
  job.batch_pages = 32;  // one run per step: the batched-sweep sweet spot
  job.resumable = false;  // cursor writes would add per-step syncs

  uint64_t pages_copied = 0;
  uint64_t fence_updates = 0;
  uint64_t threads_spawned = 0;
  uint64_t device_us_before = engine.latency()->stats().simulated_us;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine.db()
              ->TakeBackupWithOptions("x7_" + std::to_string(round++), job,
                                      &stats)
              .status(),
          "backup");
    pages_copied += stats.pages_copied;
    fence_updates += stats.fence_updates;
    threads_spawned += stats.threads_spawned;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_copied) *
                          static_cast<int64_t>(kPageSize));
  double sweeps = static_cast<double>(state.iterations());
  state.counters["fence_updates"] = static_cast<double>(fence_updates) / sweeps;
  // Simulated device time consumed per sweep: roughly constant across
  // thread counts (the same IOs happen), while real_time shrinks — the
  // overlap is the speedup.
  state.counters["device_us"] =
      static_cast<double>(engine.latency()->stats().simulated_us -
                          device_us_before) /
      sweeps;
  // Regression guard: pooled sweeps must not fall back to transient
  // threads.
  state.counters["threads_spawned"] = static_cast<double>(threads_spawned);
}
BENCHMARK(BM_ParallelSweep)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Workers run on pool threads; only wall clock shows the overlap.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
