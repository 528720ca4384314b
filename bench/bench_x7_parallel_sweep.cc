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
// tools/benchrunner derives speedup_parallel_tT = MB/s(T) / MB/s(1) and
// tools/bench_check.py gates speedup_parallel_t4 >= 2x (EXPERIMENTS.md
// X7). Counters mirror X6 plus the simulated device time per sweep.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "filestore/filestore.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPartitions = 8;
constexpr uint32_t kPages = 256;  // per partition
constexpr uint32_t kSteps = 8;

/// A database over LatencyEnv(MemEnv): TestEngine hardcodes a bare
/// MemEnv, so the device-shaped engine is wired by hand (same sequence
/// as TestEngine::Open).
struct DeviceEngine {
  MemEnv base;
  LatencyEnv env;
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<FileStore>> files;

  explicit DeviceEngine(const LatencyProfile& profile)
      : env(&base, profile) {}
};

std::unique_ptr<DeviceEngine> NewLoadedEngine(const LatencyProfile& profile) {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;

  auto engine = std::make_unique<DeviceEngine>(profile);
  // Seed through the zero-latency base env (loading 2K pages through a
  // simulated HDD would dominate the benchmark's setup time), then
  // reopen the database over the latency wrapper of the same MemEnv for
  // the measured sweeps.
  engine->db = CheckResult(Database::Open(&engine->base, "x7", options),
                           "open");
  RegisterAllOps(engine->db->registry());
  Check(engine->db->Recover(), "recover");
  for (uint32_t p = 0; p < kPartitions; ++p) {
    engine->files.push_back(std::make_unique<FileStore>(
        engine->db.get(), p, /*base_page=*/0, /*pages_per_file=*/1,
        /*num_files=*/kPages));
    for (uint32_t f = 0; f < kPages; ++f) {
      Check(engine->files[p]->WriteValues(
                f, {static_cast<int64_t>(p) * 1000 + f, 1}),
            "seed");
    }
  }
  Check(engine->db->FlushAll(), "flush");
  Check(engine->db->Checkpoint(), "checkpoint");
  engine->files.clear();
  engine->db.reset();

  engine->db = CheckResult(Database::Open(&engine->env, "x7", options),
                           "reopen");
  RegisterAllOps(engine->db->registry());
  Check(engine->db->Recover(), "recover");
  return engine;
}

void BM_ParallelSweep(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine = NewLoadedEngine(LatencyProfile::Hdd());

  BackupJobOptions job;
  job.steps = kSteps;
  job.sweep_threads = static_cast<uint32_t>(state.range(0));
  job.batch_pages = 32;  // one run per step: the batched-sweep sweet spot
  job.resumable = false;  // cursor writes would add per-step syncs

  uint64_t pages_copied = 0;
  uint64_t fence_updates = 0;
  uint64_t threads_spawned = 0;
  uint64_t device_us_before = engine->env.stats().simulated_us;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine->db
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
      static_cast<double>(engine->env.stats().simulated_us -
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
