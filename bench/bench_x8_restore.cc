// Experiment X8: media-recovery (restore) throughput on the shared
// transfer pipeline under device-shaped IO.
//
// Restore is the RTO side of the paper's story: after a media failure
// the stable database is rebuilt from B, and every second of the
// rebuild is downtime. The restore rides the same TransferPipeline as
// the backup sweep — batched multi-page runs with two in flight per
// worker (the read of run N+1 overlaps the write of run N),
// partition-sharded workers — and, being offline, has no fence protocol
// to respect, so batching and parallelism are pure throughput knobs.
// Like X7 this wraps MemEnv in a LatencyEnv with the HDD profile
// (2 ms seek, 4 ms sync, 100 MB/s) and shards 8 partitions across
// 1/2/4/8 restore workers:
//
//   BM_FullRestore/threads:T   — wipe S, restore a full backup, MB/s
//   BM_ChainRestore/threads:T  — wipe S, restore a full + 2-incremental
//                                chain (coalesced newest-wins apply)
//
// tools/benchrunner derives speedup_restore_tT = MB/s(T) / MB/s(1) from
// the full-restore family and tools/bench_check.py gates
// speedup_restore_t4 >= 2x (EXPERIMENTS.md X8).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "filestore/filestore.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPartitions = 8;
constexpr uint32_t kPages = 256;  // per partition
constexpr uint32_t kSteps = 8;

/// A database over LatencyEnv(MemEnv), as in X7: seeded and backed up
/// through the zero-latency base env (setup is not the measurement),
/// restored through the latency wrapper of the same MemEnv.
struct DeviceEngine {
  MemEnv base;
  LatencyEnv env;

  explicit DeviceEngine(const LatencyProfile& profile)
      : env(&base, profile) {}
};

std::unique_ptr<DeviceEngine> NewBackedUpEngine(
    const LatencyProfile& profile) {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;

  auto engine = std::make_unique<DeviceEngine>(profile);
  std::unique_ptr<Database> db =
      CheckResult(Database::Open(&engine->base, "x8", options), "open");
  RegisterAllOps(db->registry());
  Check(db->Recover(), "recover");
  std::vector<std::unique_ptr<FileStore>> files;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    files.push_back(std::make_unique<FileStore>(
        db.get(), p, /*base_page=*/0, /*pages_per_file=*/1,
        /*num_files=*/kPages));
    for (uint32_t f = 0; f < kPages; ++f) {
      Check(files[p]->WriteValues(f, {static_cast<int64_t>(p) * 1000 + f, 1}),
            "seed");
    }
  }
  Check(db->FlushAll(), "flush");
  Check(db->Checkpoint(), "checkpoint");
  // Drop the seed workload's log prefix: the restores under measurement
  // replay from the backups' scan start points, and every restore scans
  // the whole log file through the simulated device — a multi-megabyte
  // seed prefix would add a constant serial read that drowns the
  // parallel copy phase this experiment is about.
  Check(db->TruncateLog(kInvalidLsn), "truncate");
  Check(db->TakeBackup("x8_base").status(), "base backup");

  // Two delta rounds -> a 3-member chain with overlapping page sets
  // (files 0..31 of every partition change twice, so the coalesced
  // apply skips every superseded base/inc1 copy of them).
  for (int round = 1; round <= 2; ++round) {
    for (uint32_t p = 0; p < kPartitions; ++p) {
      for (uint32_t f = 0; f < kPages / 8; ++f) {
        Check(files[p]->WriteValues(f, {round, static_cast<int64_t>(f)}),
              "delta");
      }
    }
    Check(db->FlushAll(), "flush");
    Check(db->TakeIncrementalBackup("x8_inc" + std::to_string(round),
                                    round == 1 ? "x8_base" : "x8_inc1")
              .status(),
          "incremental");
  }
  // The full backup the gated BM_FullRestore family restores is taken at
  // the end of the log (cache drained), so its restore is copy-dominated
  // — RTO for "failure right after the latest full backup", the paper's
  // canonical media-recovery case.
  Check(db->FlushAll(), "flush");
  Check(db->TakeBackup("x8_full").status(), "full backup");
  Check(db->ForceLog(), "force");
  return engine;
}

void WipeStable(MemEnv* base) {
  std::unique_ptr<PageStore> stable = CheckResult(
      PageStore::Open(base, Database::StableName("x8"), kPartitions), "open S");
  for (PartitionId p = 0; p < kPartitions; ++p) {
    Check(stable->WipePartition(p), "wipe");
  }
}

void RunRestoreBench(benchmark::State& state, const std::string& chain) {
  std::unique_ptr<DeviceEngine> engine =
      NewBackedUpEngine(LatencyProfile::Hdd());
  OpRegistry registry;
  RegisterAllOps(&registry);

  RestoreOptions options;
  options.batch_pages = 32;  // the batched-sweep sweet spot, as in X7
  options.queue_depth = 2;   // overlap run N+1's read with run N's write
  options.threads = static_cast<uint32_t>(state.range(0));

  uint64_t pages_restored = 0;
  LatencyEnvStats before = engine->env.stats();
  for (auto _ : state) {
    // The media failure itself is not the measurement: wipe S through
    // the zero-latency base env outside the timed region.
    state.PauseTiming();
    WipeStable(&engine->base);
    state.ResumeTiming();
    MediaRecoveryReport report = CheckResult(
        RestoreFromBackupWithOptions(&engine->env,
                                     Database::StableName("x8"),
                                     Database::LogName("x8"), chain, registry,
                                     options),
        "restore");
    pages_restored += report.pages_restored;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_restored) *
                          static_cast<int64_t>(kPageSize));
  double restores = static_cast<double>(state.iterations());
  state.counters["pages_restored"] =
      static_cast<double>(pages_restored) / restores;
  // Simulated device time per restore: roughly constant across thread
  // counts (the same IOs happen), while real_time shrinks — the overlap
  // is the speedup.
  LatencyEnvStats after = engine->env.stats();
  state.counters["device_us"] =
      static_cast<double>(after.simulated_us - before.simulated_us) /
      restores;
  state.counters["device_ops"] =
      static_cast<double>(after.ops - before.ops) / restores;
  state.counters["device_syncs"] =
      static_cast<double>(after.syncs - before.syncs) / restores;
}

void BM_FullRestore(benchmark::State& state) {
  RunRestoreBench(state, "x8_full");
}
BENCHMARK(BM_FullRestore)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Restore workers run on their own threads; only wall clock shows
    // the overlap.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ChainRestore(benchmark::State& state) {
  RunRestoreBench(state, "x8_inc2");
}
BENCHMARK(BM_ChainRestore)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
