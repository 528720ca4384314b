// Experiment X6: batched backup sweep throughput.
//
// The sweep (BackupJobOptions::batch_pages = K) moves maximal contiguous
// runs of up to K pages, each with one read from S and one write into B
// — one IO and one durability round trip per run, and a single CRC pass
// per page (sealed bytes are copied raw). K = 1 is the page-at-a-time
// sweep. Both rows run at the default queue depth: one run in flight.
//
//   BM_BatchedSweep/batch:K         — quiesced full-sweep MB/s
//   BM_BatchedSweepOnline/batch:K   — sweep MB/s with mid-step updates
//                                     (fence traffic and identity
//                                     writes live)
//
// Counters (see tools/benchrunner, which aggregates them into
// BENCH_backup.json): fence_updates, latch_acquisitions (1 per run per
// side), read/write_batches, read/write_stage_us per sweep,
// identity_writes per sweep for the online variant.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "filestore/filestore.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPages = 2048;
constexpr uint32_t kSteps = 8;

std::unique_ptr<TestEngine> NewLoadedEngine(FileStore** files_out) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;
  std::unique_ptr<TestEngine> engine =
      CheckResult(TestEngine::Create(options), "create");
  // One-page files covering the whole store, so the sweep reads real
  // sealed pages rather than zero-page holes.
  auto* files = new FileStore(engine->db(), /*partition=*/0, /*base_page=*/0,
                              /*pages_per_file=*/1, /*num_files=*/kPages);
  for (uint32_t f = 0; f < kPages; ++f) {
    Check(files->WriteValues(f, {static_cast<int64_t>(f), 1}), "seed");
  }
  Check(engine->db()->FlushAll(), "flush");
  Check(engine->db()->Checkpoint(), "checkpoint");
  *files_out = files;
  return engine;
}

void ReportSweepCounters(benchmark::State& state, const BackupJobStats& stats,
                         double sweeps) {
  state.counters["fence_updates"] =
      static_cast<double>(stats.fence_updates) / sweeps;
  // Per-run economics: one round trip per run per side, so K pages per
  // run cut them K-fold.
  state.counters["latch_acquisitions"] =
      static_cast<double>(stats.read_batches + stats.write_batches) / sweeps;
  state.counters["read_batches"] =
      static_cast<double>(stats.read_batches) / sweeps;
  state.counters["write_batches"] =
      static_cast<double>(stats.write_batches) / sweeps;
  state.counters["read_stage_us"] =
      static_cast<double>(stats.read_stage_us) / sweeps;
  state.counters["write_stage_us"] =
      static_cast<double>(stats.write_stage_us) / sweeps;
}

void BM_BatchedSweep(benchmark::State& state) {
  FileStore* files = nullptr;
  std::unique_ptr<TestEngine> engine = NewLoadedEngine(&files);
  std::unique_ptr<FileStore> files_owner(files);

  BackupJobOptions job;
  job.steps = kSteps;
  job.batch_pages = static_cast<uint32_t>(state.range(0));

  BackupJobStats total;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine->db()
              ->TakeBackupWithOptions("x6_" + std::to_string(round++), job,
                                      &stats)
              .status(),
          "backup");
    total.pages_copied += stats.pages_copied;
    total.fence_updates += stats.fence_updates;
    total.read_batches += stats.read_batches;
    total.write_batches += stats.write_batches;
    total.read_stage_us += stats.read_stage_us;
    total.write_stage_us += stats.write_stage_us;
  }
  state.SetBytesProcessed(static_cast<int64_t>(total.pages_copied) *
                          static_cast<int64_t>(kPageSize));
  ReportSweepCounters(state, total, static_cast<double>(state.iterations()));
}
BENCHMARK(BM_BatchedSweep)
    ->ArgNames({"batch"})
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BatchedSweepOnline(benchmark::State& state) {
  FileStore* files = nullptr;
  std::unique_ptr<TestEngine> engine = NewLoadedEngine(&files);
  std::unique_ptr<FileStore> files_owner(files);

  BackupJobOptions job;
  job.steps = kSteps;
  job.batch_pages = static_cast<uint32_t>(state.range(0));
  // Deterministic "concurrency": each step, update and flush files spread
  // across the store, so flushes land in every fence region and the
  // batched path is measured with live identity-write traffic.
  uint32_t tick = 0;
  job.mid_step = [&](PartitionId, uint32_t) -> Status {
    for (int i = 0; i < 8; ++i) {
      uint32_t f = (tick * 131 + static_cast<uint32_t>(i) * 257) % kPages;
      LLB_RETURN_IF_ERROR(
          files->WriteValues(f, {static_cast<int64_t>(f), 2}));
      LLB_RETURN_IF_ERROR(engine->db()->FlushPage(files->PagesOf(f)[0]));
    }
    ++tick;
    return Status::OK();
  };

  BackupJobStats total;
  uint64_t identity_before = engine->db()->GatherStats().cache.identity_writes;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine->db()
              ->TakeBackupWithOptions("x6on_" + std::to_string(round++), job,
                                      &stats)
              .status(),
          "backup");
    total.pages_copied += stats.pages_copied;
    total.fence_updates += stats.fence_updates;
    total.read_batches += stats.read_batches;
    total.write_batches += stats.write_batches;
    total.read_stage_us += stats.read_stage_us;
    total.write_stage_us += stats.write_stage_us;
  }
  uint64_t identity_after = engine->db()->GatherStats().cache.identity_writes;
  state.SetBytesProcessed(static_cast<int64_t>(total.pages_copied) *
                          static_cast<int64_t>(kPageSize));
  double sweeps = static_cast<double>(state.iterations());
  ReportSweepCounters(state, total, sweeps);
  state.counters["identity_writes"] =
      static_cast<double>(identity_after - identity_before) / sweeps;
}
BENCHMARK(BM_BatchedSweepOnline)
    ->ArgNames({"batch"})
    ->Arg(1)
    ->Arg(16)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
