// Experiment X13: compressed, deduped backup throughput and ratio.
//
// Format-v2 backup stores (DbOptions::backup_compress /
// BackupJobOptions::compress) run every swept page through the frame
// encoder: RLE for sparse pages, a tiny zero frame for all-zero pages,
// and — once an earlier complete full exists — a ref frame for pages
// whose LSN matches the dedup base. The workload here is the skewed
// update mix the catalog targets: a seeded store where a hot 1/16th of
// the files churns between backups while the cold majority stays
// byte-identical, so successive compressed fulls are mostly dedup refs
// plus a small RLE-compressed hot set.
//
//   BM_CompressedBackup/compress:0  — raw (format-v1) full-sweep MB/s,
//                                     the cost baseline
//   BM_CompressedBackup/compress:1  — format-v2 full-sweep MB/s; the
//                                     first round is pure RLE (no base
//                                     yet), later rounds auto-dedup
//                                     against the previous generation
//
// Throughput counts *raw* bytes swept (pages_copied * kPageSize): the
// interesting number is how fast the sweep moves logical pages, not how
// few bytes it emits. The compressed variant also reports
// `compression_ratio` (manifest raw_bytes / stored_bytes summed over
// the run), gated at its bench/registry.json floor (EXPERIMENTS.md X13).

#include <benchmark/benchmark.h>

#include <string>

#include "bench/bench_util.h"

namespace llb {
namespace {

using benchutil::BenchEngine;
using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPages = 2048;
constexpr uint32_t kHotFiles = kPages / 16;
constexpr uint32_t kUpdatesPerRound = 64;
constexpr uint32_t kSteps = 8;

// Deterministic skewed churn: every round rewrites kUpdatesPerRound
// files drawn from the hot prefix, then flushes, so the hot pages'
// LSNs move (defeating dedup) while the cold majority stays ref-able.
void SkewedUpdateRound(BenchEngine* engine, uint32_t round) {
  FileStore* files = engine->files(0);
  for (uint32_t i = 0; i < kUpdatesPerRound; ++i) {
    uint32_t f = (round * 131 + i * 257) % kHotFiles;
    Check(files->WriteValues(
              f, {static_cast<int64_t>(f), static_cast<int64_t>(round + 2)}),
          "update");
  }
  Check(engine->db()->FlushAll(), "flush");
}

void BM_CompressedBackup(benchmark::State& state) {
  // One partition of one-page files covering the whole store: real
  // sealed pages whose payloads are small value lists over a zero tail,
  // the sparse shape application pages actually have, which is what RLE
  // monetises.
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;
  BenchEngine engine("db", options);

  BackupJobOptions job;
  job.steps = kSteps;
  job.compress = state.range(0) != 0;

  uint64_t pages_copied = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  uint32_t round = 0;
  for (auto _ : state) {
    state.PauseTiming();
    SkewedUpdateRound(&engine, round);
    state.ResumeTiming();
    BackupJobStats stats;
    BackupManifest manifest = CheckResult(
        engine.db()->TakeBackupWithOptions("x13_" + std::to_string(round++),
                                            job, &stats),
        "backup");
    pages_copied += stats.pages_copied;
    raw_bytes += manifest.raw_bytes;
    stored_bytes += manifest.stored_bytes;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_copied) *
                          static_cast<int64_t>(kPageSize));
  if (job.compress && stored_bytes > 0) {
    state.counters["compression_ratio"] =
        static_cast<double>(raw_bytes) / static_cast<double>(stored_bytes);
  }
}
BENCHMARK(BM_CompressedBackup)
    ->ArgNames({"compress"})
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
