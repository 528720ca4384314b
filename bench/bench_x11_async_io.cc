// Experiment X11: async deep-queue IO backend throughput.
//
// One run at a time leaves the device idle between IOs; a deep
// submission queue keeps it busy with queue_depth of them. This
// benchmark measures the payoff of TransferOptions::queue_depth on two
// substrates:
//
//   BM_AsyncSweep/qd:Q    — quiesced full backup sweep over
//                           LatencyEnv(Nvme) (10 us op, 30 us sync,
//                           3 GB/s), batched 8-page runs (on a fast
//                           device per-op latency, not transfer time,
//                           is what a deep queue hides), one step (a
//                           deep queue is pointless chopped into step
//                           fences), qd1 = one run at a time, qd2 =
//                           the smallest overlapping window, qd8 =
//                           windows of 8 runs in flight
//   BM_AsyncRestore/qd:Q  — the media-recovery side, same profile
//   BM_PosixSweep/qd:Q    — the same sweep over real files (PosixEnv
//                           under TMPDIR): io_uring where the kernel
//                           grants it, the thread-pool backend elsewhere
//   BM_PosixRestore/qd:Q  — real-file restore
//
// The NVMe profile (not X7/X8's HDD) is deliberate: a deep queue pays
// where per-op latency dominates transfer time — exactly the regime
// fast devices live in.
//
// bench/registry.json derives speedup_async_qd8 (sweep) and
// speedup_async_restore_qd8 from the LatencyEnv families, which are
// hardware-portable, and speedup_posix_qd8 from the real-file family
// under a loose floor (real files sit behind the page cache, so the
// deep-queue win there is honest but machine-dependent).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "io/posix_env.h"
#include "recovery/media_recovery.h"

namespace llb {
namespace {

using benchutil::BenchEngine;
using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPartitions = 8;
constexpr uint32_t kPages = 256;  // per partition
constexpr uint32_t kBatch = 8;    // pages per run: 32 runs per partition
constexpr uint32_t kSteps = 1;    // one fence round; the queue stays deep

DbOptions EngineOptions() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;
  return options;
}

BackupJobOptions SweepJob(uint32_t queue_depth) {
  BackupJobOptions job;
  job.steps = kSteps;
  job.batch_pages = kBatch;
  job.resumable = false;  // cursor writes would add per-step syncs
  job.queue_depth = queue_depth;
  return job;
}

RestoreOptions RestoreJob(uint32_t queue_depth) {
  RestoreOptions options;
  options.batch_pages = kBatch;
  options.threads = 1;  // equal threads: the queue is the only variable
  options.queue_depth = queue_depth;
  return options;
}

// ---------- LatencyEnv(Nvme) families ----------

void BM_AsyncSweep(benchmark::State& state) {
  BenchEngine engine("x11", EngineOptions(), LatencyProfile::Nvme());
  // Every family drops the seed's log prefix: the measured transfers
  // replay the log from the backup's scan start, and a serial log read
  // would drown the copy phase under measurement (the X8 rationale).
  Check(engine.db()->TruncateLog(kInvalidLsn), "truncate");
  engine.Reopen();
  BackupJobOptions job = SweepJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_copied = 0;
  uint64_t read_batches = 0;
  uint64_t device_us_before = engine.latency()->stats().simulated_us;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine.db()
              ->TakeBackupWithOptions("x11_" + std::to_string(round++), job,
                                      &stats)
              .status(),
          "backup");
    pages_copied += stats.pages_copied;
    read_batches += stats.read_batches;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_copied) *
                          static_cast<int64_t>(kPageSize));
  double sweeps = static_cast<double>(state.iterations());
  state.counters["read_batches"] = static_cast<double>(read_batches) / sweeps;
  // Simulated device time per sweep: constant across queue depths (the
  // same IOs happen), while real_time shrinks — the overlap is the win.
  state.counters["device_us"] =
      static_cast<double>(engine.latency()->stats().simulated_us -
                          device_us_before) /
      sweeps;
}
BENCHMARK(BM_AsyncSweep)
    ->ArgNames({"qd"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    // In-flight ops ride pool/ring threads; wall clock shows the overlap.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_AsyncRestore(benchmark::State& state) {
  BenchEngine engine("x11", EngineOptions(), LatencyProfile::Nvme());
  Check(engine.db()->TruncateLog(kInvalidLsn), "truncate");
  engine.Reopen();
  Check(engine.db()->TakeBackup("x11_full").status(), "full backup");
  Check(engine.db()->ForceLog(), "force");
  engine.Close();
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions options = RestoreJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_restored = 0;
  uint64_t device_us_before = engine.latency()->stats().simulated_us;
  for (auto _ : state) {
    // The media failure is not the measurement: wipe through the
    // zero-latency base env outside the timed region.
    state.PauseTiming();
    engine.WipeStable();
    state.ResumeTiming();
    MediaRecoveryReport report = CheckResult(
        RestoreFromBackupWithOptions(engine.env(),
                                     Database::StableName("x11"),
                                     Database::LogName("x11"), "x11_full",
                                     registry, options),
        "restore");
    pages_restored += report.pages_restored;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_restored) *
                          static_cast<int64_t>(kPageSize));
  state.counters["device_us"] =
      static_cast<double>(engine.latency()->stats().simulated_us -
                          device_us_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_AsyncRestore)
    ->ArgNames({"qd"})
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------- real-file (PosixEnv) families ----------

/// A fresh directory under $TMPDIR, removed with its files on
/// destruction: the real-file families' root.
class TempDir {
 public:
  TempDir()
      : path_((std::filesystem::temp_directory_path() / "llb_x11_XXXXXX")
                  .string()) {
    if (mkdtemp(path_.data()) == nullptr) {
      Check(Status::IoError("mkdtemp failed"), "tmpdir");
    }
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void DeleteFilesContaining(Env* env, const std::string& substring) {
  for (const std::string& name : env->ListFiles()) {
    if (name.find(substring) != std::string::npos) {
      Check(env->DeleteFile(name), "delete");
    }
  }
}

void BM_PosixSweep(benchmark::State& state) {
  TempDir dir;
  BenchEngine engine("x11", EngineOptions(), std::nullopt,
                     CheckResult(PosixEnv::Open(dir.path()), "posix env"));
  Check(engine.db()->TruncateLog(kInvalidLsn), "truncate");
  BackupJobOptions job = SweepJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_copied = 0;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    std::string name = "x11_bk_" + std::to_string(round++);
    Check(engine.db()->TakeBackupWithOptions(name, job, &stats).status(),
          "backup");
    pages_copied += stats.pages_copied;
    // Unbounded backup accumulation would fill the disk on long runs;
    // the cleanup is real IO, so it stays outside the timed region.
    state.PauseTiming();
    DeleteFilesContaining(engine.base(), name);
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_copied) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PosixSweep)
    ->ArgNames({"qd"})
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_PosixRestore(benchmark::State& state) {
  TempDir dir;
  BenchEngine engine("x11", EngineOptions(), std::nullopt,
                     CheckResult(PosixEnv::Open(dir.path()), "posix env"));
  Check(engine.db()->TruncateLog(kInvalidLsn), "truncate");
  Check(engine.db()->TakeBackup("x11_full").status(), "full backup");
  Check(engine.db()->ForceLog(), "force");
  engine.Close();
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions options = RestoreJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_restored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    engine.WipeStable();
    state.ResumeTiming();
    MediaRecoveryReport report = CheckResult(
        RestoreFromBackupWithOptions(engine.base(),
                                     Database::StableName("x11"),
                                     Database::LogName("x11"), "x11_full",
                                     registry, options),
        "restore");
    pages_restored += report.pages_restored;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_restored) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_PosixRestore)
    ->ArgNames({"qd"})
    ->Arg(1)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
