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
// tools/benchrunner derives speedup_async_qd8 (sweep) and
// speedup_async_restore_qd8 from the LatencyEnv families —
// hardware-portable ratios gated >= 2x by tools/bench_check.py — and
// speedup_posix_qd8 from the real-file family, gated by the loose
// --min-posix-speedup floor (real files sit behind the page cache, so
// the deep-queue win there is honest but machine-dependent).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "filestore/filestore.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"

namespace llb {
namespace {

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

void SeedDatabase(Database* db) {
  std::vector<std::unique_ptr<FileStore>> files;
  for (uint32_t p = 0; p < kPartitions; ++p) {
    files.push_back(std::make_unique<FileStore>(
        db, p, /*base_page=*/0, /*pages_per_file=*/1, /*num_files=*/kPages));
    for (uint32_t f = 0; f < kPages; ++f) {
      Check(files[p]->WriteValues(f, {static_cast<int64_t>(p) * 1000 + f, 1}),
            "seed");
    }
  }
  Check(db->FlushAll(), "flush");
  Check(db->Checkpoint(), "checkpoint");
  // The measured transfers replay the log from the backup's scan start;
  // drop the seed prefix so a serial log read does not drown the copy
  // phase under measurement (the X8 rationale).
  Check(db->TruncateLog(kInvalidLsn), "truncate");
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

/// A database over LatencyEnv(MemEnv), the X7/X8 idiom: seeded through
/// the zero-latency base env, measured through the latency wrapper.
struct DeviceEngine {
  MemEnv base;
  LatencyEnv env;
  std::unique_ptr<Database> db;

  explicit DeviceEngine(const LatencyProfile& profile)
      : env(&base, profile) {}
};

std::unique_ptr<DeviceEngine> NewLoadedEngine() {
  auto engine = std::make_unique<DeviceEngine>(LatencyProfile::Nvme());
  engine->db = CheckResult(
      Database::Open(&engine->base, "x11", EngineOptions()), "open");
  RegisterAllOps(engine->db->registry());
  Check(engine->db->Recover(), "recover");
  SeedDatabase(engine->db.get());
  engine->db.reset();

  engine->db = CheckResult(
      Database::Open(&engine->env, "x11", EngineOptions()), "reopen");
  RegisterAllOps(engine->db->registry());
  Check(engine->db->Recover(), "recover");
  return engine;
}

void BM_AsyncSweep(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine = NewLoadedEngine();
  BackupJobOptions job = SweepJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_copied = 0;
  uint64_t read_batches = 0;
  uint64_t device_us_before = engine->env.stats().simulated_us;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    Check(engine->db
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
      static_cast<double>(engine->env.stats().simulated_us -
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

void WipeStable(Env* env, const std::string& db_name) {
  std::unique_ptr<PageStore> stable = CheckResult(
      PageStore::Open(env, Database::StableName(db_name), kPartitions),
      "open S");
  for (PartitionId p = 0; p < kPartitions; ++p) {
    Check(stable->WipePartition(p), "wipe");
  }
}

void BM_AsyncRestore(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine = NewLoadedEngine();
  Check(engine->db->TakeBackup("x11_full").status(), "full backup");
  Check(engine->db->ForceLog(), "force");
  engine->db.reset();
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions options = RestoreJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_restored = 0;
  uint64_t device_us_before = engine->env.stats().simulated_us;
  for (auto _ : state) {
    // The media failure is not the measurement: wipe through the
    // zero-latency base env outside the timed region.
    state.PauseTiming();
    WipeStable(&engine->base, "x11");
    state.ResumeTiming();
    MediaRecoveryReport report = CheckResult(
        RestoreFromBackupWithOptions(&engine->env,
                                     Database::StableName("x11"),
                                     Database::LogName("x11"), "x11_full",
                                     registry, options),
        "restore");
    pages_restored += report.pages_restored;
  }
  state.SetBytesProcessed(static_cast<int64_t>(pages_restored) *
                          static_cast<int64_t>(kPageSize));
  state.counters["device_us"] =
      static_cast<double>(engine->env.stats().simulated_us -
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

/// A file-backed engine under a private temp root, removed on teardown.
struct PosixEngine {
  std::string root;
  std::unique_ptr<PosixEnv> env;
  std::unique_ptr<Database> db;

  ~PosixEngine() {
    db.reset();
    env.reset();
    if (!root.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(root, ec);
    }
  }
};

std::unique_ptr<PosixEngine> NewPosixEngine() {
  const char* tmp = getenv("TMPDIR");
  std::string pattern =
      std::string(tmp != nullptr ? tmp : "/tmp") + "/llb_x11_XXXXXX";
  std::vector<char> buf(pattern.begin(), pattern.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    Check(Status::IoError("mkdtemp failed"), "tmpdir");
  }
  auto engine = std::make_unique<PosixEngine>();
  engine->root = buf.data();
  engine->env = CheckResult(PosixEnv::Open(engine->root), "posix env");
  engine->db = CheckResult(
      Database::Open(engine->env.get(), "x11", EngineOptions()), "open");
  RegisterAllOps(engine->db->registry());
  Check(engine->db->Recover(), "recover");
  SeedDatabase(engine->db.get());
  return engine;
}

void DeleteFilesContaining(Env* env, const std::string& substring) {
  for (const std::string& name : env->ListFiles()) {
    if (name.find(substring) != std::string::npos) {
      Check(env->DeleteFile(name), "delete");
    }
  }
}

void BM_PosixSweep(benchmark::State& state) {
  std::unique_ptr<PosixEngine> engine = NewPosixEngine();
  BackupJobOptions job = SweepJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_copied = 0;
  int round = 0;
  for (auto _ : state) {
    BackupJobStats stats;
    std::string name = "x11_bk_" + std::to_string(round++);
    Check(engine->db->TakeBackupWithOptions(name, job, &stats).status(),
          "backup");
    pages_copied += stats.pages_copied;
    // Unbounded backup accumulation would fill the disk on long runs;
    // the cleanup is real IO, so it stays outside the timed region.
    state.PauseTiming();
    DeleteFilesContaining(engine->env.get(), name);
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
  std::unique_ptr<PosixEngine> engine = NewPosixEngine();
  Check(engine->db->TakeBackup("x11_full").status(), "full backup");
  Check(engine->db->ForceLog(), "force");
  engine->db.reset();
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions options = RestoreJob(static_cast<uint32_t>(state.range(0)));

  uint64_t pages_restored = 0;
  for (auto _ : state) {
    state.PauseTiming();
    WipeStable(engine->env.get(), "x11");
    state.ResumeTiming();
    MediaRecoveryReport report = CheckResult(
        RestoreFromBackupWithOptions(engine->env.get(),
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
