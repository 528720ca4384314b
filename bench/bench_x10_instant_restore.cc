// Experiment X10: instant restore — time to first transaction (TTFT)
// and transaction throughput while media recovery runs underneath.
//
// X8 measures how fast an off-line restore rebuilds S; this experiment
// measures how long the *database* is down. With off-line restore the
// answer is "the whole rebuild": no transaction runs until every page is
// back. With instant restore (Database::OpenRestoring) the database
// opens over the wiped store immediately — the first transaction waits
// only for the chain manifests, the log-slice snapshot, and the one
// influence closure it faults in — while a background sweep fills in the
// rest. Same device model as X7/X8: MemEnv wrapped in a LatencyEnv with
// the HDD profile (2 ms seek, 4 ms sync, 100 MB/s), 8 partitions x 256
// pages:
//
//   BM_OfflineRestoreTTFT/threads:T — wipe S, full off-line restore
//                                     (batch 32, 2 runs in flight,
//                                     T workers),
//                                     open, recover, first read
//   BM_InstantRestoreTTFT           — wipe S, OpenRestoring, recover,
//                                     first read (faults its closure)
//   BM_TransactionsDuringRestore    — transactions/s sustained while the
//                                     background sweep drains, faults
//                                     and sweep steps interleaved
//   BM_FaultLatencyVsSlice/slice:N  — p50/p99 of one fault as the
//                                     media-recovery slice grows to N
//                                     records (zero-latency base env)
//
// tools/benchrunner derives ttft_speedup = offline-TTFT(t1) /
// instant-TTFT and tools/bench_check.py gates it at >= 10x
// (EXPERIMENTS.md X10). The transactions-during-restore rate is
// reported raw: its off-line counterpart is identically zero.
//
// The binary also asserts (once, through the zero-latency base env)
// that a drained instant restore leaves S byte-identical to what the
// off-line restore produces — the speedup is not buying a different
// answer.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "filestore/filestore.h"
#include "io/durable_cursor.h"
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
constexpr char kDbName[] = "x10";
constexpr char kBackupName[] = "x10_full";

DbOptions X10Options() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 256;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = kSteps;
  options.restore_batch_pages = 32;  // the batched-IO sweet spot, as in X8
  return options;
}

/// A database over LatencyEnv(MemEnv), as in X7/X8: seeded and backed up
/// through the zero-latency base env (setup is not the measurement),
/// restored through the latency wrapper of the same MemEnv.
struct DeviceEngine {
  MemEnv base;
  LatencyEnv env;

  explicit DeviceEngine(const LatencyProfile& profile)
      : env(&base, profile) {}
};

/// Post-backup slice records NewBackedUpEngine always writes: per
/// partition, 16 updates and 16 copies.
constexpr uint32_t kBaseSliceRecords = kPartitions * 16 * 2;

/// `slice_records` (at least kBaseSliceRecords) sizes the media-recovery
/// slice; records beyond the base set are single-page updates spread
/// over the pages the copies leave alone, so closures stay small while
/// the slice grows.
std::unique_ptr<DeviceEngine> NewBackedUpEngine(
    const LatencyProfile& profile,
    uint32_t slice_records = kBaseSliceRecords) {
  DbOptions options = X10Options();
  auto engine = std::make_unique<DeviceEngine>(profile);
  std::unique_ptr<Database> db =
      CheckResult(Database::Open(&engine->base, kDbName, options), "open");
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
  // Drop the seed workload's log prefix, as in X8: every restore under
  // measurement scans the log from the backup's start point, and a
  // multi-megabyte seed prefix would add a constant serial read that
  // drowns the effect being measured.
  Check(db->TruncateLog(kInvalidLsn), "truncate");
  Check(db->TakeBackup(kBackupName).status(), "backup");

  // Post-backup updates form the media-recovery slice both restores
  // roll forward through. Copies create logical cross-page dependencies,
  // so instant-restore faults pay real (small) influence closures, not
  // just singleton physical replays.
  for (uint32_t p = 0; p < kPartitions; ++p) {
    for (uint32_t f = 0; f < 16; ++f) {
      Check(files[p]->WriteValues(f, {static_cast<int64_t>(f), 2}), "update");
      Check(files[p]->Copy(f, f + 16), "copy");
    }
  }
  for (uint32_t i = kBaseSliceRecords; i < slice_records; ++i) {
    const uint32_t p = i % kPartitions;
    const uint32_t f = 32 + (i / kPartitions) % (kPages - 32);
    Check(files[p]->WriteValues(f, {static_cast<int64_t>(i), 4}), "update");
  }
  Check(db->FlushAll(), "flush");
  Check(db->ForceLog(), "force");
  return engine;
}

void WipeStable(MemEnv* base) {
  std::unique_ptr<PageStore> stable =
      CheckResult(PageStore::Open(base, Database::StableName(kDbName),
                                  kPartitions),
                  "open S");
  for (PartitionId p = 0; p < kPartitions; ++p) {
    Check(stable->WipePartition(p), "wipe");
  }
}

/// Discards an abandoned instant restore between iterations: drop the
/// handle, remove the restored-bitmap cell, wipe S — all through the
/// zero-latency base env, outside the timed region.
void ResetForNextRestore(DeviceEngine* engine, std::unique_ptr<Database>* db) {
  db->reset();
  Status removed = DurableCursor::Remove(&engine->base,
                                         Database::RestoreBitmapName(kDbName));
  if (!removed.ok() && !removed.IsNotFound()) Check(removed, "remove bitmap");
  WipeStable(&engine->base);
}

/// One-shot equivalence check (zero-latency base env): a drained instant
/// restore must leave S byte-identical to the off-line restore.
void CheckInstantMatchesOffline(DeviceEngine* engine) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions restore;
  restore.batch_pages = 32;
  WipeStable(&engine->base);
  Check(RestoreFromBackupWithOptions(&engine->base,
                                     Database::StableName(kDbName),
                                     Database::LogName(kDbName), kBackupName,
                                     registry, restore)
            .status(),
        "offline restore");
  std::unique_ptr<PageStore> stable =
      CheckResult(PageStore::Open(&engine->base, Database::StableName(kDbName),
                                  kPartitions),
                  "open S");
  std::vector<std::string> offline_pages;
  offline_pages.reserve(uint64_t{kPartitions} * kPages);
  for (PartitionId p = 0; p < kPartitions; ++p) {
    for (uint32_t page = 0; page < kPages; ++page) {
      PageImage image;
      Check(stable->ReadPage(PageId{p, page}, &image), "read offline");
      offline_pages.push_back(image.raw_string());
    }
  }
  stable.reset();

  WipeStable(&engine->base);
  std::unique_ptr<Database> db = CheckResult(
      Database::OpenRestoring(&engine->base, kDbName, X10Options(),
                              kBackupName),
      "open restoring");
  RegisterAllOps(db->registry());
  Check(db->Recover(), "recover restoring");
  PageImage first;
  Check(db->ReadPage(PageId{0, 0}, &first), "fault");
  Check(db->FinishRestore(), "finish");
  db.reset();

  stable = CheckResult(PageStore::Open(&engine->base,
                                       Database::StableName(kDbName),
                                       kPartitions),
                       "open S");
  size_t index = 0;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    for (uint32_t page = 0; page < kPages; ++page, ++index) {
      PageImage image;
      Check(stable->ReadPage(PageId{p, page}, &image), "read instant");
      if (image.raw_string() != offline_pages[index]) {
        fprintf(stderr,
                "FATAL: instant restore diverges from offline restore at "
                "page (%u,%u)\n",
                static_cast<unsigned>(p), page);
        abort();
      }
    }
  }
}

// TTFT of the off-line procedure: nothing runs until the whole store is
// rebuilt, so the first transaction pays the full restore (the tuned
// pipeline: batch 32, 2 runs in flight, T workers) plus open + crash
// recovery.
void BM_OfflineRestoreTTFT(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine =
      NewBackedUpEngine(LatencyProfile::Hdd());
  OpRegistry registry;
  RegisterAllOps(&registry);
  RestoreOptions restore;
  restore.batch_pages = 32;
  restore.queue_depth = 2;
  restore.threads = static_cast<uint32_t>(state.range(0));
  std::unique_ptr<Database> db;
  for (auto _ : state) {
    state.PauseTiming();
    ResetForNextRestore(engine.get(), &db);
    state.ResumeTiming();
    Check(RestoreFromBackupWithOptions(&engine->env,
                                       Database::StableName(kDbName),
                                       Database::LogName(kDbName), kBackupName,
                                       registry, restore)
              .status(),
          "restore");
    db = CheckResult(Database::Open(&engine->env, kDbName, X10Options()),
                     "open");
    RegisterAllOps(db->registry());
    Check(db->Recover(), "recover");
    PageImage first;
    Check(db->ReadPage(PageId{0, 0}, &first), "first read");
  }
}
BENCHMARK(BM_OfflineRestoreTTFT)
    ->ArgNames({"threads"})
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// TTFT of instant restore: OpenRestoring + crash recovery + the first
// read, which faults its influence closure in from the backup chain.
// The rest of the store is still unrestored when the iteration ends —
// that is the point; the background drain is measured separately.
void BM_InstantRestoreTTFT(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine =
      NewBackedUpEngine(LatencyProfile::Hdd());
  std::unique_ptr<Database> db;
  uint64_t restored_at_first = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ResetForNextRestore(engine.get(), &db);
    state.ResumeTiming();
    db = CheckResult(Database::OpenRestoring(&engine->env, kDbName,
                                             X10Options(), kBackupName),
                     "open restoring");
    RegisterAllOps(db->registry());
    Check(db->Recover(), "recover");
    PageImage first;
    Check(db->ReadPage(PageId{0, 0}, &first), "first read");
    restored_at_first += db->restore_status().pages_restored;
  }
  state.counters["pages_restored_at_first_txn"] =
      static_cast<double>(restored_at_first) /
      static_cast<double>(state.iterations());
  ResetForNextRestore(engine.get(), &db);
}
BENCHMARK(BM_InstantRestoreTTFT)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Transaction throughput while the restore drains: the workload keeps
// writing (each write faults its pages' closures on demand) interleaved
// with background RestoreStep batches until every page is back. The
// off-line counterpart of this number is identically zero.
void BM_TransactionsDuringRestore(benchmark::State& state) {
  std::unique_ptr<DeviceEngine> engine =
      NewBackedUpEngine(LatencyProfile::Hdd());
  static std::atomic<bool> equivalence_checked{false};
  if (!equivalence_checked.exchange(true)) {
    CheckInstantMatchesOffline(engine.get());
  }
  std::unique_ptr<Database> db;
  uint64_t transactions = 0;
  uint64_t faulted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    ResetForNextRestore(engine.get(), &db);
    db = CheckResult(Database::OpenRestoring(&engine->env, kDbName,
                                             X10Options(), kBackupName),
                     "open restoring");
    RegisterAllOps(db->registry());
    Check(db->Recover(), "recover");
    state.ResumeTiming();
    FileStore files(db.get(), /*partition=*/0, /*base_page=*/0,
                    /*pages_per_file=*/1, /*num_files=*/kPages);
    uint32_t next = 0;
    while (db->restoring()) {
      for (int i = 0; i < 4; ++i, ++next) {
        uint32_t f = next % 64;
        Check(files.WriteValues(f, {static_cast<int64_t>(f), 3}), "write");
        ++transactions;
      }
      CheckResult(db->RestoreStep(), "step");
    }
    faulted += db->restore_status().pages_faulted;
    Check(db->FlushAll(), "flush");
  }
  state.SetItemsProcessed(static_cast<int64_t>(transactions));
  ResetForNextRestore(engine.get(), &db);
}
BENCHMARK(BM_TransactionsDuringRestore)
    // Fixed iteration count: transactions append to the log, and the
    // next iteration's restore replays that slice — unbounded iteration
    // growth would skew later iterations.
    ->Iterations(3)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fault latency as the media-recovery slice grows. The slice is indexed
// by page, so a fault replays only its closure's history: its p99 should
// stay flat while the slice grows 64x. Runs on the zero-latency base env
// — every fault pays the same simulated device work (one carrier read,
// one install), so only the slice-dependent cost is
// left to vary. Each iteration opens a fresh restore and faults 64
// unrestored single-page closures one at a time.
void BM_FaultLatencyVsSlice(benchmark::State& state) {
  const uint32_t slice_records = static_cast<uint32_t>(state.range(0));
  std::unique_ptr<DeviceEngine> engine =
      NewBackedUpEngine(LatencyProfile::Hdd(), slice_records);
  constexpr uint32_t kFaults = 64;
  std::vector<double> fault_us;
  uint64_t faulted = 0;
  std::unique_ptr<Database> db;
  for (auto _ : state) {
    state.PauseTiming();
    ResetForNextRestore(engine.get(), &db);
    db = CheckResult(Database::OpenRestoring(&engine->base, kDbName,
                                             X10Options(), kBackupName),
                     "open restoring");
    RegisterAllOps(db->registry());
    Check(db->Recover(), "recover");
    state.ResumeTiming();
    for (uint32_t i = 0; i < kFaults; ++i) {
      PageId id{static_cast<PartitionId>(i % kPartitions),
                32 + (i / kPartitions) * 25};
      PageImage image;
      auto start = std::chrono::steady_clock::now();
      Check(db->ReadPage(id, &image), "fault");
      fault_us.push_back(std::chrono::duration<double, std::micro>(
                             std::chrono::steady_clock::now() - start)
                             .count());
    }
    faulted += db->restore_status().pages_faulted;
  }
  std::sort(fault_us.begin(), fault_us.end());
  auto percentile = [&](double q) {
    return fault_us[static_cast<size_t>(q * (fault_us.size() - 1))];
  };
  state.counters["fault_p50_us"] = percentile(0.50);
  state.counters["fault_p99_us"] = percentile(0.99);
  state.counters["pages_per_fault"] =
      static_cast<double>(faulted) / static_cast<double>(fault_us.size());
  state.SetItemsProcessed(static_cast<int64_t>(fault_us.size()));
  ResetForNextRestore(engine.get(), &db);
}
BENCHMARK(BM_FaultLatencyVsSlice)
    ->ArgNames({"slice"})
    ->Arg(kBaseSliceRecords)
    ->Arg(4096)
    ->Arg(16384)
    ->Iterations(5)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
