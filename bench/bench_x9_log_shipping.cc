// Experiment X9: log-shipping throughput — can a warm standby keep up
// with the primary it is replicating?
//
// The paper's fuzzy-backup machinery gives RPO in minutes (backup
// chains); log shipping tightens it to seconds by streaming every sealed
// log segment to a standby that replays it continuously. The number that
// matters is not either side's absolute MB/s but their *ratio*: if the
// standby applies shipped bytes at least as fast as the primary seals
// them, replication lag is bounded by one in-flight segment; if the
// ratio drops below 1 the standby falls behind without bound. Both
// families run the identical update round on MemEnv, so the ratio is
// CPU-bound on both sides and transfers across hardware:
//
//   BM_PrimaryIngest — execute a round of file-page writes, each logged
//                      as its full page image, force the log,
//                      pump the shipper into an in-process channel.
//                      Bytes = frame bytes durably published.
//   BM_StandbyApply  — drain a prebuilt spool of shipped frames into a
//                      freshly recovered standby (append to its log,
//                      force, redo onto stable, flush). Bytes = frame
//                      bytes applied.
//
// bench/registry.json derives ship_keepup_ratio = apply MB/s / ingest
// MB/s and its floor. Apply skips op execution and
// the shipper but pays a log force plus a page flush per frame (the
// standby's stable store tracks its log continuously, so a standby crash
// recovers from near the tail), so it lands somewhat below ingest on an
// all-memory env; in deployment the primary also checkpoints and shares
// its device with foreground reads. The gate is a regression floor for
// the apply path, not a proof of keep-up at any production rate.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "io/mem_env.h"
#include "ops/operation.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::Check;
using benchutil::CheckResult;

constexpr uint32_t kPartitions = 2;
constexpr uint32_t kPages = 64;  // per partition
constexpr uint32_t kFilesPerRound = 24;
constexpr uint32_t kSpoolRounds = 32;

DbOptions X9Options() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 128;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

/// A primary with its shipper attached to an in-process channel, plus
/// the FileStore handles the update rounds go through.
struct Primary {
  MemEnv env;
  std::unique_ptr<Database> db;
  std::vector<std::unique_ptr<FileStore>> files;
  InProcessShipChannel channel;
  std::unique_ptr<LogShipper> shipper;
  uint64_t round = 0;

  void Open() {
    db = CheckResult(Database::Open(&env, "x9", X9Options()), "open");
    RegisterAllOps(db->registry());
    Check(db->Recover(), "recover");
    shipper = std::make_unique<LogShipper>(&env, "x9", db->log(), &channel);
    Check(shipper->Attach(), "attach");
    for (uint32_t p = 0; p < kPartitions; ++p) {
      files.push_back(std::make_unique<FileStore>(
          db.get(), p, /*base_page=*/0, /*pages_per_file=*/1,
          /*num_files=*/kFilesPerRound));
    }
  }

  /// One update round: write every file, force the log (seals a
  /// segment), pump the shipper (publishes the frame durably). Each write
  /// logs the page's full image, so frames carry page-sized records and
  /// MB/s measures byte throughput on both sides (FileStore::WriteValues
  /// would log only its four values).
  void RunRound() {
    ++round;
    for (uint32_t p = 0; p < kPartitions; ++p) {
      for (uint32_t f = 0; f < kFilesPerRound; ++f) {
        const int64_t values[] = {static_cast<int64_t>(round),
                                  static_cast<int64_t>(p) * 1000 + f,
                                  static_cast<int64_t>(round * 31 + f),
                                  static_cast<int64_t>(round * 17 + p)};
        PageImage image;
        file_page::SetValues(&image, values, 4);
        LogRecord rec = MakePhysicalWrite(files[p]->PagesOf(f)[0], image);
        Check(db->Execute(&rec), "write");
      }
    }
    Check(db->ForceLog(), "force");
    Check(shipper->Pump(), "pump");
  }
};

void BM_PrimaryIngest(benchmark::State& state) {
  Primary primary;
  primary.Open();
  // The attach catch-up frame (file creation records) is setup, not
  // steady state.
  primary.RunRound();
  primary.channel.Trim(UINT64_MAX);

  const uint64_t bytes_before = primary.shipper->stats().bytes_sent;
  for (auto _ : state) {
    primary.RunRound();
    // The applier's consumption is the other family's measurement; here
    // the channel just stays flat.
    primary.channel.Trim(UINT64_MAX);
  }
  state.SetBytesProcessed(static_cast<int64_t>(
      primary.shipper->stats().bytes_sent - bytes_before));
  state.counters["frames_sent"] = static_cast<double>(
      primary.shipper->stats().frames_sent);
}
BENCHMARK(BM_PrimaryIngest)->Unit(benchmark::kMillisecond);

void BM_StandbyApply(benchmark::State& state) {
  // Build the spool once: kSpoolRounds update rounds, every frame kept
  // in the channel (no applier ran, so nothing was trimmed).
  Primary primary;
  primary.Open();
  for (uint32_t r = 0; r < kSpoolRounds; ++r) primary.RunRound();
  std::vector<ShipFrame> spool;
  Check(primary.channel.Poll(1, &spool), "capture spool");
  const Lsn spool_tail = primary.db->log()->durable_lsn();

  DbOptions standby_options = X9Options();
  standby_options.standby = true;

  uint64_t bytes_applied = 0;
  for (auto _ : state) {
    state.PauseTiming();
    // Fresh standby per iteration: wipe its files, recover (empty), and
    // refill a private channel with the whole spool.
    for (const std::string& file : primary.env.ListFiles()) {
      if (file.rfind("x9sb", 0) == 0) Check(primary.env.DeleteFile(file),
                                            "wipe standby");
    }
    std::unique_ptr<Database> standby = CheckResult(
        Database::Open(&primary.env, "x9sb", standby_options), "open standby");
    RegisterAllOps(standby->registry());
    Check(standby->Recover(), "recover standby");
    InProcessShipChannel channel;
    for (const ShipFrame& frame : spool) Check(channel.Send(frame), "refill");
    StandbyApplier applier(standby.get(), &channel);
    Check(applier.CatchUpFromLocalLog(), "catch up");
    state.ResumeTiming();

    Check(applier.Drain(), "drain");

    state.PauseTiming();
    if (applier.applied_lsn() != spool_tail) {
      fprintf(stderr, "FATAL: standby applied %llu, spool tail %llu\n",
              static_cast<unsigned long long>(applier.applied_lsn()),
              static_cast<unsigned long long>(spool_tail));
      abort();
    }
    bytes_applied += applier.stats().bytes_applied;
    standby.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes_applied));
  state.counters["frames_per_drain"] = static_cast<double>(spool.size());
  state.counters["spool_tail_lsn"] = static_cast<double>(spool_tail);
}
BENCHMARK(BM_StandbyApply)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace llb

BENCHMARK_MAIN();
