// Epoch-based group commit over the one log append stream: epoch
// issuance and watermark publication, the commit's cut, the (epoch, LSN)
// merge rules of AppendSealed, the atomic seal-observer install, and the
// multi-threaded append / commit / observer-swap races (run under the
// tsan preset).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "filestore/filestore.h"
#include "io/mem_env.h"
#include "ship/log_shipper.h"
#include "ship/ship_channel.h"
#include "sim/harness.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace llb {
namespace {

LogRecord SampleRecord(int salt) {
  LogRecord rec;
  rec.op_code = kOpBtreeInsert;
  rec.writeset = {PageId{0, static_cast<uint32_t>(salt % 7)}};
  rec.payload = "payload-" + std::to_string(salt);
  return rec;
}

// ---------- epoch issuance and the watermark ----------

TEST(GroupCommitTest, EpochAdvancesAndPublishesOnForce) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->durable_epoch(), kInvalidEpoch);
  EXPECT_EQ(log->CurrentEpoch(), 1u);

  LogRecord rec = SampleRecord(1);
  Epoch epoch = kInvalidEpoch;
  EXPECT_EQ(log->Append(&rec, &epoch), 1u);
  EXPECT_EQ(epoch, 1u);
  EXPECT_LT(log->durable_lsn(), 1u);

  ASSERT_OK(log->Force());
  EXPECT_GE(log->durable_epoch(), 1u);
  EXPECT_GE(log->CurrentEpoch(), 2u);
  EXPECT_EQ(log->durable_lsn(), 1u);
  EXPECT_EQ(log->stats().group_commits, 1u);
  EXPECT_EQ(log->stats().forces, 1u);
}

TEST(GroupCommitTest, WaitEpochDurableLeadsCallerDrivenCommit) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  std::vector<Epoch> epochs;
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = SampleRecord(i);
    Epoch epoch = kInvalidEpoch;
    log->Append(&rec, &epoch);
    epochs.push_back(epoch);
  }
  ASSERT_OK(log->WaitEpochDurable(epochs.back()));
  EXPECT_GE(log->durable_epoch(), epochs.back());
  EXPECT_EQ(log->durable_lsn(), 5u);
  // Already-durable epochs return without another commit.
  uint64_t commits = log->stats().group_commits;
  ASSERT_OK(log->WaitEpochDurable(epochs.front()));
  EXPECT_EQ(log->stats().group_commits, commits);
  // Scan sees the records densely.
  Lsn expect = 1;
  ASSERT_OK(log->Scan(1, [&](const LogRecord& rec) {
    EXPECT_EQ(rec.lsn, expect++);
    return Status::OK();
  }));
  EXPECT_EQ(expect, 6u);
}

TEST(GroupCommitTest, WaitEpochDurableWorksSingleChannel) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord rec = SampleRecord(1);
  Epoch epoch = kInvalidEpoch;
  log->Append(&rec, &epoch);
  EXPECT_EQ(epoch, 1u);
  ASSERT_OK(log->WaitEpochDurable(epoch));
  EXPECT_GE(log->durable_epoch(), epoch);
  EXPECT_EQ(log->durable_lsn(), 1u);
  // kInvalidEpoch is a no-op wait.
  ASSERT_OK(log->WaitEpochDurable(kInvalidEpoch));
}

TEST(GroupCommitTest, EmptyEpochPublishesWithoutRecords) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  Epoch barrier = log->CurrentEpoch();
  ASSERT_OK(log->WaitEpochDurable(barrier));
  EXPECT_GE(log->durable_epoch(), barrier);
  EXPECT_EQ(log->next_lsn(), 1u);
}

TEST(GroupCommitTest, CommitWritesUpToTheTailCapturedAtEpochClose) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 3; ++i) {
    LogRecord rec = SampleRecord(i);
    log->Append(&rec);
  }
  std::vector<SealedSegment> seals;
  log->SetSealObserver(
      [&](const SealedSegment& segment) { seals.push_back(segment); });
  // The barrier runs after the epoch close and blocks until record R has
  // been appended behind the cut.
  std::atomic<bool> in_barrier{false};
  std::atomic<bool> release{false};
  log->SetCommitBarrier([&] {
    in_barrier.store(true);
    while (!release.load()) std::this_thread::yield();
    return Status::OK();
  });
  Status committed;
  std::thread committer([&] { committed = log->Force(); });
  while (!in_barrier.load()) std::this_thread::yield();
  LogRecord r = SampleRecord(9);
  Epoch r_epoch = kInvalidEpoch;
  EXPECT_EQ(log->Append(&r, &r_epoch), 4u);
  release.store(true);
  committer.join();
  ASSERT_OK(committed);

  EXPECT_EQ(log->durable_lsn(), 3u);
  EXPECT_LT(log->durable_epoch(), r_epoch);
  ASSERT_EQ(seals.size(), 1u);
  EXPECT_EQ(seals[0].first_lsn, 1u);
  EXPECT_EQ(seals[0].last_lsn, 3u);
  std::vector<Lsn> seen;
  auto scan = [&] {
    seen.clear();
    return log->Scan(1, [&](const LogRecord& rec) {
      seen.push_back(rec.lsn);
      return Status::OK();
    });
  };
  ASSERT_OK(scan());
  EXPECT_EQ(seen, (std::vector<Lsn>{1, 2, 3}));

  log->SetCommitBarrier(nullptr);
  ASSERT_OK(log->Force());
  EXPECT_EQ(log->durable_lsn(), 4u);
  EXPECT_GE(log->durable_epoch(), r_epoch);
  ASSERT_EQ(seals.size(), 2u);
  EXPECT_EQ(seals[1].first_lsn, 4u);
  EXPECT_EQ(seals[1].last_lsn, 4u);
  ASSERT_OK(scan());
  EXPECT_EQ(seen, (std::vector<Lsn>{1, 2, 3, 4}));
}

// ---------- AppendSealed epoch-merge edges ----------

TEST(GroupCommitTest, SealObserverSegmentsCarryEpochAndReplayIdempotently) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> primary,
                       LogManager::Open(&env, "primary"));
  std::vector<SealedSegment> seals;
  primary->SetSealObserver(
      [&](const SealedSegment& segment) { seals.push_back(segment); });
  for (int i = 0; i < 3; ++i) {
    LogRecord rec = SampleRecord(i);
    primary->Append(&rec);
  }
  ASSERT_OK(primary->Force());
  ASSERT_EQ(seals.size(), 1u);
  EXPECT_NE(seals[0].epoch, kInvalidEpoch);
  EXPECT_EQ(seals[0].first_lsn, 1u);
  EXPECT_EQ(seals[0].last_lsn, 3u);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> standby,
                       LogManager::Open(&env, "standby"));
  ASSERT_OK(standby->AppendSealed(seals[0], nullptr));
  EXPECT_EQ(standby->next_lsn(), 4u);
  EXPECT_EQ(standby->last_ingested_epoch(), seals[0].epoch);
  // Replaying the same epoch with already-ingested records is a no-op.
  ASSERT_OK(standby->AppendSealed(seals[0], nullptr));
  EXPECT_EQ(standby->next_lsn(), 4u);
}

TEST(GroupCommitTest, AppendSealedRejectsStaleEpochWithNewRecords) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> primary,
                       LogManager::Open(&env, "primary"));
  std::vector<SealedSegment> seals;
  primary->SetSealObserver(
      [&](const SealedSegment& segment) { seals.push_back(segment); });
  for (int round = 0; round < 2; ++round) {
    LogRecord rec = SampleRecord(round);
    primary->Append(&rec);
    ASSERT_OK(primary->Force());
  }
  ASSERT_EQ(seals.size(), 2u);
  ASSERT_GT(seals[1].epoch, seals[0].epoch);

  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> standby,
                       LogManager::Open(&env, "standby"));
  ASSERT_OK(standby->AppendSealed(seals[0], nullptr));
  // A segment stamped with an already-ingested epoch must not introduce
  // records the standby has not seen: rewind the stamp of the second
  // seal to the first's epoch.
  SealedSegment stale = seals[1];
  stale.epoch = seals[0].epoch;
  Status s = standby->AppendSealed(stale, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(standby->next_lsn(), 2u);
  // With its true (newer) epoch the same segment ingests fine.
  ASSERT_OK(standby->AppendSealed(seals[1], nullptr));
  EXPECT_EQ(standby->next_lsn(), 3u);
}

TEST(GroupCommitTest, AppendSealedEmptyEpochAdvancesBookkeepingOnly) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> standby,
                       LogManager::Open(&env, "standby"));
  SealedSegment idle;
  idle.seq = 1;
  idle.epoch = 7;
  ASSERT_OK(standby->AppendSealed(idle, nullptr));
  EXPECT_EQ(standby->last_ingested_epoch(), 7u);
  EXPECT_EQ(standby->next_lsn(), 1u);
  // Re-publishing the idle epoch is idempotent too.
  ASSERT_OK(standby->AppendSealed(idle, nullptr));
  EXPECT_EQ(standby->last_ingested_epoch(), 7u);
}

TEST(GroupCommitTest, AppendSealedRejectsNonContiguousEpochSegment) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> primary,
                       LogManager::Open(&env, "primary"));
  std::vector<SealedSegment> seals;
  primary->SetSealObserver(
      [&](const SealedSegment& segment) { seals.push_back(segment); });
  for (int round = 0; round < 2; ++round) {
    LogRecord rec = SampleRecord(round);
    primary->Append(&rec);
    ASSERT_OK(primary->Force());
  }
  ASSERT_EQ(seals.size(), 2u);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> standby,
                       LogManager::Open(&env, "standby"));
  // Skipping seal 0 leaves an LSN gap: the epoch stamp does not excuse
  // the contiguity rule.
  Status s = standby->AppendSealed(seals[1], nullptr);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(standby->next_lsn(), 1u);
}

TEST(GroupCommitTest, TruncatePrefixCommitsOpenEpochFirst) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 6; ++i) {
    LogRecord rec = SampleRecord(i);
    log->Append(&rec);
  }
  // Records 1..6 still sit in the append buffer; TruncatePrefix must group
  // -commit them before it rolls, or the kept suffix would be empty. They
  // share one file with records 1..3, which therefore stay too.
  ASSERT_OK(log->TruncatePrefix(4));
  std::vector<Lsn> seen;
  ASSERT_OK(log->Scan(4, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  EXPECT_EQ(seen, (std::vector<Lsn>{4, 5, 6}));
}

// ---------- races (meaningful under the tsan preset) ----------

TEST(GroupCommitTest, ConcurrentAppendersCommitsAndObserverSwaps) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  std::atomic<uint64_t> observed_records{0};

  std::vector<std::thread> appenders;
  for (int t = 0; t < kThreads; ++t) {
    appenders.emplace_back([&, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        LogRecord rec = SampleRecord(t * kPerThread + i);
        Epoch epoch = kInvalidEpoch;
        log->Append(&rec, &epoch);
        if (i % 16 == 0) ASSERT_OK(log->WaitEpochDurable(epoch));
      }
    });
  }
  // Rapid observer churn races the group commits' seal delivery: swaps
  // synchronize under the seal lock, so frames are never torn or
  // double-delivered to two observers.
  std::thread swapper([&]() {
    for (int i = 0; i < 50; ++i) {
      log->InstallSealObserver([&](const SealedSegment& segment) {
        if (segment.first_lsn != kInvalidLsn) {
          observed_records.fetch_add(
              segment.last_lsn - segment.first_lsn + 1);
        }
      });
      log->SetSealObserver(nullptr);
    }
  });
  // A commit-leader thread racing the appenders' piggyback waits.
  std::thread forcer([&]() {
    for (int i = 0; i < 20; ++i) ASSERT_OK(log->Force());
  });
  for (auto& th : appenders) th.join();
  swapper.join();
  forcer.join();
  ASSERT_OK(log->Force());

  EXPECT_EQ(log->durable_lsn(), uint64_t{kThreads} * kPerThread);
  Lsn expect = 1;
  ASSERT_OK(log->Scan(1, [&](const LogRecord& rec) {
    EXPECT_EQ(rec.lsn, expect++);
    return Status::OK();
  }));
  EXPECT_EQ(expect, uint64_t{kThreads} * kPerThread + 1);
}

TEST(GroupCommitTest, ShipperAttachRacesConcurrentForces) {
  // The log_shipper.h install hazard: Attach's catch-up scan and its
  // observer install must not lose (or double-count in a torn way) a
  // seal that lands in between. The shipper installs atomically via
  // InstallSealObserver, so every durable LSN reaches the channel
  // exactly once after enough Pumps.
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "primary"));
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    int salt = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      LogRecord rec = SampleRecord(salt++);
      log->Append(&rec);
      ASSERT_OK(log->Force());
    }
  });
  // Let some seals land before the attach so the catch-up scan has work.
  while (log->durable_lsn() < 20) std::this_thread::yield();

  FileShipChannel channel(&env, "spool");
  LogShipper shipper(&env, "primary", log.get(), &channel);
  ASSERT_OK(shipper.Attach());
  stop.store(true);
  writer.join();
  ASSERT_OK(log->Force());
  while (shipper.backlog() > 0) ASSERT_OK(shipper.Pump());

  // Every durable LSN must appear in the channel, no gaps: a lost
  // mid-attach seal would leave a hole between the catch-up frame and the
  // first observer frame. Poll may return frames in any order (the spool
  // lists them by file name, so f10 precedes f2), and seq order is not
  // LSN order either: the catch-up frame takes its seq after the seals
  // that raced its scan. Walk them by first LSN, as the applier does.
  std::vector<ShipFrame> frames;
  ASSERT_OK(channel.Poll(1, &frames));
  std::sort(frames.begin(), frames.end(),
            [](const ShipFrame& a, const ShipFrame& b) {
              return a.first_lsn < b.first_lsn;
            });
  Lsn next = 1;
  for (const ShipFrame& frame : frames) {
    if (frame.first_lsn == kInvalidLsn) continue;
    EXPECT_LE(frame.first_lsn, next);  // duplicates fine, gaps not
    if (frame.last_lsn >= next) next = frame.last_lsn + 1;
  }
  EXPECT_EQ(next, log->durable_lsn() + 1);
  EXPECT_EQ(shipper.stats().last_shipped_lsn, log->durable_lsn());
}

// ---------- engine-level installs ----------

// Four updaters race back-to-back backups; every install takes the
// three-phase path.
TEST(GroupCommitTest, ConcurrentUpdatersDuringBackupStayConsistent) {
  DbOptions options;
  options.partitions = 4;
  options.pages_per_partition = 16;
  options.cache_pages = 12;  // < working set: every updater evicts
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_steps = 4;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::vector<std::unique_ptr<FileStore>> files;
  for (int t = 0; t < kThreads; ++t) {
    files.push_back(std::make_unique<FileStore>(
        engine->db(), /*partition=*/t, /*base_page=*/0,
        /*pages_per_file=*/1, /*num_files=*/16));
  }
  std::atomic<bool> stop{false};
  std::thread backups([&]() {
    int round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_OK(
          engine->db()->TakeBackup("bk" + std::to_string(round++)).status());
    }
  });
  std::vector<std::thread> updaters;
  for (int t = 0; t < kThreads; ++t) {
    updaters.emplace_back([&, t]() {
      for (int i = 0; i < kRounds; ++i) {
        ASSERT_OK(files[t]->WriteValues(
            static_cast<uint32_t>(i) % 16,
            {static_cast<int64_t>(t * 1000 + i)}));
      }
    });
  }
  for (auto& th : updaters) th.join();
  stop.store(true);
  backups.join();

  // Every file holds its last-written value; the epoch watermark never
  // let a flushed page outrun its Iw record, so the final flush + reread
  // must agree with the in-memory truth.
  ASSERT_OK(engine->db()->FlushAll());
  for (int t = 0; t < kThreads; ++t) {
    for (uint32_t f = 0; f < 16; ++f) {
      ASSERT_OK_AND_ASSIGN(std::vector<int64_t> values,
                           files[t]->ReadValues(f));
      int last = -1;
      for (int i = 0; i < kRounds; ++i) {
        if (static_cast<uint32_t>(i) % 16 == f) last = i;
      }
      ASSERT_GE(last, 0);
      ASSERT_EQ(values.size(), 1u);
      EXPECT_EQ(values[0], t * 1000 + last);
    }
  }
  DbStats stats = engine->db()->GatherStats();
  EXPECT_GT(stats.cache.overlapped_installs, 0u);
  EXPECT_GE(stats.open_epoch, stats.durable_epoch);
}

}  // namespace
}  // namespace llb
