#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace llb {
namespace {

LogRecord SampleRecord(Lsn lsn) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.op_code = kOpBtreeInsert;
  rec.readset = {PageId{0, 1}, PageId{0, 2}};
  rec.writeset = {PageId{0, 2}};
  rec.payload = "payload-bytes";
  return rec;
}

TEST(LogRecordTest, EncodeDecodeRoundTrip) {
  LogRecord rec = SampleRecord(42);
  std::string buf;
  rec.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), rec.EncodedSize());

  Slice input(buf);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(&input, &out));
  EXPECT_EQ(out.lsn, 42u);
  EXPECT_EQ(out.op_code, kOpBtreeInsert);
  EXPECT_EQ(out.readset, rec.readset);
  EXPECT_EQ(out.writeset, rec.writeset);
  EXPECT_EQ(out.payload, "payload-bytes");
  EXPECT_TRUE(input.empty());
}

TEST(LogRecordTest, EmptySetsAndPayload) {
  LogRecord rec;
  rec.lsn = 1;
  rec.op_code = kOpCheckpoint;
  std::string buf;
  rec.EncodeTo(&buf);
  Slice input(buf);
  LogRecord out;
  ASSERT_OK(LogRecord::DecodeFrom(&input, &out));
  EXPECT_TRUE(out.readset.empty());
  EXPECT_TRUE(out.writeset.empty());
  EXPECT_TRUE(out.payload.empty());
}

TEST(LogRecordTest, TruncatedTailReportsEndOfLog) {
  LogRecord rec = SampleRecord(1);
  std::string buf;
  rec.EncodeTo(&buf);
  buf.resize(buf.size() - 3);
  Slice input(buf);
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(&input, &out).IsNotFound());
}

TEST(LogRecordTest, CorruptBodyReportsCorruption) {
  LogRecord rec = SampleRecord(1);
  std::string buf;
  rec.EncodeTo(&buf);
  buf[10] ^= 0x7F;
  Slice input(buf);
  LogRecord out;
  EXPECT_TRUE(LogRecord::DecodeFrom(&input, &out).IsCorruption());
}

TEST(LogRecordTest, ClassificationHelpers) {
  LogRecord rec;
  rec.op_code = kOpIdentityWrite;
  EXPECT_TRUE(rec.IsIdentityWrite());
  EXPECT_TRUE(rec.IsBlindWrite());
  rec.op_code = kOpPhysicalWrite;
  EXPECT_FALSE(rec.IsIdentityWrite());
  EXPECT_TRUE(rec.IsBlindWrite());
  rec.op_code = kOpCheckpoint;
  EXPECT_TRUE(rec.IsCheckpoint());
}

TEST(LogWriterReaderTest, WriteForceRead) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  for (Lsn i = 1; i <= 5; ++i) ASSERT_OK(writer.Add(SampleRecord(i)));
  ASSERT_OK(writer.Force());

  LogReader reader(file);
  ASSERT_OK(reader.Init());
  LogRecord rec;
  Lsn expected = 1;
  while (reader.Next(&rec)) {
    EXPECT_EQ(rec.lsn, expected++);
  }
  EXPECT_EQ(expected, 6u);
}

TEST(LogWriterReaderTest, UnforcedRecordsInvisibleAfterCrash) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  ASSERT_OK(writer.Add(SampleRecord(1)));
  ASSERT_OK(writer.Force());
  ASSERT_OK(writer.Add(SampleRecord(2)));
  // no Force for record 2
  env.CrashAndRestart();

  LogReader reader(file);
  ASSERT_OK(reader.Init());
  LogRecord rec;
  int count = 0;
  while (reader.Next(&rec)) ++count;
  EXPECT_EQ(count, 1);
}

TEST(LogWriterReaderTest, ReaderStopsCleanlyAtTornTail) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", true));
  LogWriter writer(file);
  ASSERT_OK(writer.Add(SampleRecord(1)));
  ASSERT_OK(writer.Force());
  // Simulate a torn append: raw garbage after the valid record.
  ASSERT_OK(file->Append(Slice("\x40\x00\x00\x00garbage")));
  LogReader reader(file);
  ASSERT_OK(reader.Init());
  LogRecord rec;
  int count = 0;
  while (reader.Next(&rec)) ++count;
  EXPECT_EQ(count, 1);
}

TEST(LogManagerTest, AssignsDenseLsns) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord a = SampleRecord(0), b = SampleRecord(0);
  EXPECT_EQ(log->Append(&a), 1u);
  EXPECT_EQ(log->Append(&b), 2u);
  EXPECT_EQ(log->next_lsn(), 3u);
}

TEST(LogManagerTest, ReopenContinuesLsnSequence) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    LogRecord a = SampleRecord(0);
    log->Append(&a);
    ASSERT_OK(log->Force());
  }
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 2u);
}

TEST(LogManagerTest, ScanFiltersByStartLsn) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  std::vector<Lsn> seen;
  ASSERT_OK(log->Scan(3, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  EXPECT_EQ(seen, (std::vector<Lsn>{3, 4, 5}));
}

TEST(LogManagerTest, DurableLsnAdvancesOnForce) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord rec = SampleRecord(0);
  log->Append(&rec);
  EXPECT_LT(log->durable_lsn(), 1u);
  ASSERT_OK(log->Force());
  EXPECT_EQ(log->durable_lsn(), 1u);
}

TEST(LogManagerTest, StatsTrackIdentityRecords) {
  // Counted at append time: no Force() before reading the stats.
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  LogRecord normal = SampleRecord(0);
  log->Append(&normal);
  LogRecord identity;
  identity.op_code = kOpIdentityWrite;
  identity.writeset = {PageId{0, 1}};
  identity.payload = std::string(kPageSize, 'x');
  log->Append(&identity);
  LogStats stats = log->stats();
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.identity_records, 1u);
  EXPECT_GT(stats.identity_bytes, kPageSize);
  EXPECT_GT(stats.bytes, stats.identity_bytes);
  log->ResetStats();
  EXPECT_EQ(log->stats().records, 0u);
}

TEST(LogManagerTest, ScanAbortsOnCallbackError) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 3; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  int calls = 0;
  Status s = log->Scan(1, [&](const LogRecord&) {
    ++calls;
    return Status::Internal("stop");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(calls, 1);
}

// ---------- segmented log ----------

/// Counts file operations by file name without faulting any.
class CountingPolicy : public FaultPolicy {
 public:
  FaultAction OnOp(FaultOp op, const std::string& file) override {
    if (op == FaultOp::kReadAt) ++reads[file];
    if (op == FaultOp::kWriteAt || op == FaultOp::kAppend) ++writes[file];
    return FaultAction::kNone;
  }
  int total_reads() const {
    int n = 0;
    for (const auto& [name, count] : reads) n += count;
    return n;
  }
  std::map<std::string, int> reads;
  std::map<std::string, int> writes;
};

/// Appends `n` records of 256 KiB each and forces: kRecordsPerRoll of
/// them fill one file.
void AppendBig(LogManager* log, int n) {
  for (int i = 0; i < n; ++i) {
    LogRecord rec = SampleRecord(0);
    rec.payload = std::string(256 << 10, static_cast<char>('a' + i % 26));
    log->Append(&rec);
    ASSERT_OK(log->Force());
  }
}

constexpr int kRecordsPerRoll = static_cast<int>(kLogRollBytes >> 18);

std::vector<Lsn> ScanLsns(const LogManager& log, Lsn start) {
  std::vector<Lsn> seen;
  EXPECT_OK(log.Scan(start, [&](const LogRecord& rec) {
    seen.push_back(rec.lsn);
    return Status::OK();
  }));
  return seen;
}

void ExpectDense(const std::vector<Lsn>& lsns, Lsn first, Lsn last) {
  ASSERT_EQ(lsns.size(), last - first + 1);
  for (size_t i = 0; i < lsns.size(); ++i) EXPECT_EQ(lsns[i], first + i);
}

TEST(SegmentedLogTest, SizeRollsSealFilesNamedByFirstLsn) {
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  AppendBig(log.get(), 2 * kRecordsPerRoll + 3);
  std::vector<LogFileInfo> files = log->Files();
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].name, "log.00000000000000000001");
  EXPECT_EQ(files[1].first_lsn, static_cast<Lsn>(kRecordsPerRoll + 1));
  EXPECT_TRUE(files[0].sealed && files[1].sealed && !files[2].sealed);
  EXPECT_EQ(files[2].name, "log");
  EXPECT_GE(files[0].bytes, kLogRollBytes);
  ExpectDense(ScanLsns(*log, 1), 1, 2 * kRecordsPerRoll + 3);
}

TEST(SegmentedLogTest, TruncatePrefixReadsAndWritesNoLogBytes) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  AppendBig(log.get(), 3 * kRecordsPerRoll + 2);
  const Lsn tail = log->durable_lsn();
  // The cut lies in the third file: the two before it go.
  const Lsn keep_from = 2 * kRecordsPerRoll + 5;
  CountingPolicy counts;
  env.SetPolicy(&counts);
  ASSERT_OK(log->TruncatePrefix(keep_from));
  env.SetPolicy(nullptr);
  EXPECT_EQ(counts.total_reads(), 0);
  EXPECT_TRUE(counts.writes.empty());
  EXPECT_FALSE(base.FileExists("log.00000000000000000001"));
  std::vector<LogFileInfo> files = log->Files();
  // The third file (holding the cut), the roll's file, the fresh active.
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first_lsn, static_cast<Lsn>(2 * kRecordsPerRoll + 1));
  EXPECT_EQ(files[2].bytes, 0u);
  ExpectDense(ScanLsns(*log, keep_from), keep_from, tail);
}

TEST(SegmentedLogTest, ScanReadsNoFileWhollyBelowStart) {
  MemEnv base;
  FaultyEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  AppendBig(log.get(), 3 * kRecordsPerRoll + 2);
  const std::vector<LogFileInfo> files = log->Files();
  ASSERT_EQ(files.size(), 4u);
  const Lsn start = files[2].first_lsn + 1;
  CountingPolicy counts;
  env.SetPolicy(&counts);
  ExpectDense(ScanLsns(*log, start), start, log->durable_lsn());
  env.SetPolicy(nullptr);
  EXPECT_EQ(counts.reads.count(files[0].name), 0u);
  EXPECT_EQ(counts.reads.count(files[1].name), 0u);
  EXPECT_GT(counts.reads[files[2].name], 0);
  EXPECT_GT(counts.reads[files[3].name], 0);
}

TEST(SegmentedLogTest, ReopenAfterManyRollsReadsOnlyTheActiveFile) {
  MemEnv base;
  FaultyEnv env(&base);
  Lsn tail;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    AppendBig(log.get(), 3 * kRecordsPerRoll + 3);
    tail = log->durable_lsn();
  }
  CountingPolicy counts;
  env.SetPolicy(&counts);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  env.SetPolicy(nullptr);
  EXPECT_EQ(log->next_lsn(), tail + 1);
  EXPECT_EQ(log->Files().size(), 4u);
  EXPECT_EQ(counts.reads.size(), 1u);
  EXPECT_GT(counts.reads["log"], 0);

  // Empty active file (a truncation just rolled it): the newest sealed
  // file is the only other one read.
  ASSERT_OK(log->TruncatePrefix(1));
  const std::vector<LogFileInfo> files = log->Files();
  log.reset();
  CountingPolicy empty_counts;
  env.SetPolicy(&empty_counts);
  ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "log"));
  env.SetPolicy(nullptr);
  EXPECT_EQ(log->next_lsn(), tail + 1);
  EXPECT_EQ(empty_counts.reads.size(), 2u);
  EXPECT_GT(empty_counts.reads[files[files.size() - 2].name], 0);
}

/// Fails the create of the active file once armed, so a roll stops
/// between its rename and its create.
class FailActiveCreateEnv : public FaultyEnv {
 public:
  using FaultyEnv::FaultyEnv;
  Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override {
    if (armed && create && name == "log") {
      return Status::IoError("injected create failure");
    }
    return FaultyEnv::OpenFile(name, create);
  }
  bool armed = false;
};

TEST(SegmentedLogTest, CrashBetweenRollRenameAndCreateReopensDense) {
  MemEnv base;
  FailActiveCreateEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int i = 0; i < 5; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  env.armed = true;
  EXPECT_FALSE(log->TruncatePrefix(1).ok());
  log.reset();
  base.CrashAndRestart();
  EXPECT_FALSE(base.FileExists("log"));
  EXPECT_TRUE(base.FileExists("log.00000000000000000001"));

  env.armed = false;
  ASSERT_OK_AND_ASSIGN(log, LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 6u);
  for (int i = 0; i < 3; ++i) {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  ExpectDense(ScanLsns(*log, 1), 1, 8);
}

// Redo stages a multi-var node's pages at the log's tail and cuts them
// once the pages are written; the cut must hand their LSNs back, also
// when the commit that made them durable rolled the active file.
TEST(SegmentedLogTest, TruncateAfterHandsTheTailLsnsBack) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    for (int i = 0; i < 5; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->Force());
    ASSERT_OK(log->TruncateAfter(3));  // the cut lies in the active file
    EXPECT_EQ(log->next_lsn(), 4u);
    EXPECT_EQ(log->durable_lsn(), 3u);
    ExpectDense(ScanLsns(*log, 1), 1, 3);

    for (int i = 0; i < 3; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(1));  // commits 4..6, then rolls
    ASSERT_EQ(log->Files().size(), 2u);
    ASSERT_OK(log->TruncateAfter(4));  // the cut lies in the sealed file
    ExpectDense(ScanLsns(*log, 1), 1, 4);
    LogRecord next = SampleRecord(0);
    EXPECT_EQ(log->Append(&next), 5u);
    ASSERT_OK(log->Force());
  }
  env.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 6u);
  ExpectDense(ScanLsns(*log, 1), 1, 5);
}

// A force may roll the log between two of a replay's staged levels, and a
// point-in-time cut may lie several files back: the cut unlinks the
// sealed files wholly after it, empties the active file, and a reopen
// continues right after it.
TEST(SegmentedLogTest, TruncateAfterSpansSealedFiles) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    for (int i = 0; i < 5; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(1));  // commits 1..5, then rolls
    for (int i = 0; i < 2; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(1));  // commits 6..7, then rolls
    LogRecord eight = SampleRecord(0);
    log->Append(&eight);
    ASSERT_OK(log->Force());
    ASSERT_EQ(log->Files().size(), 3u);

    ASSERT_OK(log->TruncateAfter(3));
    EXPECT_EQ(log->next_lsn(), 4u);
    EXPECT_EQ(log->durable_lsn(), 3u);
    EXPECT_EQ(log->Files().size(), 2u);
    ExpectDense(ScanLsns(*log, 1), 1, 3);
    LogRecord next = SampleRecord(0);
    EXPECT_EQ(log->Append(&next), 4u);
    ASSERT_OK(log->Force());
  }
  env.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 5u);
  ExpectDense(ScanLsns(*log, 1), 1, 4);
}

// A cut right below the log's oldest record empties that file instead of
// unlinking it: it stays as the anchor naming the next LSN. A cut below
// the log's start is refused.
TEST(SegmentedLogTest, TruncateAfterKeepsTheOldestFileAsAnchor) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    for (int i = 0; i < 3; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(1));  // rolls 1..3
    for (int i = 0; i < 2; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(4));  // rolls 4..5, drops 1..3
    LogRecord six = SampleRecord(0);
    log->Append(&six);
    ASSERT_OK(log->Force());
    ASSERT_EQ(log->Files().front().first_lsn, 4u);

    EXPECT_TRUE(log->TruncateAfter(2).IsFailedPrecondition());
    ASSERT_OK(log->TruncateAfter(3));
    EXPECT_EQ(log->next_lsn(), 4u);
    EXPECT_TRUE(ScanLsns(*log, 1).empty());
    EXPECT_EQ(log->Files().front().bytes, 0u);
  }
  env.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 4u);
  LogRecord next = SampleRecord(0);
  EXPECT_EQ(log->Append(&next), 4u);
}

TEST(SegmentedLogTest, FullTruncationLeavesAnAnchorForTheNextLsn) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log"));
    for (int i = 0; i < 4; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    ASSERT_OK(log->TruncatePrefix(1));
    // Nothing is kept: the sealed file goes, an empty anchor named after
    // LSN 5 stays.
    ASSERT_OK(log->TruncatePrefix(5));
    std::vector<LogFileInfo> files = log->Files();
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].name, "log.00000000000000000005");
    EXPECT_EQ(files[0].bytes, 0u);
  }
  env.CrashAndRestart();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  EXPECT_EQ(log->next_lsn(), 5u);
  LogRecord rec = SampleRecord(0);
  log->Append(&rec);
  // The next roll's rename replaces the anchor.
  ASSERT_OK(log->TruncatePrefix(1));
  std::vector<LogFileInfo> files = log->Files();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_GT(files[0].bytes, 0u);
  ExpectDense(ScanLsns(*log, 1), 5, 5);
}

/// Holds every DeleteFile until released, so a test can act while a
/// truncation's unlink is in progress.
class BlockingDeleteEnv : public FaultyEnv {
 public:
  using FaultyEnv::FaultyEnv;
  Status DeleteFile(const std::string& name) override {
    std::unique_lock<std::mutex> lock(mu_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    lock.unlock();
    return FaultyEnv::DeleteFile(name);
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(SegmentedLogTest, ForceCompletesWhileTruncationUnlinkIsBlocked) {
  MemEnv base;
  BlockingDeleteEnv env(&base);
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 3; ++i) {
      LogRecord rec = SampleRecord(0);
      log->Append(&rec);
    }
    if (round == 0) ASSERT_OK(log->TruncatePrefix(1));  // seals 1..3
  }
  // Seals 4..6 and unlinks the file holding 1..3 — blocked in DeleteFile.
  std::thread truncator([&] { EXPECT_OK(log->TruncatePrefix(4)); });
  env.WaitEntered();
  std::future<Status> forced = std::async(std::launch::async, [&] {
    LogRecord rec = SampleRecord(0);
    log->Append(&rec);
    return log->Force();
  });
  const bool done =
      forced.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  env.Release();
  truncator.join();
  ASSERT_TRUE(done) << "Force blocked behind the truncation's unlink";
  EXPECT_OK(forced.get());
  EXPECT_EQ(log->durable_lsn(), 7u);
  ExpectDense(ScanLsns(*log, 4), 4, 7);
}

}  // namespace
}  // namespace llb
