#include <gtest/gtest.h>

#include <string>
#include <vector>

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
  for (uint32_t channels : {1u, 4u}) {
    SCOPED_TRACE("channels=" + std::to_string(channels));
    MemEnv env;
    LogManagerOptions options;
    options.channels = channels;
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                         LogManager::Open(&env, "log", options));
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

}  // namespace
}  // namespace llb
