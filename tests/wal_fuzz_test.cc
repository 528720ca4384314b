// Corruption fuzzing for the durable formats: whatever bytes a crash or a
// bad device leaves behind, the readers must fail cleanly (graceful
// prefix for the log, refusal of a leftover page-store journal,
// checksum errors for pages) — never crash, never fabricate records.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "io/mem_env.h"
#include "storage/page_store.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_reader.h"

namespace llb {
namespace {

LogRecord SampleRecord(uint32_t i) {
  LogRecord rec;
  rec.op_code = kOpBtreeInsert;
  rec.readset = {PageId{0, i}};
  rec.writeset = {PageId{0, i}};
  rec.payload = std::string(1 + i % 40, static_cast<char>('a' + i % 26));
  return rec;
}

class LogTruncationFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogTruncationFuzz, AnyTruncationYieldsCleanPrefix) {
  Random rng(GetParam());
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  const int kRecords = 40;
  for (uint32_t i = 0; i < kRecords; ++i) {
    LogRecord rec = SampleRecord(i);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());

  for (int trial = 0; trial < 25; ++trial) {
    uint64_t cut = rng.Uniform(size + 1);
    MemEnv copy_env;
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> copy,
                         copy_env.OpenFile("log", true));
    std::string contents;
    ASSERT_OK(file->ReadAt(0, cut, &contents));
    ASSERT_OK(copy->Append(Slice(contents)));
    ASSERT_OK(copy->Sync());

    LogReader reader(copy);
    ASSERT_OK(reader.Init());
    LogRecord rec;
    Lsn expected = 1;
    while (reader.Next(&rec)) {
      // Records decode as an exact prefix, in order, intact.
      ASSERT_EQ(rec.lsn, expected);
      ASSERT_EQ(rec.op_code, kOpBtreeInsert);
      ++expected;
    }
    ASSERT_LE(expected - 1, uint64_t{kRecords});
  }
}

TEST_P(LogTruncationFuzz, RandomByteFlipsNeverCrashTheReader) {
  Random rng(GetParam() + 1000);
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (uint32_t i = 0; i < 30; ++i) {
    LogRecord rec = SampleRecord(i);
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  std::string original;
  ASSERT_OK(file->ReadAt(0, size, &original));

  for (int trial = 0; trial < 40; ++trial) {
    std::string mutated = original;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Uniform(mutated.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    MemEnv copy_env;
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> copy,
                         copy_env.OpenFile("log", true));
    ASSERT_OK(copy->Append(Slice(mutated)));
    ASSERT_OK(copy->Sync());

    LogReader reader(copy);
    ASSERT_OK(reader.Init());
    LogRecord rec;
    Lsn last = 0;
    while (reader.Next(&rec)) {
      // Whatever survives is CRC-clean and ordered.
      ASSERT_GT(rec.lsn, last);
      last = rec.lsn;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogTruncationFuzz,
                         ::testing::Values(11, 22, 33, 44));

// Stores no longer keep a shadow journal. Whatever bytes an older build
// left in one, opening the store must refuse it without applying any of
// them, and the pages must be untouched once the leftover is gone.
class JournalFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JournalFuzz, CorruptJournalNeverAppliesPartially) {
  Random rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    MemEnv env;
    {
      ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                           PageStore::Open(&env, "s", 1));
      PageImage old_page;
      old_page.SetPayload(Slice("old"));
      old_page.set_lsn(1);
      for (uint32_t i = 0; i < 4; ++i) {
        ASSERT_OK(store->WritePage(PageId{0, i}, old_page));
      }
    }
    // A leftover journal: random garbage of random size.
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> journal,
                         env.OpenFile("s.journal", /*create=*/true));
    std::string stale;
    size_t len = 8 + rng.Uniform(4096);
    stale.resize(len);
    for (size_t i = 0; i < len; ++i) {
      stale[i] = static_cast<char>(rng.Next() & 0xFF);
    }
    ASSERT_OK(journal->WriteAt(0, Slice(stale)));
    ASSERT_OK(journal->Sync());

    ASSERT_TRUE(PageStore::Open(&env, "s", 1).status().IsCorruption());
    journal.reset();
    ASSERT_OK(env.DeleteFile("s.journal"));
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> reopened,
                         PageStore::Open(&env, "s", 1));
    for (uint32_t i = 0; i < 4; ++i) {
      PageImage page;
      ASSERT_OK(reopened->ReadPage(PageId{0, i}, &page));
      ASSERT_EQ(page.lsn(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JournalFuzz, ::testing::Values(7, 17, 27));

TEST(PageFuzzTest, RandomPageBytesFailChecksumOrDecodeDefensively) {
  Random rng(5150);
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  for (int trial = 0; trial < 30; ++trial) {
    // Write random garbage directly into the partition file.
    ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file,
                         env.OpenFile("s.p0", false));
    std::string junk(kPageSize, '\0');
    for (size_t i = 0; i < junk.size(); ++i) {
      junk[i] = static_cast<char>(rng.Next() & 0xFF);
    }
    ASSERT_OK(file->WriteAt(0, Slice(junk)));
    ASSERT_OK(file->Sync());
    PageImage page;
    Status s = store->ReadPage(PageId{0, 0}, &page);
    // Either detected as corruption (overwhelmingly likely) or decoded
    // as a page — never a crash.
    if (!s.ok()) {
      EXPECT_TRUE(s.IsCorruption());
    }
  }
}

}  // namespace
}  // namespace llb
