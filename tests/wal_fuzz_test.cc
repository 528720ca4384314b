// Corruption fuzzing for the durable formats: whatever bytes a crash or a
// bad device leaves behind, the readers must fail cleanly (graceful
// prefix for the log, refusal of a leftover page-store journal,
// checksum errors for pages, refusal of a malformed FileWrite record by
// redo) — never crash, never fabricate records.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "filestore/file_ops.h"
#include "io/mem_env.h"
#include "recovery/redo.h"
#include "sim/harness.h"
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

// Replays `records` (appended to a fresh log in order) onto a store whose
// page {0, 3} holds `sentinel`, and returns redo's status.
Status RedoOntoSentinel(const std::vector<LogRecord>& records,
                        const PageImage& sentinel, PageImage* page_after) {
  MemEnv env;
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  for (LogRecord rec : records) log->Append(&rec);
  LLB_RETURN_IF_ERROR(log->Force());
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> store,
                       PageStore::Open(&env, "s", 1));
  LLB_RETURN_IF_ERROR(store->WritePage(PageId{0, 3}, sentinel));
  OpRegistry registry;
  RegisterAllOps(&registry);
  Status s = RunRedo(*log, registry, store.get(), 1).status();
  LLB_RETURN_IF_ERROR(store->ReadPage(PageId{0, 3}, page_after));
  return s;
}

PageImage Sentinel() {
  PageImage page;
  page.SetPayload(Slice("sentinel"));
  return page;
}

// Counts the writes an apply function stages.
class CountingContext : public OpContext {
 public:
  Status Read(const PageId&, PageImage* out) override {
    *out = PageImage();
    return Status::OK();
  }
  Status Write(const PageId&, const PageImage&) override {
    ++writes;
    return Status::OK();
  }
  int writes = 0;
};

// A hostile writer can frame a FileWrite record with a valid CRC and any
// shape. Its apply function refuses each malformed shape as Corruption
// before staging a write, redo stops on it (a record with no target is
// never applied at all), and the target keeps the page it had.
TEST(FileWriteShapeTest, MalformedShapesAreRefusedByRedo) {
  const PageId page{0, 3};
  std::vector<int64_t> values(file_page::kRecordsPerPage + 1);
  for (size_t i = 0; i < values.size(); ++i) values[i] = int64_t(i * 977);
  const LogRecord good = MakeFileWrite(page, values.data(), 4);

  std::vector<LogRecord> bad;
  for (size_t cut = 1; cut < 8; ++cut) {
    LogRecord rec = good;
    rec.payload.resize(rec.payload.size() - cut);  // not whole values
    bad.push_back(rec);
  }
  bad.push_back(MakeFileWrite(page, values.data(), values.size()));  // 501
  LogRecord with_read = good;
  with_read.readset = {page};
  bad.push_back(with_read);
  LogRecord no_target = good;
  no_target.writeset.clear();
  bad.push_back(no_target);
  LogRecord two_targets = good;
  two_targets.writeset = {page, PageId{0, 4}};
  bad.push_back(two_targets);

  OpRegistry registry;
  RegisterAllOps(&registry);
  for (const LogRecord& rec : bad) {
    CountingContext ctx;
    EXPECT_TRUE(registry.Apply(ctx, rec).IsCorruption());
    EXPECT_EQ(ctx.writes, 0);

    PageImage after;
    Status s = RedoOntoSentinel({rec}, Sentinel(), &after);
    if (rec.writeset.empty()) {
      EXPECT_OK(s);
    } else {
      EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    }
    EXPECT_EQ(after.payload().ToString(), Sentinel().payload().ToString());
  }
  // The well-formed record, full page included, applies.
  for (size_t n : {size_t{0}, size_t{4}, file_page::kRecordsPerPage}) {
    PageImage after;
    ASSERT_OK(RedoOntoSentinel({MakeFileWrite(page, values.data(), n)},
                               Sentinel(), &after));
    ASSERT_EQ(file_page::Count(after), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(file_page::ValueAt(after, i), values[i]);
    }
  }
}

class FileWriteFuzz : public ::testing::TestWithParam<uint64_t> {};

// Random payload lengths and bytes behind a valid frame: redo applies
// exactly the whole-value payloads of at most a page, as those values,
// and refuses every other length.
TEST_P(FileWriteFuzz, RandomPayloadsApplyOnlyWhenWellFormed) {
  Random rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    LogRecord rec;
    rec.op_code = kOpFileWrite;
    rec.writeset = {PageId{0, 3}};
    size_t len = rng.Uniform(8 * file_page::kRecordsPerPage + 24);
    if (trial % 2 == 0) len -= len % 8;  // half of them whole values
    rec.payload.resize(len);
    for (char& c : rec.payload) c = static_cast<char>(rng.Next() & 0xFF);

    PageImage after;
    Status s = RedoOntoSentinel({rec}, Sentinel(), &after);
    if (len % 8 != 0 || len / 8 > file_page::kRecordsPerPage) {
      EXPECT_TRUE(s.IsCorruption()) << "len " << len;
      EXPECT_EQ(after.payload().ToString(), Sentinel().payload().ToString());
      continue;
    }
    ASSERT_OK(s);
    ASSERT_EQ(file_page::Count(after), len / 8);
    for (size_t i = 0; i < len / 8; ++i) {
      ASSERT_EQ(static_cast<uint64_t>(file_page::ValueAt(after, i)),
                DecodeFixed64(rec.payload.data() + 8 * i));
    }
  }
}

// Flipped or truncated FileWrite bytes in the log itself: the reader
// keeps a CRC-clean prefix, so redo over what survives never fails and
// leaves every page either untouched or as an intact record wrote it.
TEST_P(FileWriteFuzz, FlippedAndTruncatedLogBytesReplayOnlyIntactRecords) {
  Random rng(GetParam() + 500);
  MemEnv env;
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> log,
                       LogManager::Open(&env, "log"));
  std::vector<std::vector<int64_t>> written(8);
  for (uint32_t i = 0; i < 24; ++i) {
    uint32_t p = i % 8;
    std::vector<int64_t>& v = written[p];
    v.assign(rng.Uniform(12), 0);
    for (int64_t& x : v) x = static_cast<int64_t>(rng.Next());
    LogRecord rec = MakeFileWrite(PageId{0, p}, v.data(), v.size());
    log->Append(&rec);
  }
  ASSERT_OK(log->Force());
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> file, env.OpenFile("log", false));
  ASSERT_OK_AND_ASSIGN(uint64_t size, file->Size());
  std::string original;
  ASSERT_OK(file->ReadAt(0, size, &original));

  OpRegistry registry;
  RegisterAllOps(&registry);
  size_t most_intact = 0, fewest_intact = SIZE_MAX;
  for (int trial = 0; trial < 20; ++trial) {
    std::string mutated = original;
    if (trial % 2 == 0) {
      mutated.resize(rng.Uniform(mutated.size() + 1));
    } else {
      for (int f = 0; f < 1 + static_cast<int>(rng.Uniform(4)); ++f) {
        mutated[rng.Uniform(mutated.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
      }
    }
    MemEnv copy_env;
    {
      ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> copy,
                           copy_env.OpenFile("log", true));
      ASSERT_OK(copy->Append(Slice(mutated)));
      ASSERT_OK(copy->Sync());
    }
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<LogManager> copy_log,
                         LogManager::Open(&copy_env, "log"));
    std::vector<LogRecord> intact;
    ASSERT_OK(copy_log->Scan(1, [&](const LogRecord& rec) {
      intact.push_back(rec);
      return Status::OK();
    }));
    most_intact = std::max(most_intact, intact.size());
    fewest_intact = std::min(fewest_intact, intact.size());
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                         PageStore::Open(&copy_env, "s", 1));
    ASSERT_OK(RunRedo(*copy_log, registry, store.get(), 1).status());
    // Expected: the last surviving record of each page.
    std::vector<const LogRecord*> last(8, nullptr);
    for (const LogRecord& rec : intact) {
      ASSERT_EQ(rec.op_code, kOpFileWrite);
      last[rec.writeset[0].page] = &rec;
    }
    for (uint32_t p = 0; p < 8; ++p) {
      PageImage page;
      ASSERT_OK(store->ReadPage(PageId{0, p}, &page));
      if (last[p] == nullptr) {
        ASSERT_TRUE(page.IsZero());
        continue;
      }
      ASSERT_EQ(page.lsn(), last[p]->lsn);
      ASSERT_EQ(file_page::Count(page), last[p]->payload.size() / 8);
    }
  }
  // The damage both kept records and cut some.
  EXPECT_GT(most_intact, 0u);
  EXPECT_LT(fewest_intact, 24u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileWriteFuzz, ::testing::Values(3, 13, 23));

}  // namespace
}  // namespace llb
