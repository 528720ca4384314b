#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "ops/operation.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"
#include "storage/page_store.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace llb {
namespace {

DbOptions GeneralDbOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 1024;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

class FileStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto engine = TestEngine::Create(GeneralDbOptions());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).value();
    files_ = std::make_unique<FileStore>(engine_->db(), 0, /*base_page=*/0,
                                         /*pages_per_file=*/3,
                                         /*num_files=*/16);
  }

  std::vector<int64_t> Sequence(int64_t start, size_t n) {
    std::vector<int64_t> v(n);
    for (size_t i = 0; i < n; ++i) v[i] = start + static_cast<int64_t>(i);
    return v;
  }

  std::unique_ptr<TestEngine> engine_;
  std::unique_ptr<FileStore> files_;
};

TEST_F(FileStoreTest, WriteReadRoundTrip) {
  std::vector<int64_t> values = Sequence(100, 1200);  // spans 3 pages
  ASSERT_OK(files_->WriteValues(0, values));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> got, files_->ReadValues(0));
  EXPECT_EQ(got, values);
}

TEST_F(FileStoreTest, EmptyFileReadsEmpty) {
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> got, files_->ReadValues(5));
  EXPECT_TRUE(got.empty());
}

TEST_F(FileStoreTest, OversizeWriteRejected) {
  std::vector<int64_t> too_big(files_->capacity_per_file() + 1, 1);
  EXPECT_FALSE(files_->WriteValues(0, too_big).ok());
}

TEST_F(FileStoreTest, CopyDuplicatesContents) {
  std::vector<int64_t> values = Sequence(7, 900);
  ASSERT_OK(files_->WriteValues(1, values));
  ASSERT_OK(files_->Copy(1, 2));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> got, files_->ReadValues(2));
  EXPECT_EQ(got, values);
}

TEST_F(FileStoreTest, CopyToSelfRejected) {
  EXPECT_FALSE(files_->Copy(3, 3).ok());
}

TEST_F(FileStoreTest, SortProducesSortedOutput) {
  std::vector<int64_t> values{9, -3, 42, 0, 42, 7, -100};
  ASSERT_OK(files_->WriteValues(0, values));
  ASSERT_OK(files_->SortInto(0, 1));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> got, files_->ReadValues(1));
  std::vector<int64_t> expected = values;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);
  // Source unchanged.
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> src, files_->ReadValues(0));
  EXPECT_EQ(src, values);
}

TEST_F(FileStoreTest, TransformIsDeterministic) {
  ASSERT_OK(files_->WriteValues(0, Sequence(1, 10)));
  ASSERT_OK(files_->WriteValues(1, Sequence(1, 10)));
  ASSERT_OK(files_->Transform(0, 99));
  ASSERT_OK(files_->Transform(1, 99));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> a, files_->ReadValues(0));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> b, files_->ReadValues(1));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, Sequence(1, 10));
}

TEST_F(FileStoreTest, CopyChainSurvivesCrash) {
  ASSERT_OK(files_->WriteValues(0, Sequence(500, 1000)));
  ASSERT_OK(files_->Copy(0, 1));
  ASSERT_OK(files_->Copy(1, 2));
  ASSERT_OK(files_->WriteValues(0, Sequence(0, 10)));  // overwrite source
  ASSERT_OK(engine_->db()->FlushAll());
  ASSERT_OK(engine_->CrashAndRecover());

  FileStore reopened(engine_->db(), 0, 0, 3, 16);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f2, reopened.ReadValues(2));
  EXPECT_EQ(f2, Sequence(500, 1000));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f0, reopened.ReadValues(0));
  EXPECT_EQ(f0, Sequence(0, 10));
}

TEST_F(FileStoreTest, UnflushedOpsRecoverFromLogAfterCrash) {
  ASSERT_OK(files_->WriteValues(0, Sequence(1, 100)));
  ASSERT_OK(files_->Copy(0, 1));
  // Force the log but flush nothing: after the crash, redo must rebuild
  // both files from the log alone.
  ASSERT_OK(engine_->db()->ForceLog());
  ASSERT_OK(engine_->CrashAndRecover());
  FileStore reopened(engine_->db(), 0, 0, 3, 16);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f1, reopened.ReadValues(1));
  EXPECT_EQ(f1, Sequence(1, 100));
}

TEST_F(FileStoreTest, BadFileIdsRejected) {
  EXPECT_FALSE(files_->WriteValues(99, {1}).ok());
  EXPECT_FALSE(files_->ReadValues(99).ok());
  EXPECT_FALSE(files_->Copy(0, 99).ok());
  EXPECT_FALSE(files_->Transform(99, 1).ok());
}

// --- FileWrite against the page-image records it replaced ---------------

constexpr uint32_t kEncPages = 32;
constexpr uint32_t kEncPagesPerFile = 2;
constexpr uint32_t kEncFiles = 8;

enum class Encoding { kFileWrite, kPageImage };

DbOptions EncodingDbOptions() {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = kEncPages;
  // Every page fits: nothing is installed before the path under test.
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

// WriteValues as it logs today (FileWrite), or as it logged before: one
// physical write of each page's full image.
Status WriteFile(Database* db, Encoding encoding, uint32_t file_id,
                 const std::vector<int64_t>& values) {
  FileStore files(db, 0, 0, kEncPagesPerFile, kEncFiles);
  if (encoding == Encoding::kFileWrite) {
    return files.WriteValues(file_id, values);
  }
  size_t offset = 0;
  for (const PageId& id : files.PagesOf(file_id)) {
    size_t n = std::min(file_page::kRecordsPerPage, values.size() - offset);
    PageImage image;
    file_page::SetValues(&image, values.data() + offset, n);
    offset += n;
    LogRecord rec = MakePhysicalWrite(id, image);
    LLB_RETURN_IF_ERROR(db->Execute(&rec));
  }
  return Status::OK();
}

std::vector<int64_t> Values(int64_t start, size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = start - 7 * static_cast<int64_t>(i);
  return v;
}

// One history: short, empty, full, page-spanning and extreme values,
// overwrites, and a logical Copy that reads what the writes left.
Status WriteHistory(Database* db, Encoding encoding) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 0, {4, 3, 2, 1}));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 1, Values(100, 600)));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 2, {}));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 3, Values(-5, 1000)));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 5, {lo, hi, -1, 0}));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 0, {9, 8, 7}));
  FileStore files(db, 0, 0, kEncPagesPerFile, kEncFiles);
  LLB_RETURN_IF_ERROR(files.Copy(1, 4));
  LLB_RETURN_IF_ERROR(WriteFile(db, encoding, 1, {2, 1}));
  return db->ForceLog();
}

Result<std::vector<std::string>> SealedPages(Env* env,
                                             const std::string& name) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> stable,
                       PageStore::Open(env, Database::StableName(name), 1));
  std::vector<std::string> pages;
  for (uint32_t page = 0; page < kEncPages; ++page) {
    PageImage image;
    LLB_RETURN_IF_ERROR(stable->ReadPage(PageId{0, page}, &image));
    pages.push_back(image.raw_string());
  }
  return pages;
}

// The history's op codes, in log order.
Result<std::vector<uint16_t>> LoggedOps(Env* env) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<LogManager> log,
                       LogManager::Open(env, Database::LogName("db")));
  std::vector<uint16_t> ops;
  LLB_RETURN_IF_ERROR(log->Scan(1, [&](const LogRecord& rec) {
    ops.push_back(rec.op_code);
    return Status::OK();
  }));
  return ops;
}

// The paths that build S from the history's records.
enum class BuildPath {
  kExecute,         // ExecuteOp, then the cache installs the pages
  kCrashRedo,       // crash before any install, crash redo
  kMediaRestore,    // wipe S, offline restore from a backup of the empty S
  kInstantRestore,  // wipe S, every page faulted in by a read
  kStandbyApply,    // shipped to a standby that applies the log
};

// Runs the history under `encoding` and returns S as `path` leaves it.
Result<std::vector<std::string>> BuildS(Encoding encoding, BuildPath path) {
  LLB_ASSIGN_OR_RETURN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(EncodingDbOptions()));
  Database* db = engine->db();
  if (path == BuildPath::kMediaRestore || path == BuildPath::kInstantRestore) {
    LLB_RETURN_IF_ERROR(db->TakeBackup("full").status());
  }
  std::unique_ptr<Database> standby;
  std::unique_ptr<InProcessShipChannel> channel;
  std::unique_ptr<LogShipper> shipper;
  if (path == BuildPath::kStandbyApply) {
    DbOptions standby_options = EncodingDbOptions();
    standby_options.standby = true;
    LLB_ASSIGN_OR_RETURN(standby,
                         Database::Open(engine->env(), "sb", standby_options));
    RegisterAllOps(standby->registry());
    LLB_RETURN_IF_ERROR(standby->Recover());
    channel = std::make_unique<InProcessShipChannel>();
    shipper = std::make_unique<LogShipper>(engine->env(), "db", db->log(),
                                           channel.get());
    LLB_RETURN_IF_ERROR(shipper->Attach());
  }
  LLB_RETURN_IF_ERROR(WriteHistory(db, encoding));

  switch (path) {
    case BuildPath::kExecute:
      LLB_RETURN_IF_ERROR(db->FlushAll());
      break;
    case BuildPath::kCrashRedo:
      LLB_RETURN_IF_ERROR(engine->CrashAndRecover());
      LLB_RETURN_IF_ERROR(engine->db()->FlushAll());
      break;
    case BuildPath::kMediaRestore:
    case BuildPath::kInstantRestore: {
      LLB_RETURN_IF_ERROR(engine->Shutdown());
      {
        LLB_ASSIGN_OR_RETURN(
            std::unique_ptr<PageStore> stable,
            PageStore::Open(engine->env(), Database::StableName("db"), 1));
        LLB_RETURN_IF_ERROR(stable->WipePartition(0));
      }
      OpRegistry registry;
      RegisterAllOps(&registry);
      if (path == BuildPath::kMediaRestore) {
        LLB_RETURN_IF_ERROR(Database::RestoreFromBackup(engine->env(), "db",
                                                        "full", registry)
                                .status());
        break;
      }
      LLB_ASSIGN_OR_RETURN(
          std::unique_ptr<Database> restoring,
          Database::OpenRestoring(engine->env(), "db", EncodingDbOptions(),
                                  "full"));
      RegisterAllOps(restoring->registry());
      LLB_RETURN_IF_ERROR(restoring->Recover());
      for (uint32_t page = 0; page < kEncPages; ++page) {
        PageImage image;
        LLB_RETURN_IF_ERROR(restoring->ReadPage(PageId{0, page}, &image));
      }
      if (restoring->restore_status().pages_faulted == 0) {
        return Status::Internal("no page took the fault path");
      }
      LLB_RETURN_IF_ERROR(restoring->FinishRestore());
      LLB_RETURN_IF_ERROR(restoring->FlushAll());
      break;
    }
    case BuildPath::kStandbyApply: {
      StandbyApplier applier(standby.get(), channel.get());
      LLB_RETURN_IF_ERROR(shipper->Pump());
      LLB_RETURN_IF_ERROR(applier.Drain());
      if (applier.applied_lsn() != db->log()->durable_lsn()) {
        return Status::Internal("standby did not apply the whole log");
      }
      return SealedPages(engine->env(), "sb");
    }
  }
  return SealedPages(engine->env(), "db");
}

// The same WriteValues history seals the same page bytes, header and
// checksum included, whether it was logged as FileWrite values or as page
// images, on every path that builds S. Across paths the written pages
// match too; the Copy's target does not, since the cache installs that
// two-page node through identity writes whose LSNs its pages then carry.
TEST(FileWriteEncodingTest, SameHistorySealsIdenticalPagesOnEveryPath) {
  ASSERT_OK_AND_ASSIGN(std::vector<std::string> executed,
                       BuildS(Encoding::kPageImage, BuildPath::kExecute));
  PageImage copied = PageImage::FromRaw(executed[8]);  // Copy's target
  ASSERT_EQ(file_page::Count(copied), file_page::kRecordsPerPage);
  for (BuildPath path :
       {BuildPath::kExecute, BuildPath::kCrashRedo, BuildPath::kMediaRestore,
        BuildPath::kInstantRestore, BuildPath::kStandbyApply}) {
    SCOPED_TRACE(testing::Message() << "path " << static_cast<int>(path));
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> images,
                         BuildS(Encoding::kPageImage, path));
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> values,
                         BuildS(Encoding::kFileWrite, path));
    ASSERT_EQ(values.size(), images.size());
    for (uint32_t page = 0; page < kEncPages; ++page) {
      EXPECT_TRUE(values[page] == images[page]) << "page " << page;
      if (page / kEncPagesPerFile != 4) {
        EXPECT_TRUE(values[page] == executed[page]) << "page " << page;
      }
    }
  }
}

// Each encoding logs what it says: WriteValues only FileWrite records, of
// 8 bytes a value, and the history's LSNs match one for one.
TEST(FileWriteEncodingTest, WriteValuesLogsValuesNotImages) {
  std::vector<std::vector<uint16_t>> ops;
  std::vector<uint64_t> bytes;
  for (Encoding encoding : {Encoding::kFileWrite, Encoding::kPageImage}) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                         TestEngine::Create(EncodingDbOptions()));
    uint64_t before = engine->db()->log()->stats().bytes;
    ASSERT_OK(WriteHistory(engine->db(), encoding));
    bytes.push_back(engine->db()->log()->stats().bytes - before);
    ASSERT_OK_AND_ASSIGN(std::vector<uint16_t> logged,
                         LoggedOps(engine->env()));
    ops.push_back(logged);
  }
  ASSERT_EQ(ops[0].size(), ops[1].size());
  size_t writes = 0;
  for (size_t i = 0; i < ops[0].size(); ++i) {
    if (ops[1][i] == kOpPhysicalWrite) {
      EXPECT_EQ(ops[0][i], kOpFileWrite) << "record " << i;
      ++writes;
    } else {
      EXPECT_EQ(ops[0][i], ops[1][i]) << "record " << i;
    }
  }
  EXPECT_EQ(writes, 14u);
  // 1613 values and 15 record headers against 14 page images.
  EXPECT_LT(bytes[0], 8 * 1613 + 15 * 100);
  EXPECT_GT(bytes[1], 14 * kPageSize);
}

// A log written before WriteValues logged values holds page-image
// records for file pages: it still recovers, and the files read back.
TEST(FileWriteEncodingTest, LogOfPageImageFileWritesStillRecovers) {
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(EncodingDbOptions()));
  ASSERT_OK(WriteHistory(engine->db(), Encoding::kPageImage));
  ASSERT_OK(engine->CrashAndRecover());
  FileStore files(engine->db(), 0, 0, kEncPagesPerFile, kEncFiles);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f1, files.ReadValues(1));
  EXPECT_EQ(f1, (std::vector<int64_t>{2, 1}));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f3, files.ReadValues(3));
  EXPECT_EQ(f3, Values(-5, 1000));
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f4, files.ReadValues(4));
  EXPECT_EQ(f4, Values(100, 600));
  // New writes log values on top of the old records, and recover too.
  ASSERT_OK(files.WriteValues(2, {11, 12}));
  ASSERT_OK(engine->db()->ForceLog());
  ASSERT_OK(engine->CrashAndRecover());
  FileStore reopened(engine->db(), 0, 0, kEncPagesPerFile, kEncFiles);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> f2, reopened.ReadValues(2));
  EXPECT_EQ(f2, (std::vector<int64_t>{11, 12}));
}

}  // namespace
}  // namespace llb
