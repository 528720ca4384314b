#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "io/faulty_env.h"
#include "io/mem_env.h"
#include "storage/page.h"
#include "storage/page_store.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageImage MakePage(const std::string& content, Lsn lsn) {
  PageImage page;
  page.SetPayload(Slice(content));
  page.set_lsn(lsn);
  page.set_type(PageType::kRaw);
  return page;
}

TEST(PageImageTest, FreshPageIsZeroAndValid) {
  PageImage page;
  EXPECT_TRUE(page.IsZero());
  EXPECT_EQ(page.lsn(), 0u);
  EXPECT_OK(page.VerifyChecksum());
}

TEST(PageImageTest, LsnAndTypeRoundTrip) {
  PageImage page;
  page.set_lsn(0xABCDEF0102030405ull);
  page.set_type(PageType::kBtree);
  EXPECT_EQ(page.lsn(), 0xABCDEF0102030405ull);
  EXPECT_EQ(page.type(), PageType::kBtree);
}

TEST(PageImageTest, SealThenVerify) {
  PageImage page = MakePage("payload bytes", 9);
  page.Seal();
  EXPECT_OK(page.VerifyChecksum());
}

TEST(PageImageTest, CorruptionDetected) {
  PageImage page = MakePage("payload bytes", 9);
  page.Seal();
  std::string raw = page.raw_string();
  raw[100] ^= 0x5A;
  PageImage tampered = PageImage::FromRaw(raw);
  EXPECT_FALSE(tampered.VerifyChecksum().ok());
}

TEST(PageImageTest, SetPayloadPadsAndTruncates) {
  PageImage page;
  page.SetPayload(Slice("abc"));
  EXPECT_EQ(page.payload()[0], 'a');
  EXPECT_EQ(page.payload()[3], '\0');
  std::string big(kPagePayloadSize + 100, 'x');
  page.SetPayload(Slice(big));
  EXPECT_EQ(page.payload()[kPagePayloadSize - 1], 'x');
}

class PageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = PageStore::Open(&env_, "store", /*num_partitions=*/2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    store_ = std::move(r).value();
  }

  MemEnv env_;
  std::unique_ptr<PageStore> store_;
};

TEST_F(PageStoreTest, NeverWrittenPageReadsZero) {
  PageImage page;
  ASSERT_OK(store_->ReadPage(PageId{0, 7}, &page));
  EXPECT_TRUE(page.IsZero());
}

TEST_F(PageStoreTest, WriteReadRoundTrip) {
  ASSERT_OK(store_->WritePage(PageId{0, 3}, MakePage("hello", 5)));
  PageImage page;
  ASSERT_OK(store_->ReadPage(PageId{0, 3}, &page));
  EXPECT_EQ(page.lsn(), 5u);
  EXPECT_EQ(page.payload().ToString().substr(0, 5), "hello");
}

TEST_F(PageStoreTest, PartitionsAreIndependent) {
  ASSERT_OK(store_->WritePage(PageId{0, 0}, MakePage("zero", 1)));
  ASSERT_OK(store_->WritePage(PageId{1, 0}, MakePage("one", 2)));
  PageImage a, b;
  ASSERT_OK(store_->ReadPage(PageId{0, 0}, &a));
  ASSERT_OK(store_->ReadPage(PageId{1, 0}, &b));
  EXPECT_NE(a.payload().ToString(), b.payload().ToString());
}

TEST_F(PageStoreTest, OutOfRangePartitionRejected) {
  PageImage page;
  EXPECT_FALSE(store_->ReadPage(PageId{9, 0}, &page).ok());
  EXPECT_FALSE(store_->WritePage(PageId{9, 0}, page).ok());
}

TEST_F(PageStoreTest, PageWriteIsDurableImmediately) {
  ASSERT_OK(store_->WritePage(PageId{0, 1}, MakePage("durable", 3)));
  env_.CrashAndRestart();
  PageImage page;
  ASSERT_OK(store_->ReadPage(PageId{0, 1}, &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 7), "durable");
}

TEST_F(PageStoreTest, BatchWritesAllPages) {
  std::vector<PageStore::Entry> batch;
  for (uint32_t i = 0; i < 5; ++i) {
    batch.push_back({PageId{0, i}, MakePage("p" + std::to_string(i), i + 1)});
  }
  ASSERT_OK(store_->WritePages(batch));
  for (uint32_t i = 0; i < 5; ++i) {
    PageImage page;
    ASSERT_OK(store_->ReadPage(PageId{0, i}, &page));
    EXPECT_EQ(page.lsn(), i + 1);
  }
}

TEST_F(PageStoreTest, BatchSpanningPartitions) {
  std::vector<PageStore::Entry> batch{{PageId{0, 0}, MakePage("a", 1)},
                                      {PageId{1, 9}, MakePage("b", 2)}};
  ASSERT_OK(store_->WritePages(batch));
  PageImage page;
  ASSERT_OK(store_->ReadPage(PageId{1, 9}, &page));
  EXPECT_EQ(page.lsn(), 2u);
}

TEST_F(PageStoreTest, PageCountTracksHighestWrite) {
  ASSERT_OK(store_->WritePage(PageId{0, 9}, MakePage("x", 1)));
  ASSERT_OK_AND_ASSIGN(uint32_t count, store_->PageCount(0));
  EXPECT_EQ(count, 10u);
}

TEST_F(PageStoreTest, WipePartitionZeroesPages) {
  ASSERT_OK(store_->WritePage(PageId{0, 2}, MakePage("doomed", 1)));
  ASSERT_OK(store_->WipePartition(0));
  PageImage page;
  ASSERT_OK(store_->ReadPage(PageId{0, 2}, &page));
  EXPECT_TRUE(page.IsZero());
}

TEST_F(PageStoreTest, CorruptPageFailsChecksum) {
  ASSERT_OK(store_->WritePage(PageId{0, 4}, MakePage("fine", 1)));
  ASSERT_OK(store_->CorruptPage(PageId{0, 4}));
  PageImage page;
  EXPECT_TRUE(store_->ReadPage(PageId{0, 4}, &page).IsCorruption());
}

TEST_F(PageStoreTest, CopyAllFrom) {
  ASSERT_OK(store_->WritePage(PageId{0, 1}, MakePage("one", 1)));
  ASSERT_OK(store_->WritePage(PageId{1, 2}, MakePage("two", 2)));
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> dst,
                       PageStore::Open(&env_, "dst", 2));
  ASSERT_OK(dst->CopyAllFrom(*store_, /*pages_per_partition=*/4));
  EXPECT_EQ(testutil::DiffStores(*store_, *dst, 2, 4), "");
}

// A store written by an older build may hold a shadow journal with a
// committed multi-page batch in it. This build has no journal to replay,
// so it refuses the store instead of silently dropping the batch; an
// empty leftover journal holds nothing and is ignored.
TEST(PageStoreJournalTest, LeftoverJournalIsRefused) {
  MemEnv env;
  {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> store,
                         PageStore::Open(&env, "s", 1));
    ASSERT_OK(store->WritePage(PageId{0, 0}, MakePage("kept", 1)));
  }
  EXPECT_FALSE(env.FileExists("s.journal"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<File> journal,
                       env.OpenFile("s.journal", /*create=*/true));
  ASSERT_OK(PageStore::Open(&env, "s", 1).status());
  ASSERT_OK(journal->WriteAt(0, Slice("LLBJ committed batch")));
  ASSERT_OK(journal->Sync());
  Result<std::unique_ptr<PageStore>> refused = PageStore::Open(&env, "s", 1);
  ASSERT_TRUE(refused.status().IsCorruption()) << refused.status().ToString();
  EXPECT_NE(refused.status().ToString().find("s.journal"), std::string::npos);
}

}  // namespace
}  // namespace llb
