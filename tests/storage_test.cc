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
  ASSERT_OK(store_->WriteBatchAtomic(batch));
  for (uint32_t i = 0; i < 5; ++i) {
    PageImage page;
    ASSERT_OK(store_->ReadPage(PageId{0, i}, &page));
    EXPECT_EQ(page.lsn(), i + 1);
  }
}

TEST_F(PageStoreTest, BatchSpanningPartitions) {
  std::vector<PageStore::Entry> batch{{PageId{0, 0}, MakePage("a", 1)},
                                      {PageId{1, 9}, MakePage("b", 2)}};
  ASSERT_OK(store_->WriteBatchAtomic(batch));
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

// Crash atomicity: sweep every crash point inside an atomic batch write
// and verify the batch is all-or-nothing after journal recovery.
TEST_F(PageStoreTest, BatchIsAtomicAcrossEveryCrashPoint) {
  // Baseline state.
  for (uint32_t i = 0; i < 3; ++i) {
    ASSERT_OK(store_->WritePage(PageId{0, i}, MakePage("old", 1)));
  }

  // Count durable events in one full batch.
  uint64_t baseline = env_.durable_events();
  std::vector<PageStore::Entry> batch;
  for (uint32_t i = 0; i < 3; ++i) {
    batch.push_back({PageId{0, i}, MakePage("new", 2)});
  }
  ASSERT_OK(store_->WriteBatchAtomic(batch));
  uint64_t events_per_batch = env_.durable_events() - baseline;
  ASSERT_GT(events_per_batch, 2u);

  for (uint64_t k = 1; k <= events_per_batch; ++k) {
    MemEnv env;
    auto r = PageStore::Open(&env, "s", 1);
    ASSERT_TRUE(r.ok());
    std::unique_ptr<PageStore> store = std::move(r).value();
    for (uint32_t i = 0; i < 3; ++i) {
      ASSERT_OK(store->WritePage(PageId{0, i}, MakePage("old", 1)));
    }
    CrashAtEventInjector injector(k);
    env.SetFaultInjector(&injector);
    std::vector<PageStore::Entry> b;
    for (uint32_t i = 0; i < 3; ++i) {
      b.push_back({PageId{0, i}, MakePage("new", 2)});
    }
    Status s = store->WriteBatchAtomic(b);  // may fail: that's the crash
    (void)s;
    env.CrashAndRestart();

    // Reopen: journal recovery must leave all-old or all-new.
    auto r2 = PageStore::Open(&env, "s", 1);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    std::unique_ptr<PageStore> recovered = std::move(r2).value();
    int news = 0;
    for (uint32_t i = 0; i < 3; ++i) {
      PageImage page;
      ASSERT_OK(recovered->ReadPage(PageId{0, i}, &page));
      if (page.lsn() == 2) ++news;
    }
    EXPECT_TRUE(news == 0 || news == 3)
        << "crash point " << k << " left partial batch (" << news << "/3)";
  }
}

// A multi-partition batch syncs its journal, then each touched partition
// once (not once per page), then the retired journal. A crash at any of
// those events leaves every page old or every page new after reopen.
TEST(PageStoreBatchTest, TwoPartitionBatchSyncsEachPartitionOnceAndIsAtomic) {
  const std::vector<PageId> ids{PageId{0, 1}, PageId{1, 5}, PageId{0, 2}};
  auto batch_of = [&](const std::string& content, Lsn lsn) {
    std::vector<PageStore::Entry> batch;
    for (const PageId& id : ids) batch.push_back({id, MakePage(content, lsn)});
    return batch;
  };
  auto open_with_old_pages = [&](MemEnv* env) {
    auto r = PageStore::Open(env, "s", 2);
    EXPECT_TRUE(r.ok());
    std::unique_ptr<PageStore> store = std::move(r).value();
    for (const PageId& id : ids) {
      EXPECT_OK(store->WritePage(id, MakePage("old", 1)));
    }
    return store;
  };

  uint64_t events = 0;
  {
    MemEnv env;
    std::unique_ptr<PageStore> store = open_with_old_pages(&env);
    const uint64_t before = env.durable_events();
    ASSERT_OK(store->WriteBatchAtomic(batch_of("new", 2)));
    events = env.durable_events() - before;
  }
  EXPECT_EQ(events, 4u);  // journal, partition 0, partition 1, retire

  for (uint64_t k = 1; k <= events; ++k) {
    MemEnv env;
    std::unique_ptr<PageStore> store = open_with_old_pages(&env);
    CrashAtEventInjector injector(k);
    env.SetFaultInjector(&injector);
    EXPECT_FALSE(store->WriteBatchAtomic(batch_of("new", 2)).ok()) << k;
    store.reset();
    env.CrashAndRestart();

    auto r = PageStore::Open(&env, "s", 2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::unique_ptr<PageStore> recovered = std::move(r).value();
    int news = 0;
    for (const PageId& id : ids) {
      PageImage page;
      ASSERT_OK(recovered->ReadPage(id, &page));
      if (page.lsn() == 2) ++news;
    }
    EXPECT_TRUE(news == 0 || news == 3)
        << "crash at event " << k << " left " << news << "/3 new pages";
    // Crashes after the journal committed replay it: all new.
    if (k > 1) {
      EXPECT_EQ(news, 3) << k;
    }
  }
}

TEST_F(PageStoreTest, JournalReplayIsIdempotentOnReopen) {
  std::vector<PageStore::Entry> batch{{PageId{0, 0}, MakePage("a", 5)},
                                      {PageId{0, 1}, MakePage("b", 6)}};
  ASSERT_OK(store_->WriteBatchAtomic(batch));
  // Reopen over the same env twice.
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<PageStore> again,
                         PageStore::Open(&env_, "store", 2));
    PageImage page;
    ASSERT_OK(again->ReadPage(PageId{0, 1}, &page));
    EXPECT_EQ(page.lsn(), 6u);
  }
}

}  // namespace
}  // namespace llb
