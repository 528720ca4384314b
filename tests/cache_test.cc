#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_manager.h"
#include "io/faulty_env.h"
#include "filestore/file_ops.h"
#include "io/mem_env.h"
#include "ops/operation.h"
#include "recovery/general_write_graph.h"
#include "recovery/tree_write_graph.h"
#include "tests/test_util.h"

namespace llb {
namespace {

PageId P(uint32_t page) { return PageId{0, page}; }

PageImage ValuePage(const std::string& content) {
  PageImage page;
  page.SetPayload(Slice(content));
  page.set_type(PageType::kRaw);
  return page;
}

class CacheTest : public ::testing::Test {
 protected:
  /// `stable_env` and `log_env` (default: the MemEnv) host only the
  /// stable store or only the log, so a test can count or gate the IO of
  /// one apart from the other's.
  void Init(BackupPolicy policy, bool tree_graph = false,
            size_t capacity = 64, uint32_t partitions = 1,
            Env* stable_env = nullptr, Env* log_env = nullptr) {
    RegisterFileOps(&registry_);
    auto log = LogManager::Open(log_env != nullptr ? log_env : &env_, "log");
    ASSERT_TRUE(log.ok());
    log_ = std::move(log).value();
    auto store = PageStore::Open(stable_env != nullptr ? stable_env : &env_,
                                 "stable", partitions);
    ASSERT_TRUE(store.ok());
    stable_ = std::move(store).value();
    coordinator_ = std::make_unique<BackupCoordinator>(partitions);
    CacheOptions options;
    options.capacity_pages = capacity;
    options.policy = policy;
    std::unique_ptr<WriteGraph> graph;
    if (tree_graph) {
      graph = std::make_unique<TreeWriteGraph>();
    } else {
      graph = std::make_unique<GeneralWriteGraph>();
    }
    cache_ = std::make_unique<CacheManager>(
        stable_.get(), log_.get(), &registry_, std::move(graph),
        coordinator_.get(), &tracker_, options);
  }

  void SetFences(BackupPos done, BackupPos pending) {
    BackupProgress* progress = coordinator_->Get(0);
    std::unique_lock<std::shared_mutex> latch(progress->latch());
    progress->SetPendingFence(pending);
    if (done != 0) {
      // Emulate a completed step: D advances to P then P moves on.
      BackupPos p = progress->pending_fence();
      progress->SetPendingFence(done);
      progress->SetDoneFence();
      progress->SetPendingFence(p);
    }
  }

  Status WritePageOp(uint32_t page, const std::string& content) {
    return WritePageOp(P(page), content);
  }

  Status WritePageOp(const PageId& id, const std::string& content) {
    LogRecord rec = MakePhysicalWrite(id, ValuePage(content));
    return cache_->ExecuteOp(&rec);
  }

  Status CopyOp(uint32_t src, uint32_t dst) {
    return CopyOp(P(src), P(dst));
  }

  Status CopyOp(const PageId& src, const PageId& dst) {
    LogRecord rec = MakeFileCopy({src}, {dst});
    return cache_->ExecuteOp(&rec);
  }

  /// The first `n` payload bytes of a page as S holds it.
  std::string StablePrefix(const PageId& id, size_t n) {
    PageImage page;
    Status s = stable_->ReadPage(id, &page);
    if (!s.ok()) return "<" + s.ToString() + ">";
    return page.payload().ToString().substr(0, n);
  }

  MemEnv env_;
  OpRegistry registry_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<PageStore> stable_;
  std::unique_ptr<BackupCoordinator> coordinator_;
  IncrementalTracker tracker_;
  std::unique_ptr<CacheManager> cache_;
};

TEST_F(CacheTest, ExecuteAndReadBack) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "hello"));
  PageImage page;
  ASSERT_OK(cache_->ReadPage(P(1), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 5), "hello");
  EXPECT_TRUE(cache_->IsDirty(P(1)));
  EXPECT_EQ(page.lsn(), 1u);
}

TEST_F(CacheTest, OpsAssignMonotoneLsns) {
  Init(BackupPolicy::kGeneral);
  LogRecord a = MakePhysicalWrite(P(1), ValuePage("a"));
  LogRecord b = MakePhysicalWrite(P(2), ValuePage("b"));
  ASSERT_OK(cache_->ExecuteOp(&a));
  ASSERT_OK(cache_->ExecuteOp(&b));
  EXPECT_LT(a.lsn, b.lsn);
}

TEST_F(CacheTest, RejectsCrossPartitionOps) {
  Init(BackupPolicy::kGeneral);
  LogRecord rec = MakeFileCopy({PageId{0, 1}}, {PageId{1, 2}});
  EXPECT_FALSE(cache_->ExecuteOp(&rec).ok());
}

TEST_F(CacheTest, RejectsWriteFreeOps) {
  Init(BackupPolicy::kGeneral);
  LogRecord rec;
  rec.op_code = kOpFileCopy;
  rec.readset = {P(1)};
  EXPECT_FALSE(cache_->ExecuteOp(&rec).ok());
}

TEST_F(CacheTest, FlushMakesPageCleanAndStable) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "persist me"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(1), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 10), "persist me");
}

TEST_F(CacheTest, FlushForcesWalFirst) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "walled"));
  EXPECT_LT(log_->durable_lsn(), 1u);
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_GE(log_->durable_lsn(), 1u);
}

TEST_F(CacheTest, FlushRespectsWriteGraphOrder) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "src"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  ASSERT_OK(CopyOp(1, 2));       // reads 1 writes 2
  ASSERT_OK(WritePageOp(1, "overwrite"));  // writer of 1: reader -> writer
  // Flushing page 1 must install the copy's node (page 2) first.
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(2)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(2), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 3), "src");
}

TEST_F(CacheTest, FlushAllCleansEverything) {
  Init(BackupPolicy::kGeneral);
  for (uint32_t i = 1; i <= 10; ++i) {
    ASSERT_OK(WritePageOp(i, "x" + std::to_string(i)));
  }
  ASSERT_OK(cache_->FlushAll());
  for (uint32_t i = 1; i <= 10; ++i) EXPECT_FALSE(cache_->IsDirty(P(i)));
  EXPECT_EQ(cache_->RedoStartLsn(), log_->next_lsn());
}

TEST_F(CacheTest, EvictionFlushesDirtyVictims) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/8);
  for (uint32_t i = 1; i <= 32; ++i) {
    ASSERT_OK(WritePageOp(i, "v" + std::to_string(i)));
  }
  EXPECT_LE(cache_->CachedPageCount(), 8u);
  // Every page readable with its own value (read-through after evict).
  for (uint32_t i = 1; i <= 32; ++i) {
    PageImage page;
    ASSERT_OK(cache_->ReadPage(P(i), &page));
    EXPECT_EQ(page.payload().ToString().substr(0, 1 + (i >= 10 ? 2 : 1)),
              "v" + std::to_string(i));
  }
  EXPECT_GT(cache_->stats().evictions, 0u);
}

TEST_F(CacheTest, NoIdentityWritesWhenBackupInactive) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "quiet"));
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_EQ(cache_->stats().identity_writes, 0u);
  EXPECT_EQ(cache_->stats().decisions, 0u);
}

TEST_F(CacheTest, GeneralPolicyLogsDoneAndDoubtRegions) {
  Init(BackupPolicy::kGeneral);
  // Fences: done < 10, doubt [10, 20), pend >= 20.
  SetFences(/*done=*/10, /*pending=*/20);
  ASSERT_OK(WritePageOp(5, "done-region"));
  ASSERT_OK(WritePageOp(15, "doubt-region"));
  ASSERT_OK(WritePageOp(25, "pend-region"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  ASSERT_OK(cache_->FlushPage(P(15)));
  ASSERT_OK(cache_->FlushPage(P(25)));
  CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.decisions, 3u);
  EXPECT_EQ(stats.decisions_logged, 2u);  // done + doubt
  EXPECT_EQ(stats.identity_writes, 2u);
  EXPECT_EQ(stats.region_done, 1u);
  EXPECT_EQ(stats.region_doubt, 1u);
  EXPECT_EQ(stats.region_pend, 1u);
  EXPECT_EQ(log_->stats().identity_records, 2u);
}

TEST_F(CacheTest, NaivePolicyNeverLogs) {
  Init(BackupPolicy::kNaive);
  SetFences(10, 20);
  ASSERT_OK(WritePageOp(5, "done-region"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  EXPECT_EQ(cache_->stats().identity_writes, 0u);
}

TEST_F(CacheTest, IdentityWrittenPageIsStillFlushedAndClean) {
  Init(BackupPolicy::kGeneral);
  SetFences(10, 20);
  ASSERT_OK(WritePageOp(5, "logged+flushed"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  EXPECT_FALSE(cache_->IsDirty(P(5)));
  PageImage page;
  ASSERT_OK(stable_->ReadPage(P(5), &page));
  EXPECT_EQ(page.payload().ToString().substr(0, 6), "logged");
  // The stable page carries the identity write's LSN.
  EXPECT_EQ(page.lsn(), log_->durable_lsn());
}

TEST_F(CacheTest, TreePolicyCaseAnalysis) {
  Init(BackupPolicy::kTree, /*tree_graph=*/true);
  SetFences(/*done=*/10, /*pending=*/20);

  // Case Pend(X): plain flush.
  ASSERT_OK(WritePageOp(25, "pend"));
  ASSERT_OK(cache_->FlushPage(P(25)));
  // Case no successors, Done(X): plain flush.
  ASSERT_OK(WritePageOp(5, "done-nosucc"));
  ASSERT_OK(cache_->FlushPage(P(5)));
  CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.identity_writes, 0u);
  EXPECT_EQ(stats.tree_plain_pend_x, 1u);
  EXPECT_EQ(stats.tree_plain_done_succ, 1u);

  // Case Done(X) & !Done(S(X)): Iw/oF. Copy 25 -> 6 gives 6 the
  // successor 25 (pending); 6 is in Done.
  ASSERT_OK(CopyOp(25, 6));
  ASSERT_OK(cache_->FlushPage(P(6)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_done_x, 1u);
  EXPECT_EQ(stats.identity_writes, 1u);

  // Case Doubt(X) & Pend(S(X)): Iw/oF.
  ASSERT_OK(CopyOp(25, 15));
  ASSERT_OK(cache_->FlushPage(P(15)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_pend_succ, 1u);

  // Case Doubt & Doubt without violation (#succ < #X... dagger holds when
  // successor position is below X): copy 11 -> 16 (succ 11 in doubt,
  // X=16 in doubt, 16 > 11 so no violation): plain flush.
  ASSERT_OK(WritePageOp(11, "doubt-src"));
  ASSERT_OK(cache_->FlushPage(P(11)));
  ASSERT_OK(CopyOp(11, 16));
  ASSERT_OK(cache_->FlushPage(P(16)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_plain_doubt_ok, 1u);

  // Case Doubt & Doubt with violation (X=12 below its successor 17):
  ASSERT_OK(WritePageOp(17, "doubt-src2"));
  ASSERT_OK(cache_->FlushPage(P(17)));
  ASSERT_OK(CopyOp(17, 12));
  ASSERT_OK(cache_->FlushPage(P(12)));
  stats = cache_->stats();
  EXPECT_EQ(stats.tree_iwof_doubt_viol, 1u);
}

TEST_F(CacheTest, CheckpointWritesRecord) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "x"));
  ASSERT_OK(cache_->Checkpoint());
  int checkpoints = 0;
  ASSERT_OK(log_->Scan(1, [&](const LogRecord& rec) {
    if (rec.IsCheckpoint()) ++checkpoints;
    return Status::OK();
  }));
  EXPECT_EQ(checkpoints, 1);
}

TEST_F(CacheTest, RedoStartReflectsOldestDirtyOp) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "a"));  // lsn 1
  ASSERT_OK(WritePageOp(2, "b"));  // lsn 2
  EXPECT_EQ(cache_->RedoStartLsn(), 1u);
  ASSERT_OK(cache_->FlushPage(P(1)));
  EXPECT_EQ(cache_->RedoStartLsn(), 2u);
}

TEST_F(CacheTest, TrackerSeesFlushes) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(3, "tracked"));
  ASSERT_OK(cache_->FlushPage(P(3)));
  auto changed = tracker_.SnapshotAndClear();
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0], P(3));
}

TEST_F(CacheTest, MultiPageLogicalOpFlushesAtomicSet) {
  Init(BackupPolicy::kGeneral);
  // Transform writes pages 1..3 in one op: they form one node and must
  // flush together.
  ASSERT_OK(WritePageOp(1, "a"));
  ASSERT_OK(WritePageOp(2, "b"));
  ASSERT_OK(WritePageOp(3, "c"));
  ASSERT_OK(cache_->FlushAll());
  LogRecord rec = MakeFileTransform({P(1), P(2), P(3)}, 42);
  ASSERT_OK(cache_->ExecuteOp(&rec));
  ASSERT_OK(cache_->FlushPage(P(2)));
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(3)));
}

/// Counts file operations per (op, file) and injects nothing.
class CountingPolicy : public FaultPolicy {
 public:
  FaultAction OnOp(FaultOp op, const std::string& file) override {
    ++counts_[{op, file}];
    return FaultAction::kNone;
  }
  uint64_t count(FaultOp op, const std::string& file) const {
    auto it = counts_.find({op, file});
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::map<std::pair<FaultOp, std::string>, uint64_t> counts_;
};

/// Cache misses run the page-fault handler and the S read with the cache
/// mutex released, behind a per-page load latch. A blind write's miss
/// holds that latch as a reservation and reads nothing.
class CacheManagerTest : public CacheTest {
 protected:
  /// The cache's cleaner threads may still be writing through faulty_:
  /// join them before the fixture's envs go away.
  void TearDown() override { cache_.reset(); }

  /// A fault handler that parks every call for `target` until Release.
  /// The first `failures` parked calls fail.
  void InstallParkingHandler(PageId target, int failures = 0) {
    cache_->SetPageFaultHandler([this, target, failures](const PageId& id) {
      calls_.fetch_add(1);
      if (id != target) return Status::OK();
      std::unique_lock<std::mutex> lock(mu_);
      ++parked_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      if (target_calls_++ < failures) return Status::IoError("injected");
      return Status::OK();
    });
  }

  void WaitParked(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return parked_ >= n; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

  // Blind-write ops: kOpFill writes its payload to every target, kOpFail
  // fails in apply, kOpStray also stages an undeclared page.
  static constexpr uint16_t kOpFill = 240;
  static constexpr uint16_t kOpFail = 241;
  static constexpr uint16_t kOpStray = 242;

  void RegisterTestOps() {
    registry_.Register(kOpFill, [](OpContext& ctx, const LogRecord& rec) {
      for (const PageId& id : rec.writeset) {
        LLB_RETURN_IF_ERROR(ctx.Write(id, ValuePage(rec.payload)));
      }
      return Status::OK();
    });
    registry_.Register(kOpFail, [](OpContext&, const LogRecord&) {
      return Status::IoError("apply failed");
    });
    registry_.Register(kOpStray, [](OpContext& ctx, const LogRecord& rec) {
      LLB_RETURN_IF_ERROR(ctx.Write(rec.writeset[0], ValuePage("stray")));
      return ctx.Write(P(99), ValuePage("stray"));
    });
  }

  Status RunOp(uint16_t op_code, std::vector<PageId> writeset,
               const std::string& payload = "") {
    LogRecord rec;
    rec.op_code = op_code;
    rec.writeset = std::move(writeset);
    rec.payload = payload;
    return cache_->ExecuteOp(&rec);
  }

  std::string CachedPrefix(const PageId& id, size_t n) {
    PageImage page;
    Status s = cache_->ReadPage(id, &page);
    if (!s.ok()) return "<" + s.ToString() + ">";
    return page.payload().ToString().substr(0, n);
  }

  uint64_t StableReads() const {
    return counting_.count(FaultOp::kReadAt, "stable.p0");
  }

  // `faulty_` over the MemEnv, passed as Init's stable_env or log_env,
  // counts one store's IO apart from the other's.
  FaultyEnv faulty_{&env_};
  CountingPolicy counting_;
  std::atomic<int> calls_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  int parked_ = 0;
  int target_calls_ = 0;
  bool released_ = false;
};

TEST_F(CacheManagerTest, HitsAndUnrelatedMissesProceedWhileAFaultIsBlocked) {
  Init(BackupPolicy::kGeneral);
  ASSERT_OK(WritePageOp(1, "resident"));
  InstallParkingHandler(P(7));
  Status blocked_status;
  std::thread blocked([&] {
    PageImage image;
    blocked_status = cache_->ReadPage(P(7), &image);
  });
  WaitParked(1);

  // Another thread: a hit, an unrelated miss, and an operation whose page
  // misses all complete while page 7's fault is still parked.
  std::thread other([&] {
    PageImage image;
    EXPECT_OK(cache_->ReadPage(P(1), &image));
    EXPECT_EQ(image.payload().ToString().substr(0, 8), "resident");
    EXPECT_OK(cache_->ReadPage(P(9), &image));
    EXPECT_OK(WritePageOp(10, "written"));
  });
  other.join();
  EXPECT_EQ(cache_->CachedPageCount(), 3u);  // 1, 9, 10 — not yet 7

  Release();
  blocked.join();
  EXPECT_OK(blocked_status);
  EXPECT_EQ(cache_->CachedPageCount(), 4u);
  cache_->SetPageFaultHandler(nullptr);
}

TEST_F(CacheManagerTest, ConcurrentMissesOnOnePageLoadItOnce) {
  Init(BackupPolicy::kGeneral);
  InstallParkingHandler(P(7));
  const uint64_t misses_before = cache_->stats().misses;
  std::vector<std::thread> readers;
  std::vector<Status> results(2);
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      PageImage image;
      results[t] = cache_->ReadPage(P(7), &image);
    });
  }
  WaitParked(1);
  // Give the second reader time to reach the load latch; it must wait
  // there rather than run the handler itself.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Release();
  for (std::thread& t : readers) t.join();
  EXPECT_OK(results[0]);
  EXPECT_OK(results[1]);
  EXPECT_EQ(calls_.load(), 1);  // one handler call
  // One miss, hence one S read; the waiter counts as a hit.
  EXPECT_EQ(cache_->stats().misses - misses_before, 1u);
  EXPECT_EQ(cache_->CachedPageCount(), 1u);
  cache_->SetPageFaultHandler(nullptr);
}

TEST_F(CacheManagerTest, FailedFaultLeavesNoFrameAndWakesWaiters) {
  Init(BackupPolicy::kGeneral);
  InstallParkingHandler(P(7), /*failures=*/1);
  Status first_status;
  std::thread first([&] {
    PageImage image;
    first_status = cache_->ReadPage(P(7), &image);
  });
  WaitParked(1);
  Status second_status;
  std::thread second([&] {
    PageImage image;
    second_status = cache_->ReadPage(P(7), &image);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Release();
  first.join();
  second.join();
  // The failed load left no frame behind: its waiter woke, found the page
  // neither resident nor loading, and faulted it again — successfully.
  EXPECT_TRUE(first_status.IsIoError()) << first_status.ToString();
  EXPECT_OK(second_status);
  EXPECT_EQ(target_calls_, 2);
  EXPECT_EQ(cache_->CachedPageCount(), 1u);

  // Single-threaded: a failing fault leaves the cache untouched.
  cache_->SetPageFaultHandler(
      [](const PageId&) { return Status::IoError("always"); });
  PageImage image;
  EXPECT_FALSE(cache_->ReadPage(P(8), &image).ok());
  EXPECT_EQ(cache_->CachedPageCount(), 1u);
  cache_->SetPageFaultHandler(nullptr);
  EXPECT_OK(cache_->ReadPage(P(8), &image));
  EXPECT_EQ(cache_->CachedPageCount(), 2u);
}

/// Batched write-back: a dirty eviction installs its partition's coldest
/// dirty pages with the victim, as one plan.
class WriteBackTest : public CacheManagerTest {};

TEST_F(WriteBackTest, FlatBatchSkipsTheJournalAndSyncsThePartitionOnce) {
  // 16 frames: batches of up to 16 / 4 = 4 pages from the 4 coldest.
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, &faulty_);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_OK(WritePageOp(2 * i, "even" + std::to_string(2 * i)));
  }
  const CacheStats before = cache_->stats();
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));  // misses: evicts the coldest, page 0
  faulty_.SetPolicy(nullptr);
  const CacheStats after = cache_->stats();

  // Pages 0, 2, 4 and 6 left as one flat batch: four one-page runs in
  // flight, one sync of the partition.
  EXPECT_EQ(after.writeback_batches - before.writeback_batches, 1u);
  EXPECT_EQ(after.writeback_pages - before.writeback_pages, 4u);
  EXPECT_EQ(counting_.count(FaultOp::kSync, "stable.p0"), 1u);
  EXPECT_EQ(counting_.count(FaultOp::kSync, "stable.journal"), 0u);
  EXPECT_EQ(counting_.count(FaultOp::kWriteAt, "stable.journal"), 0u);
  for (uint32_t page : {0u, 2u, 4u, 6u}) {
    EXPECT_FALSE(cache_->IsDirty(P(page))) << page;
    std::string want = "even" + std::to_string(page);
    EXPECT_EQ(StablePrefix(P(page), want.size()), want);
  }
  EXPECT_TRUE(cache_->IsDirty(P(8)));
}

TEST_F(WriteBackTest, BatchWithAPredecessorPairIsWrittenInTwoLevels) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, &faulty_);
  ASSERT_OK(WritePageOp(1, "src"));
  ASSERT_OK(CopyOp(1, 2));                 // the copy's node (page 2) ...
  ASSERT_OK(WritePageOp(1, "overwrite"));  // ... must precede page 1's
  for (uint32_t i = 10; i < 24; ++i) {
    ASSERT_OK(WritePageOp(i, "filler"));
  }
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));  // evicts page 2; page 1 joins it
  faulty_.SetPolicy(nullptr);

  // Level 0 is page 2 with the fillers 10 and 11, level 1 is page 1: two
  // writes, each synced before the next starts.
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.writeback_batches, 1u);
  EXPECT_EQ(stats.writeback_pages, 4u);
  EXPECT_EQ(stats.writeback_multilevel, 1u);
  EXPECT_EQ(counting_.count(FaultOp::kSync, "stable.p0"), 2u);
  EXPECT_EQ(counting_.count(FaultOp::kWriteAt, "stable.journal"), 0u);
  EXPECT_EQ(counting_.count(FaultOp::kSync, "stable.journal"), 0u);
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  EXPECT_EQ(StablePrefix(P(2), 3), "src");
  EXPECT_EQ(StablePrefix(P(1), 9), "overwrite");
}

TEST_F(WriteBackTest, MultiPageNodeIsInstalledThroughIdentityWrites) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, &faulty_);
  ASSERT_OK(WritePageOp(1, "one"));
  ASSERT_OK(WritePageOp(2, "two"));
  LogRecord pair = MakeFileTransform({P(1), P(2)}, /*seed=*/5);
  ASSERT_OK(cache_->ExecuteOp(&pair));  // one node, vars {1, 2}
  for (uint32_t i = 10; i < 24; ++i) {
    ASSERT_OK(WritePageOp(i, "filler"));
  }
  const Lsn before = log_->next_lsn();
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));  // evicts page 1; page 2 comes along
  faulty_.SetPolicy(nullptr);

  // Both vars went to the log first, counted apart from the backup's
  // Iw/oF; then the batch was one write-graph level: one sync of the
  // partition, and no journal file at all.
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.writeback_batches, 1u);
  EXPECT_EQ(stats.writeback_multilevel, 0u);
  EXPECT_EQ(stats.multivar_identity_writes, 2u);
  EXPECT_EQ(stats.identity_writes, 0u);
  EXPECT_EQ(stats.decisions_logged, 0u);
  std::vector<PageId> logged;
  ASSERT_OK(log_->Scan(before, [&](const LogRecord& rec) {
    if (rec.IsInstallIdentity()) logged.push_back(rec.writeset[0]);
    return Status::OK();
  }));
  EXPECT_EQ(logged, (std::vector<PageId>{P(1), P(2)}));
  EXPECT_EQ(counting_.count(FaultOp::kSync, "stable.p0"), 1u);
  EXPECT_EQ(counting_.count(FaultOp::kWriteAt, "stable.journal"), 0u);
  EXPECT_FALSE(env_.FileExists("stable.journal"));
  EXPECT_FALSE(cache_->IsDirty(P(1)));
  EXPECT_FALSE(cache_->IsDirty(P(2)));
}

TEST_F(WriteBackTest, DurableVictimsCostNoLogIo) {
  // The log alone sits behind the counting env.
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, /*stable_env=*/nullptr, &faulty_);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_OK(WritePageOp(i, "page" + std::to_string(i)));
  }
  ASSERT_OK(log_->Force());
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));  // evicts pages 0..3, all durable
  faulty_.SetPolicy(nullptr);

  EXPECT_EQ(cache_->stats().writeback_pages, 4u);
  for (FaultOp op : {FaultOp::kWriteAt, FaultOp::kAppend, FaultOp::kSync}) {
    EXPECT_EQ(counting_.count(op, "log"), 0u) << static_cast<int>(op);
  }
  for (uint32_t i = 0; i < 4; ++i) {
    std::string want = "page" + std::to_string(i);
    EXPECT_EQ(StablePrefix(P(i), want.size()), want);
  }
}

TEST_F(WriteBackTest, OneUndurablePageForcesTheLogOnce) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, /*stable_env=*/nullptr, &faulty_);
  for (uint32_t i = 0; i < 16; ++i) {
    ASSERT_OK(WritePageOp(i, "page" + std::to_string(i)));
  }
  ASSERT_OK(log_->Force());
  // Page 0 changes after the force, then every other page is touched so
  // page 0 is the coldest again: the batch holds it and 1..3.
  ASSERT_OK(WritePageOp(0, "late"));
  for (uint32_t i = 1; i < 16; ++i) {
    PageImage image;
    ASSERT_OK(cache_->ReadPage(P(i), &image));
  }
  const Lsn late = log_->next_lsn() - 1;
  ASSERT_LT(log_->durable_lsn(), late);
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));
  faulty_.SetPolicy(nullptr);

  EXPECT_EQ(cache_->stats().writeback_pages, 4u);
  EXPECT_EQ(counting_.count(FaultOp::kSync, "log"), 1u);
  EXPECT_GE(log_->durable_lsn(), late);
  EXPECT_EQ(StablePrefix(P(0), 4), "late");
}

TEST_F(WriteBackTest, DurableVictimTakesNoPageThatWouldForceTheLog) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, /*stable_env=*/nullptr, &faulty_);
  for (uint32_t i = 0; i < 16; ++i) {
    if (i == 2) ASSERT_OK(log_->Force());
    ASSERT_OK(WritePageOp(i, "page" + std::to_string(i)));
  }
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(99, "new"));  // evicts page 0, which is durable
  faulty_.SetPolicy(nullptr);

  // Pages 0 and 1 leave together. Pages 2 and 3 are among the four
  // coldest too, but were logged after the force: taking them would turn
  // a write-back that needs no log IO into a log force.
  EXPECT_EQ(cache_->stats().writeback_pages, 2u);
  for (FaultOp op : {FaultOp::kWriteAt, FaultOp::kAppend, FaultOp::kSync}) {
    EXPECT_EQ(counting_.count(op, "log"), 0u) << static_cast<int>(op);
  }
  EXPECT_EQ(StablePrefix(P(1), 5), "page1");
  EXPECT_TRUE(cache_->IsDirty(P(2)));
  EXPECT_TRUE(cache_->IsDirty(P(3)));
}

TEST_F(CacheManagerTest, MissReadRunsWhileAnInstallOnItsPartitionSyncs) {
  SyncGateEnv gate(&env_, "stable.p0");
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/64,
       /*partitions=*/1, &gate);
  ASSERT_OK(WritePageOp(1, "installing"));
  gate.Arm();
  Status flushed;
  std::thread installer([&] { flushed = cache_->FlushPage(P(1)); });
  gate.WaitParked();

  // The install has written page 1 and sits in the partition's sync: a
  // miss on another page of the partition still reads S.
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status read;
  std::thread reader([&] {
    PageImage image;
    Status s = cache_->ReadPage(P(7), &image);
    std::lock_guard<std::mutex> lock(mu);
    read = s;
    done = true;
    cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return done; }))
        << "miss read waited behind the install's sync";
  }
  gate.Open();
  reader.join();
  installer.join();
  EXPECT_OK(read);
  EXPECT_OK(flushed);
  EXPECT_EQ(StablePrefix(P(1), 10), "installing");
}

TEST_F(WriteBackTest, VictimsComeFromTheEvictingPartitionAndAreNeverPinned) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/32,
       /*partitions=*/2);
  // LRU from the cold end: x, then partitions 0 and 1 interleaved.
  const PageId x{0, 0};
  ASSERT_OK(WritePageOp(x, "pinned"));
  for (uint32_t i = 1; i <= 15; ++i) {
    ASSERT_OK(WritePageOp(PageId{0, i}, "p0"));
    ASSERT_OK(WritePageOp(PageId{1, i}, "p1"));
  }
  ASSERT_OK(WritePageOp(PageId{1, 16}, "p1"));  // the cache is full

  // An operation pins x, then misses on a page whose load parks in the
  // fault handler: its room-making eviction runs with x pinned, and x
  // stays pinned (and the missed page loading) while it is parked.
  const PageId missed{0, 40};
  InstallParkingHandler(missed);
  Status copy_status;
  std::thread copier([&] { copy_status = CopyOp(x, missed); });
  WaitParked(1);

  // The coldest 32 / 4 = 8 frames were x, (0,1), (1,1), (0,2), (1,2),
  // (0,3), (1,3) and (0,4): the batch is the victim (0,1) plus (0,2..4).
  const CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.writeback_batches, 1u);
  EXPECT_EQ(stats.writeback_pages, 4u);
  EXPECT_TRUE(cache_->IsDirty(x));
  for (uint32_t i = 2; i <= 4; ++i) {
    EXPECT_FALSE(cache_->IsDirty(PageId{0, i})) << i;
    EXPECT_TRUE(cache_->IsDirty(PageId{1, i})) << i;
  }
  EXPECT_TRUE(cache_->IsDirty(PageId{1, 1}));
  EXPECT_TRUE(cache_->IsDirty(PageId{0, 5}));

  Release();
  copier.join();
  EXPECT_OK(copy_status);
  cache_->SetPageFaultHandler(nullptr);
}

TEST_F(WriteBackTest, IdentityWritesMatchLoggedDecisionsUnderABackup) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16);
  // Fences: done < 10, doubt [10, 20), pend >= 20.
  SetFences(/*done=*/10, /*pending=*/20);
  std::map<uint32_t, std::string> model;
  for (uint32_t round = 0; round < 4; ++round) {
    for (uint32_t i = 0; i < 30; ++i) {
      std::string value = "r" + std::to_string(round) + "p" + std::to_string(i);
      ASSERT_OK(WritePageOp(i, value));
      model[i] = value;
      if (i % 5 == 4) {
        // A copy, then an overwrite of its source: the copy's node must
        // install first, so a batch holding both is written in two levels.
        const uint32_t dst = (i + 7) % 30;
        ASSERT_OK(CopyOp(i, dst));
        model[dst] = model[i];
        ASSERT_OK(WritePageOp(i, value + "+"));
        model[i] = value + "+";
      }
    }
  }
  const CacheStats stats = cache_->stats();
  EXPECT_GT(stats.writeback_batches, 0u);
  EXPECT_GT(stats.writeback_pages, stats.writeback_batches);
  EXPECT_GT(stats.writeback_multilevel, 0u);
  EXPECT_GT(stats.decisions_logged, 0u);
  EXPECT_EQ(stats.identity_writes, stats.decisions_logged);
  EXPECT_EQ(log_->stats().identity_records, stats.identity_writes);

  ASSERT_OK(cache_->FlushAll());
  for (const auto& [page, value] : model) {
    EXPECT_EQ(StablePrefix(P(page), value.size()), value) << page;
  }
}

TEST_F(WriteBackTest, ThreeThreadsEvictingThreePartitions) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/24,
       /*partitions=*/3);
  constexpr uint32_t kPages = 20;
  std::vector<std::map<uint32_t, std::string>> models(3);
  std::vector<Status> results(3);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      std::map<uint32_t, std::string>& model = models[t];
      for (uint32_t i = 0; i < 300 && results[t].ok(); ++i) {
        const uint32_t page = (i * 7 + t) % kPages;
        if (i % 4 == 3 && model.count(page) != 0) {
          const uint32_t dst = (page + 3) % kPages;
          results[t] = CopyOp(PageId{t, page}, PageId{t, dst});
          model[dst] = model[page];
        } else {
          std::string value = "t" + std::to_string(t) + "i" + std::to_string(i);
          results[t] = WritePageOp(PageId{t, page}, value);
          model[page] = value;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : results) EXPECT_OK(status);
  EXPECT_LE(cache_->CachedPageCount(), 24u);
  const CacheStats stats = cache_->stats();
  EXPECT_GT(stats.writeback_batches, 0u);
  EXPECT_GT(stats.writeback_pages, stats.writeback_batches);

  ASSERT_OK(cache_->FlushAll());
  for (uint32_t t = 0; t < 3; ++t) {
    for (const auto& [page, value] : models[t]) {
      EXPECT_EQ(StablePrefix(PageId{t, page}, value.size()), value)
          << t << ":" << page;
    }
  }
}

/// Cleaner threads write dirty pages back while two or more clients are
/// inside the cache; a lone client writes back for itself.
class CleanerTest : public CacheManagerTest {
 protected:
  /// Writes `dirty` pages 0.. (fewer than the capacity: no eviction),
  /// then parks a second client in the fault handler of a miss that
  /// needs no room, so the next operation runs beside another client.
  void ParkSecondClient(uint32_t dirty) {
    for (uint32_t i = 0; i < dirty; ++i) {
      ASSERT_OK(WritePageOp(i, "v" + std::to_string(i)));
    }
    InstallParkingHandler(P(50));
    parked_client_ = std::thread([this] {
      PageImage image;
      parked_status_ = cache_->ReadPage(P(50), &image);
    });
    WaitParked(1);
  }

  void ReleaseSecondClient() {
    Release();
    parked_client_.join();
    EXPECT_OK(parked_status_);
    cache_->SetPageFaultHandler(nullptr);
  }

  /// Fails every write to the stable store.
  class FailStableWrites : public FaultPolicy {
   public:
    FaultAction OnOp(FaultOp op, const std::string& file) override {
      return op == FaultOp::kWriteAt && file.find("stable") == 0
                 ? FaultAction::kFail
                 : FaultAction::kNone;
    }
  };

  std::thread parked_client_;
  Status parked_status_;
};

TEST_F(CleanerTest, LoneClientWritesBackForItself) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16);
  for (uint32_t i = 0; i < 400; ++i) {
    ASSERT_OK(WritePageOp(i % 40, "v" + std::to_string(i)));
  }
  const CacheStats stats = cache_->stats();
  EXPECT_GT(stats.client_writebacks, 0u);
  EXPECT_EQ(stats.client_writebacks, stats.writeback_batches);
  EXPECT_EQ(stats.cleaner_installs, 0u);
}

TEST_F(CleanerTest, ThreeClientsLeaveWriteBackToTheCleaners) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/64,
       /*partitions=*/3);
  constexpr uint32_t kPages = 40;
  constexpr uint32_t kOps = 3000;
  std::vector<std::map<uint32_t, std::string>> models(3);
  std::vector<Status> results(3);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = 0; i < kOps && results[t].ok(); ++i) {
        const uint32_t page = (i * 7 + t) % kPages;
        std::string value = "t" + std::to_string(t) + "i" + std::to_string(i);
        results[t] = WritePageOp(PageId{t, page}, value);
        models[t][page] = value;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : results) ASSERT_OK(status);
  const CacheStats stats = cache_->stats();
  EXPECT_GT(stats.cleaner_installs, 0u);
  EXPECT_EQ(stats.cleaner_installs + stats.client_writebacks,
            stats.writeback_batches);
  // Without cleaners every one of these batches is a client's.
  EXPECT_LT(stats.client_writebacks, stats.writeback_batches / 2);

  ASSERT_OK(cache_->FlushAll());
  for (uint32_t t = 0; t < 3; ++t) {
    for (const auto& [page, value] : models[t]) {
      EXPECT_EQ(StablePrefix(PageId{t, page}, value.size()), value)
          << t << ":" << page;
    }
  }
}

TEST_F(CleanerTest, FailedCleanerInstallLeavesPagesDirtyAndFailsAClientOp) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, &faulty_);
  ParkSecondClient(15);
  FailStableWrites fail;
  faulty_.SetPolicy(&fail);
  // One frame is free and none is clean: below 16 / 4, so this op wakes
  // the cleaners, and the install of the coldest pages fails. Page 14 is
  // resident, so the op itself never writes back.
  Status s;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (s.ok() && std::chrono::steady_clock::now() < deadline) {
    s = WritePageOp(14, "again");
    if (s.ok()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(s.IsIoError()) << s.ToString();
  for (uint32_t i = 0; i < 15; ++i) EXPECT_TRUE(cache_->IsDirty(P(i))) << i;
  EXPECT_EQ(cache_->stats().cleaner_installs, 0u);

  faulty_.SetPolicy(nullptr);
  ReleaseSecondClient();
  ASSERT_OK(cache_->FlushAll());
  for (uint32_t i = 0; i < 14; ++i) {
    std::string want = "v" + std::to_string(i);
    EXPECT_EQ(StablePrefix(P(i), want.size()), want);
  }
  EXPECT_EQ(StablePrefix(P(14), 5), "again");
}

TEST_F(CleanerTest, ClosingMidCleanJoinsTheCleaners) {
  SyncGateEnv gate(&env_, "stable.p0");
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/16,
       /*partitions=*/1, &gate);
  ParkSecondClient(15);
  gate.Arm();
  // Wakes the cleaners: one installs pages 0..3, the coldest, and parks
  // in the stable store's sync.
  ASSERT_OK(WritePageOp(14, "again"));
  gate.WaitParked();
  ReleaseSecondClient();

  std::atomic<bool> closed{false};
  std::thread closer([&] {
    cache_.reset();
    closed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(closed) << "closed while a cleaner's install was in flight";
  gate.Open();
  closer.join();
  for (uint32_t i = 0; i < 4; ++i) {
    std::string want = "v" + std::to_string(i);
    EXPECT_EQ(StablePrefix(P(i), want.size()), want);
  }
}

// Blind writes: a writeset page outside the readset that misses is
// reserved under its load latch and never read from S; its staged image
// becomes the frame at commit. `faulty_` hosts S alone, so its counted
// reads are S reads.

TEST_F(CacheManagerTest, BlindMissReadsNothingAndReadsBackAfterEviction) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/8,
       /*partitions=*/1, &faulty_);
  faulty_.SetPolicy(&counting_);
  ASSERT_OK(WritePageOp(5, "blind"));  // W_P: writes 5, reads nothing
  ASSERT_OK(CopyOp(5, 6));             // the copy's target is blind too
  CacheStats stats = cache_->stats();
  EXPECT_EQ(stats.blind_misses, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);  // the copy's source
  // Fillers (blind as well) push pages 5 and 6 out through write-back.
  for (uint32_t i = 10; i < 30; ++i) {
    ASSERT_OK(WritePageOp(i, "filler"));
  }
  EXPECT_EQ(StableReads(), 0u);
  EXPECT_EQ(StablePrefix(P(5), 5), "blind");
  const uint64_t reads_before = StableReads();
  EXPECT_EQ(CachedPrefix(P(5), 5), "blind");
  EXPECT_EQ(CachedPrefix(P(6), 5), "blind");
  EXPECT_EQ(StableReads() - reads_before, 2u);  // two real misses now
  faulty_.SetPolicy(nullptr);
  stats = cache_->stats();
  EXPECT_EQ(stats.blind_misses, 22u);
  EXPECT_EQ(stats.misses, 24u);
}

TEST_F(CacheManagerTest, FailedBlindApplyLeavesNoFrameAndTheOldValue) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/8,
       /*partitions=*/1, &faulty_);
  RegisterTestOps();
  ASSERT_OK(WritePageOp(5, "old"));
  ASSERT_OK(cache_->FlushAll());
  ASSERT_OK(cache_->DropCleanPages());
  ASSERT_EQ(cache_->CachedPageCount(), 0u);
  cache_->ResetStats();

  EXPECT_TRUE(RunOp(kOpFail, {P(5)}).IsIoError());
  EXPECT_EQ(cache_->CachedPageCount(), 0u);
  EXPECT_EQ(RunOp(kOpStray, {P(5)}).code(), Status::Code::kInternal);
  EXPECT_EQ(cache_->CachedPageCount(), 0u);
  EXPECT_EQ(cache_->stats().misses, 2u);  // two reservations, no reads
  EXPECT_EQ(cache_->stats().blind_misses, 0u);

  // The reservations are gone: a reader misses and reads S's value.
  faulty_.SetPolicy(&counting_);
  EXPECT_EQ(CachedPrefix(P(5), 3), "old");
  faulty_.SetPolicy(nullptr);
  EXPECT_EQ(StableReads(), 1u);
  EXPECT_FALSE(cache_->IsDirty(P(5)));
}

TEST_F(CacheManagerTest, ReaderMissingAReservedPageWaitsForTheNewValue) {
  SyncGateEnv gate(&faulty_, "stable.p0");
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/4,
       /*partitions=*/1, &gate);
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_OK(WritePageOp(i, "dirty"));
  }
  faulty_.SetPolicy(&counting_);
  gate.Arm();
  Status wrote;
  std::thread writer([&] { wrote = WritePageOp(9, "fresh"); });
  // Page 9 is reserved; making room for it parks in the write-back's
  // stable sync with the cache mutex released.
  gate.WaitParked();

  std::atomic<bool> read_done{false};
  Status read;
  PageImage image;
  std::thread reader([&] {
    read = cache_->ReadPage(P(9), &image);
    read_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(read_done.load()) << "the reader did not wait on the latch";
  gate.Open();
  writer.join();
  reader.join();
  faulty_.SetPolicy(nullptr);
  EXPECT_OK(wrote);
  EXPECT_OK(read);
  EXPECT_EQ(image.payload().ToString().substr(0, 5), "fresh");
  EXPECT_EQ(StableReads(), 0u);
  EXPECT_EQ(cache_->stats().blind_misses, 5u);
  // Two clients overlapped, so cleaners may be writing through the gate:
  // join them before it goes out of scope.
  cache_.reset();
}

TEST_F(CacheManagerTest, CrossedBlindWritersOnFourThreadsFinish) {
  // Four frames over eight pages: most pair writes miss both pages, and
  // every room-making eviction is dirty, so it releases the cache mutex
  // while the op holds a reservation.
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/4);
  RegisterTestOps();
  std::vector<Status> results(4);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (uint32_t i = 0; i < 300 && results[t].ok(); ++i) {
        const PageId x = P((i / 2) % 8);
        const PageId z = P((i / 2 + 1) % 8);
        const std::string value = "t" + std::to_string(t);
        // Odd threads take the pair in the other order: {X,Z} / {Z,X}.
        results[t] = RunOp(kOpFill, t % 2 == 0 ? std::vector<PageId>{x, z}
                                               : std::vector<PageId>{z, x},
                           value);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Status& status : results) EXPECT_OK(status);
  const CacheStats stats = cache_->stats();
  EXPECT_GT(stats.blind_misses, 0u);
  EXPECT_EQ(stats.ops_applied, 1200u);
  ASSERT_OK(cache_->FlushAll());
  for (uint32_t page = 0; page < 8; ++page) {
    EXPECT_EQ(StablePrefix(P(page), 1), "t") << page;
  }
}

TEST_F(CacheManagerTest, RestoringModeBlindWriteRunsTheHandlerBeforeItsRecord) {
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/8,
       /*partitions=*/1, &faulty_);
  std::vector<std::pair<PageId, Lsn>> faults;
  cache_->SetPageFaultHandler([&](const PageId& id) {
    faults.emplace_back(id, log_->next_lsn());
    return Status::OK();
  });
  faulty_.SetPolicy(&counting_);
  LogRecord rec = MakePhysicalWrite(P(7), ValuePage("restored"));
  ASSERT_OK(cache_->ExecuteOp(&rec));
  faulty_.SetPolicy(nullptr);
  cache_->SetPageFaultHandler(nullptr);

  // The handler restored page 7 before the record took its LSN, and the
  // miss read S as a fault does.
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].first, P(7));
  EXPECT_EQ(faults[0].second, rec.lsn);
  EXPECT_EQ(StableReads(), 1u);
  EXPECT_EQ(cache_->stats().blind_misses, 0u);
  EXPECT_EQ(cache_->stats().misses, 1u);
}

TEST_F(CacheManagerTest, InstallConflictRestartCountsEachDeclaredPageOnce) {
  SyncGateEnv gate(&env_, "stable.p0");
  Init(BackupPolicy::kGeneral, /*tree_graph=*/false, /*capacity=*/64,
       /*partitions=*/1, &gate);
  RegisterTestOps();
  ASSERT_OK(WritePageOp(1, "installing"));
  gate.Arm();
  Status flushed;
  std::thread installer([&] { flushed = cache_->FlushPage(P(1)); });
  gate.WaitParked();
  const CacheStats before = cache_->stats();

  // Page 1 is resident but mid-install and page 2 misses: the op pins 1,
  // reserves 2, meets the install, drops both and waits; once the
  // install ends it pins and reserves them again, and commits.
  Status wrote;
  std::thread writer([&] { wrote = RunOp(kOpFill, {P(1), P(2)}, "both"); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache_->stats().install_waits == before.install_waits &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(cache_->stats().install_waits, before.install_waits);
  gate.Open();
  writer.join();
  installer.join();
  EXPECT_OK(flushed);
  EXPECT_OK(wrote);

  // Two passes, one hit (page 1) and one blind miss (page 2).
  const CacheStats after = cache_->stats();
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.blind_misses - before.blind_misses, 1u);
  EXPECT_EQ(CachedPrefix(P(2), 4), "both");
}

}  // namespace
}  // namespace llb
