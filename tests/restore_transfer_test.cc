#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "filestore/filestore.h"
#include "io/transfer_pipeline.h"
#include "recovery/media_recovery.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"

namespace llb {
namespace {

/// Coverage of the restore side of the shared TransferPipeline: batching,
/// prefetch pipelining and partition-sharded restore workers must all be
/// pure scheduling changes (the restored S is byte-identical to the
/// serial per-page restore), and the chain-coalescing apply must land
/// every page exactly once, from the newest chain member carrying it.

constexpr uint32_t kPartitions = 4;
constexpr uint32_t kPages = 32;

DbOptions RestoreDb() {
  DbOptions options;
  options.partitions = kPartitions;
  options.pages_per_partition = kPages;
  options.cache_pages = 32;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  return options;
}

/// One-page files per partition with per-partition content: file f of
/// partition p holds {p * 1000 + f, 1}.
Status SeedPartitions(Database* db,
                      std::vector<std::unique_ptr<FileStore>>* stores) {
  for (uint32_t p = 0; p < kPartitions; ++p) {
    stores->push_back(std::make_unique<FileStore>(
        db, p, /*base_page=*/0, /*pages_per_file=*/1, /*num_files=*/kPages));
    for (uint32_t f = 0; f < kPages; ++f) {
      LLB_RETURN_IF_ERROR((*stores)[p]->WriteValues(
          f, {static_cast<int64_t>(p) * 1000 + f, 1}));
    }
  }
  LLB_RETURN_IF_ERROR(db->FlushAll());
  return db->Checkpoint();
}

Status WipeStable(Env* env, const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  for (PartitionId p = 0; p < kPartitions; ++p) {
    LLB_RETURN_IF_ERROR(stable->WipePartition(p));
  }
  return Status::OK();
}

/// Raw bytes of every stable page, for byte-identity comparison across
/// restore configurations.
Result<std::vector<std::string>> SnapshotStable(Env* env,
                                                const std::string& db_name) {
  LLB_ASSIGN_OR_RETURN(
      std::unique_ptr<PageStore> stable,
      PageStore::Open(env, Database::StableName(db_name), kPartitions));
  std::vector<std::string> pages;
  for (PartitionId p = 0; p < kPartitions; ++p) {
    for (uint32_t page = 0; page < kPages; ++page) {
      PageImage image;
      LLB_RETURN_IF_ERROR(stable->ReadPage(PageId{p, page}, &image));
      pages.push_back(image.raw_string());
    }
  }
  return pages;
}

TEST(TransferPlanTest, AddRangeChopsAtBatchPages) {
  TransferPlan plan;
  plan.AddRange(/*partition=*/3, /*from=*/0, /*to=*/10,
                /*page_filter=*/nullptr, /*batch_pages=*/4);
  ASSERT_EQ(plan.runs().size(), 3u);
  EXPECT_EQ(plan.runs()[0].partition, 3u);
  EXPECT_EQ(plan.runs()[0].first_page, 0u);
  EXPECT_EQ(plan.runs()[0].count, 4u);
  EXPECT_EQ(plan.runs()[1].first_page, 4u);
  EXPECT_EQ(plan.runs()[1].count, 4u);
  EXPECT_EQ(plan.runs()[2].first_page, 8u);
  EXPECT_EQ(plan.runs()[2].count, 2u);
  EXPECT_EQ(plan.pages(), 10u);
}

TEST(TransferPlanTest, AddRangeSplitsOnFilterGaps) {
  const std::vector<uint32_t> filter = {1, 2, 3, 7, 8, 9};
  TransferPlan plan;
  plan.AddRange(0, 0, 10, &filter, /*batch_pages=*/8);
  ASSERT_EQ(plan.runs().size(), 2u);
  EXPECT_EQ(plan.runs()[0].first_page, 1u);
  EXPECT_EQ(plan.runs()[0].count, 3u);
  EXPECT_EQ(plan.runs()[1].first_page, 7u);
  EXPECT_EQ(plan.runs()[1].count, 3u);
  EXPECT_EQ(plan.pages(), 6u);
}

TEST(TransferPlanTest, DenseButPatchyFilterDegeneratesToSingletonRuns) {
  // The instant-restore sweep plans around already-restored pages, and
  // the worst case for run coalescing is a dense-but-patchy filter:
  // every other page still missing. No two accepted positions are
  // adjacent, so the plan must degenerate to singleton runs — one per
  // accepted page, never a run spanning a restored hole — regardless of
  // how large batch_pages is.
  std::vector<uint32_t> odd_pages;
  for (uint32_t page = 1; page < 64; page += 2) odd_pages.push_back(page);
  TransferPlan plan;
  plan.AddRange(0, 0, 64, &odd_pages, /*batch_pages=*/32);
  ASSERT_EQ(plan.runs().size(), odd_pages.size());
  for (size_t i = 0; i < plan.runs().size(); ++i) {
    EXPECT_EQ(plan.runs()[i].first_page, odd_pages[i]);
    EXPECT_EQ(plan.runs()[i].count, 1u);
  }
  EXPECT_EQ(plan.pages(), odd_pages.size());
}

TEST(TransferPlanTest, PatchyFilterRunsBreakAtEveryGapAndChopAtBatch) {
  // Mixed density: a solid prefix longer than batch_pages, then an
  // every-other-page tail. The prefix chops at the batch boundary (a
  // scheduling split), the tail splits at each gap (a correctness
  // split), and no run bridges the two regimes.
  std::vector<uint32_t> filter;
  for (uint32_t page = 0; page < 12; ++page) filter.push_back(page);
  for (uint32_t page = 13; page < 29; page += 2) filter.push_back(page);
  TransferPlan plan;
  plan.AddRange(0, 0, 29, &filter, /*batch_pages=*/8);
  // Prefix 0..11 -> [0,8) + [8,12); tail -> singletons 13,15,...,27.
  ASSERT_EQ(plan.runs().size(), 2u + 8u);
  EXPECT_EQ(plan.runs()[0].first_page, 0u);
  EXPECT_EQ(plan.runs()[0].count, 8u);
  EXPECT_EQ(plan.runs()[1].first_page, 8u);
  EXPECT_EQ(plan.runs()[1].count, 4u);
  for (size_t i = 2; i < plan.runs().size(); ++i) {
    EXPECT_EQ(plan.runs()[i].first_page, 13u + 2 * (i - 2));
    EXPECT_EQ(plan.runs()[i].count, 1u);
  }
  EXPECT_EQ(plan.pages(), filter.size());
}

TEST(TransferPlanTest, FilterClampsToRangeBounds) {
  // Filter entries outside [from, to) — pages another sweep step owns —
  // must not leak runs into this step's plan.
  const std::vector<uint32_t> filter = {0, 3, 9, 10, 11, 17, 30};
  TransferPlan plan;
  plan.AddRange(0, 8, 16, &filter, /*batch_pages=*/8);
  ASSERT_EQ(plan.runs().size(), 1u);
  EXPECT_EQ(plan.runs()[0].first_page, 9u);
  EXPECT_EQ(plan.runs()[0].count, 3u);
  EXPECT_EQ(plan.pages(), 3u);
}

TEST(TransferPlanTest, AllPagesFilteredOutYieldsEmptyPlan) {
  // A fully-restored region plans to nothing (the sweep's termination
  // case), as does an empty filter list.
  const std::vector<uint32_t> outside = {40, 41, 42};
  const std::vector<uint32_t> empty;
  TransferPlan plan;
  plan.AddRange(0, 0, 32, &outside, /*batch_pages=*/8);
  plan.AddRange(1, 0, 32, &empty, /*batch_pages=*/8);
  EXPECT_TRUE(plan.runs().empty());
  EXPECT_EQ(plan.pages(), 0u);
}

TEST(TransferPlanTest, SeparateAddRangeCallsNeverMergeRuns) {
  // A resumed sweep step re-plans from its durable boundary; its first
  // run must not fuse with the previous call's trailing run even when
  // the positions are contiguous.
  TransferPlan plan;
  plan.AddRange(0, 0, 3, nullptr, /*batch_pages=*/8);
  plan.AddRange(0, 3, 6, nullptr, /*batch_pages=*/8);
  ASSERT_EQ(plan.runs().size(), 2u);
  EXPECT_EQ(plan.runs()[0].count, 3u);
  EXPECT_EQ(plan.runs()[1].first_page, 3u);
  EXPECT_EQ(plan.runs()[1].count, 3u);
}

TEST(TransferPlanTest, AddPagesCoalescesAdjacentIdsWithinPartition) {
  const std::vector<PageId> pages = {
      {0, 4}, {0, 5}, {0, 6}, {0, 9}, {1, 0}, {1, 1}, {2, 7},
  };
  TransferPlan plan;
  plan.AddPages(pages, /*batch_pages=*/2);
  ASSERT_EQ(plan.runs().size(), 5u);
  // {0,4-5} chopped at batch, {0,6}, {0,9}, {1,0-1}, {2,7}.
  EXPECT_EQ(plan.runs()[0].partition, 0u);
  EXPECT_EQ(plan.runs()[0].first_page, 4u);
  EXPECT_EQ(plan.runs()[0].count, 2u);
  EXPECT_EQ(plan.runs()[1].first_page, 6u);
  EXPECT_EQ(plan.runs()[1].count, 1u);
  EXPECT_EQ(plan.runs()[2].first_page, 9u);
  EXPECT_EQ(plan.runs()[3].partition, 1u);
  EXPECT_EQ(plan.runs()[3].count, 2u);
  EXPECT_EQ(plan.runs()[4].partition, 2u);
  EXPECT_EQ(plan.pages(), 7u);
}

TEST(RestoreTransferTest, BatchedAndParallelRestoresAreByteIdentical) {
  DbOptions options = RestoreDb();
  ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                       TestEngine::Create(options));
  std::vector<std::unique_ptr<FileStore>> stores;
  ASSERT_OK(SeedPartitions(engine->db(), &stores));
  ASSERT_OK(engine->db()->TakeBackup("full").status());

  // Scattered deltas across every partition, then an incremental.
  std::mt19937_64 rng(17);
  for (int i = 0; i < 40; ++i) {
    uint32_t p = static_cast<uint32_t>(rng() % kPartitions);
    uint32_t f = static_cast<uint32_t>(rng() % kPages);
    ASSERT_OK(stores[p]->WriteValues(
        f, {static_cast<int64_t>(p) * 1000 + f, 2, static_cast<int64_t>(i)}));
  }
  ASSERT_OK(engine->db()->FlushAll());
  ASSERT_OK(engine->db()->TakeIncrementalBackup("inc", "full").status());

  // Post-backup tail the roll-forward must replay.
  for (int i = 0; i < 20; ++i) {
    uint32_t p = static_cast<uint32_t>(rng() % kPartitions);
    uint32_t f = static_cast<uint32_t>(rng() % kPages);
    ASSERT_OK(stores[p]->WriteValues(
        f, {static_cast<int64_t>(p) * 1000 + f, 3}));
  }
  ASSERT_OK(engine->db()->ForceLog());
  stores.clear();
  ASSERT_OK(engine->Shutdown());

  OpRegistry registry;
  RegisterAllOps(&registry);

  struct Config {
    const char* tag;
    uint32_t batch_pages;
    uint32_t queue_depth;
    uint32_t threads;
  };
  const Config kConfigs[] = {
      {"serial per-page", 1, 1, 1},
      {"batched", 32, 1, 1},
      {"batched qd4", 8, 4, 1},
      {"parallel t2", 8, 4, 2},
      {"parallel t4", 32, 1, 4},
      {"parallel t8", 8, 4, 8},
  };
  std::vector<std::string> reference;
  for (const Config& config : kConfigs) {
    ASSERT_OK(WipeStable(engine->env(), "db"));
    RestoreOptions restore;
    restore.batch_pages = config.batch_pages;
    restore.queue_depth = config.queue_depth;
    restore.threads = config.threads;
    ASSERT_OK_AND_ASSIGN(
        MediaRecoveryReport report,
        RestoreFromBackupWithOptions(engine->env(),
                                     Database::StableName("db"),
                                     Database::LogName("db"), "inc", registry,
                                     restore));
    EXPECT_EQ(report.backups_applied, 2u) << config.tag;
    // Coalesced apply: every position lands exactly once.
    EXPECT_EQ(report.pages_restored, uint64_t{kPartitions} * kPages)
        << config.tag;
    ASSERT_OK_AND_ASSIGN(std::vector<std::string> snapshot,
                         SnapshotStable(engine->env(), "db"));
    if (reference.empty()) {
      reference = std::move(snapshot);
    } else {
      EXPECT_EQ(snapshot, reference)
          << config.tag << " restore differs from the serial restore";
    }
  }

  // The (shared) restored state is the full-log oracle's.
  {
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<LogManager> log,
        LogManager::Open(engine->env(), Database::LogName("db")));
    std::unique_ptr<PageStore> oracle;
    ASSERT_OK(testutil::BuildOracle(engine->env(), *log, registry,
                                    "oracle_bi", kPartitions, &oracle));
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *oracle, kPartitions, kPages),
              "");
  }

  // And the database reopens over it.
  ASSERT_OK(engine->Reopen());
  FileStore check(engine->db(), 1, 0, 1, kPages);
  ASSERT_OK_AND_ASSIGN(std::vector<int64_t> values, check.ReadValues(3));
  ASSERT_FALSE(values.empty());
  EXPECT_EQ(values[0], 1003);
}

TEST(RestoreTransferTest, ChainCoalescingMatchesNaiveApply) {
  // Randomized delta chains: three incrementals with overlapping page
  // sets, quiesced during each backup, nothing after the last one. At
  // stop_at_lsn = the newest manifest's end LSN the copy phase alone
  // determines S, so the coalesced (newest-wins, each page once) apply
  // must byte-match a naive in-order apply of every chain member — while
  // writing only kPartitions * kPages pages instead of the chain total.
  for (uint64_t seed : {11u, 29u}) {
    DbOptions options = RestoreDb();
    ASSERT_OK_AND_ASSIGN(std::unique_ptr<TestEngine> engine,
                         TestEngine::Create(options));
    std::vector<std::unique_ptr<FileStore>> stores;
    ASSERT_OK(SeedPartitions(engine->db(), &stores));
    ASSERT_OK(engine->db()->TakeBackup("bk0").status());

    std::mt19937_64 rng(seed);
    std::vector<std::string> chain_names = {"bk0"};
    uint64_t naive_writes = uint64_t{kPartitions} * kPages;
    for (int link = 1; link <= 3; ++link) {
      // Files 0..5 of partition 0 change every round (guaranteed
      // supersession) plus a random scatter.
      for (uint32_t f = 0; f < 6; ++f) {
        ASSERT_OK(stores[0]->WriteValues(f, {link, static_cast<int64_t>(f)}));
      }
      for (int i = 0; i < 15; ++i) {
        uint32_t p = static_cast<uint32_t>(rng() % kPartitions);
        uint32_t f = static_cast<uint32_t>(rng() % kPages);
        ASSERT_OK(stores[p]->WriteValues(f, {link, p, f}));
      }
      ASSERT_OK(engine->db()->FlushAll());
      std::string name = "bk" + std::to_string(link);
      ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                           engine->db()->TakeIncrementalBackup(
                               name, chain_names.back()));
      naive_writes += manifest.pages.size();
      chain_names.push_back(name);
    }
    ASSERT_OK(engine->db()->ForceLog());
    stores.clear();
    ASSERT_OK(engine->Shutdown());

    // Naive apply: every chain member in order, page at a time, older
    // copies overwritten by newer ones.
    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> naive,
        PageStore::Open(engine->env(), "naive_apply", kPartitions));
    Lsn stop_at = kInvalidLsn;
    for (const std::string& name : chain_names) {
      ASSERT_OK_AND_ASSIGN(BackupManifest manifest,
                           BackupManifest::Load(engine->env(), name));
      ASSERT_OK_AND_ASSIGN(
          std::unique_ptr<PageStore> source,
          PageStore::Open(engine->env(), manifest.StoreName(), kPartitions));
      std::vector<PageId> ids = manifest.pages;
      if (!manifest.incremental) {
        for (PartitionId p = 0; p < kPartitions; ++p) {
          for (uint32_t page = 0; page < kPages; ++page) {
            ids.push_back(PageId{p, page});
          }
        }
      }
      for (const PageId& id : ids) {
        PageImage image;
        ASSERT_OK(source->ReadPage(id, &image));
        ASSERT_OK(naive->WritePage(id, image));
      }
      stop_at = manifest.end_lsn;
    }
    ASSERT_GT(naive_writes, uint64_t{kPartitions} * kPages);

    ASSERT_OK(WipeStable(engine->env(), "db"));
    OpRegistry registry;
    RegisterAllOps(&registry);
    RestoreOptions restore;
    restore.batch_pages = 8;
    restore.queue_depth = 4;
    restore.threads = 2;
    restore.stop_at_lsn = stop_at;
    ASSERT_OK_AND_ASSIGN(
        MediaRecoveryReport report,
        RestoreFromBackupWithOptions(engine->env(),
                                     Database::StableName("db"),
                                     Database::LogName("db"),
                                     chain_names.back(), registry, restore));
    EXPECT_EQ(report.backups_applied, 4u);
    // The coalesced apply wrote each position once; the naive apply
    // re-wrote every superseded delta page.
    EXPECT_EQ(report.pages_restored, uint64_t{kPartitions} * kPages);

    ASSERT_OK_AND_ASSIGN(
        std::unique_ptr<PageStore> stable,
        PageStore::Open(engine->env(), Database::StableName("db"),
                        kPartitions));
    EXPECT_EQ(testutil::DiffStores(*stable, *naive, kPartitions, kPages), "")
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace llb
