// Unit tests for the benchmark's own code: op streams, the percentile
// estimator, span self-time reduction and the file-kind classifier.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "kind_env.h"
#include "op_stream.h"
#include "stats.h"
#include "trace.h"

namespace llbench {
namespace {

bool SameOp(const ClientOp& a, const ClientOp& b) {
  return a.type == b.type && a.partition == b.partition && a.file == b.file &&
         a.src == b.src && a.value == b.value;
}

std::vector<ClientOp> Stream(uint64_t seed, uint32_t client, size_t n,
                             const StreamShape& shape) {
  std::vector<ClientOp> ops;
  for (uint64_t i = 0; i < n; ++i) ops.push_back(MakeOp(seed, client, i, shape));
  return ops;
}

TEST(OpStreamTest, SameSeedGivesIdenticalStreams) {
  StreamShape shape;
  shape.own_partition = 1;
  for (uint32_t client = 0; client < 3; ++client) {
    std::vector<ClientOp> a = Stream(42, client, 2000, shape);
    std::vector<ClientOp> b = Stream(42, client, 2000, shape);
    for (size_t i = 0; i < a.size(); ++i) ASSERT_TRUE(SameOp(a[i], b[i])) << i;
  }
  // Order of generation does not matter: op i is a pure function.
  EXPECT_TRUE(SameOp(MakeOp(42, 2, 1234, shape),
                     Stream(42, 2, 1235, shape).back()));
}

TEST(OpStreamTest, DifferentSeedsOrClientsGiveDifferentStreams) {
  StreamShape shape;
  auto differs = [](const std::vector<ClientOp>& a,
                    const std::vector<ClientOp>& b) {
    size_t diff = 0;
    for (size_t i = 0; i < a.size(); ++i) diff += SameOp(a[i], b[i]) ? 0 : 1;
    return diff;
  };
  std::vector<ClientOp> base = Stream(1, 0, 1000, shape);
  EXPECT_GT(differs(base, Stream(2, 0, 1000, shape)), 900u);
  EXPECT_GT(differs(base, Stream(1, 1, 1000, shape)), 900u);
}

TEST(OpStreamTest, MixAndPlacementFollowTheShape) {
  StreamShape shape;
  shape.own_partition = 2;
  shape.files = 1024;
  shape.hot_files = 64;
  shape.cold_read_partitions = {5, 6};
  size_t counts[3] = {0, 0, 0};
  size_t hot = 0;
  const size_t n = 20000;
  for (uint64_t i = 0; i < n; ++i) {
    ClientOp op = MakeOp(7, 0, i, shape);
    ++counts[static_cast<int>(op.type)];
    ASSERT_LT(op.file, shape.files);
    if (op.type != OpType::kRead) {
      ASSERT_EQ(op.partition, 2u);
    } else {
      ASSERT_TRUE(op.partition == 2 || op.partition == 5 || op.partition == 6);
    }
    if (op.type == OpType::kCopy) {
      ASSERT_NE(op.src, op.file);
    }
    if (op.type == OpType::kWrite && op.file % 16 == 0) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.60, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.15, 0.02);
  // Hot files sit on a stride of files / hot_files = 16.
  EXPECT_GT(static_cast<double>(hot) / counts[0], 0.75);
}

TEST(PercentileTest, OmitsPercentileWithFewerThanTenSamplesBeyond) {
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  EXPECT_FALSE(Percentile(samples, 0.99).has_value());
  samples.push_back(1000);
  ASSERT_TRUE(Percentile(samples, 0.99).has_value());
  EXPECT_EQ(*Percentile(samples, 0.99), 990);
  EXPECT_EQ(*Percentile(samples, 0.50), 500);

  std::vector<double> small(19, 1.0);
  EXPECT_FALSE(Percentile(small, 0.50).has_value());
  small.push_back(2.0);
  EXPECT_TRUE(Percentile(small, 0.50).has_value());
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, UnsortedInput) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(*Percentile(samples, 0.99), 990);
  EXPECT_EQ(*Median({3, 1, 2, 4}), 2.5);
}

Span MakeSpan(uint64_t id, uint64_t parent, const char* name, int64_t start,
              int64_t end, uint32_t thread = 1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.thread = thread;
  return s;
}

TEST(SelfTimeTest, NestedSpansSubtractOnlyDirectChildren) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, "filestore.write", 0, 100),
      MakeSpan(2, 1, "db.execute", 10, 60),
      MakeSpan(3, 2, "io.log", 20, 30),
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 50);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 10);
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, "backup.take", 0, 100),
      MakeSpan(2, 1, "io.stable", 10, 50),
      MakeSpan(3, 1, "io.backup", 40, 80),
      MakeSpan(4, 1, "io.catalog", 90, 130),  // runs past its parent
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 70 - 10);
}

TEST(SelfTimeTest, ParentlessCrossThreadSpansAreRoots) {
  // An async-pool IO on another thread overlaps the caller's span but has
  // no parent: it must not reduce the caller's self time.
  std::vector<Span> spans = {
      MakeSpan(1, 0, "recovery.offline_restore", 0, 100, 1),
      MakeSpan(2, 0, "io.backup", 20, 70, 2),
      MakeSpan(3, 99, "io.stable", 30, 40, 3),  // parent not recorded
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100);
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 10);
  std::map<std::string, LayerTime> layers = ReduceByLayer(spans);
  EXPECT_EQ(layers["io"].spans, 2u);
  EXPECT_EQ(layers["io"].self_ns, 60);
  EXPECT_EQ(layers["recovery"].self_ns, 100);
}

TEST(SpanRecorderTest, ThreadLocalStackLinksParents) {
  SpanRecorder& rec = SpanRecorder::Get();
  rec.Clear();
  rec.SetEnabled(true);
  uint64_t outer = rec.Begin("filestore.copy");
  uint64_t inner = rec.Begin("io.log");
  rec.End(inner);
  std::thread other([&] {
    uint64_t id = rec.Begin("io.stable");
    rec.End(id);
  });
  other.join();
  rec.End(outer);
  rec.SetEnabled(false);
  EXPECT_EQ(rec.Begin("io.log"), 0u);  // disabled: nothing recorded

  std::vector<Span> spans = rec.Collect();
  rec.Clear();
  ASSERT_EQ(spans.size(), 3u);
  for (const Span& s : spans) {
    const std::string name = s.name;
    if (name == "io.log") {
      EXPECT_EQ(s.parent, outer);
    } else {
      EXPECT_EQ(s.parent, 0u) << name;
    }
    EXPECT_LE(s.start_ns, s.end_ns);
  }
}

TEST(ClassifierTest, MapsEngineFileNames) {
  auto kind = [](const std::string& name) {
    return ClassifyFile(name, "rdb", "sb");
  };
  EXPECT_EQ(kind("rdb.log"), FileKind::kLog);
  EXPECT_EQ(kind("rdb.stable.p0"), FileKind::kStable);
  EXPECT_EQ(kind("rdb.stable.p7"), FileKind::kStable);
  EXPECT_EQ(kind("rdb.stable.journal"), FileKind::kStable);
  EXPECT_EQ(kind("rbk.pages.p3"), FileKind::kBackup);
  EXPECT_EQ(kind("rbk.pages.journal"), FileKind::kBackup);
  EXPECT_EQ(kind("rbk.manifest"), FileKind::kBackup);
  EXPECT_EQ(kind("rbk.manifest.tmp"), FileKind::kBackup);
  EXPECT_EQ(kind("rdb.rbm"), FileKind::kRbm);
  EXPECT_EQ(kind("rdb.rbm.tmp"), FileKind::kRbm);
  EXPECT_EQ(kind("rdb.bkcatalog"), FileKind::kCatalog);
  EXPECT_EQ(kind("rdb.bkcatalog.tmp"), FileKind::kCatalog);
  EXPECT_EQ(kind("rbk.cursor"), FileKind::kCursor);
  EXPECT_EQ(kind("rbk.cursor.tmp"), FileKind::kCursor);
  EXPECT_EQ(kind("rdb.role"), FileKind::kCursor);
  EXPECT_EQ(kind("rdb.shipcursor"), FileKind::kShip);
  EXPECT_EQ(kind("rdb.spool.f1"), FileKind::kShip);
  EXPECT_EQ(kind("rdb.spool.f10"), FileKind::kShip);
  EXPECT_EQ(kind("sb.log"), FileKind::kStandbyLog);
  EXPECT_EQ(kind("sb.stable.p2"), FileKind::kStandbyStable);
  EXPECT_EQ(kind("sb.stable.journal"), FileKind::kStandbyStable);
  EXPECT_EQ(kind("sb.role"), FileKind::kCursor);
  EXPECT_EQ(kind("rdbx.log"), FileKind::kOther);
  EXPECT_EQ(kind("unrelated"), FileKind::kOther);
  // Without a standby, "sb.*" is nothing special.
  EXPECT_EQ(ClassifyFile("sb.log", "rdb", ""), FileKind::kOther);
  EXPECT_STREQ(FileKindName(FileKind::kStandbyStable), "standby_stable");
}

}  // namespace
}  // namespace llbench
