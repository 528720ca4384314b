// Quantifies Table 1 / section 1.1: the logging economy of logical
// operations. "The key to the logging economy of logical operations is
// that we can log operand identifiers instead of operand data values."
//
// For each operation family we execute the same state change twice — once
// logged logically, once logged page-oriented (physical/physiological) —
// and report the bytes appended to the recovery log.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "apprec/app_recovery.h"
#include "bench/bench_util.h"
#include "btree/btree.h"
#include "filestore/filestore.h"
#include "ops/operation.h"
#include "sim/harness.h"

namespace llb {
namespace {

using benchutil::Check;
using benchutil::CheckResult;

std::unique_ptr<TestEngine> NewEngine(WriteGraphKind graph) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 8192;
  options.cache_pages = 1024;
  options.graph = graph;
  options.backup_policy = BackupPolicy::kNaive;  // no backup: pure op cost
  return CheckResult(TestEngine::Create(options), "create");
}

uint64_t LogBytes(TestEngine* engine) {
  return engine->db()->GatherStats().log.bytes;
}

void Row(const char* name, uint64_t logical, uint64_t physical) {
  printf("%-34s %14llu %16llu %9.1fx\n", name,
         static_cast<unsigned long long>(logical),
         static_cast<unsigned long long>(physical),
         logical == 0 ? 0.0 : double(physical) / double(logical));
}

void BtreeSplits() {
  uint64_t bytes[2];
  int i = 0;
  for (SplitLogging mode :
       {SplitLogging::kLogical, SplitLogging::kPageOriented}) {
    std::unique_ptr<TestEngine> engine =
        NewEngine(mode == SplitLogging::kLogical ? WriteGraphKind::kTree
                                                 : WriteGraphKind::kGeneral);
    BTree tree(engine->db(), 0, 0, mode);
    Check(tree.Create(), "create tree");
    uint64_t before = LogBytes(engine.get());
    // Fill one leaf then split it repeatedly via sequential inserts.
    for (int64_t k = 0; k < 4000; ++k) {
      Check(tree.Insert(k, Slice("value-of-fixed-len")), "insert");
    }
    uint64_t after = LogBytes(engine.get());
    // Charge only the split-related surplus: subtract the per-insert cost
    // measured on a no-split baseline? Simpler and honest: report total
    // bytes for the identical insert history; inserts log identically in
    // both modes, so the delta is pure split logging.
    bytes[i++] = after - before;
  }
  Row("B-tree: 4000 inserts (with splits)", bytes[0], bytes[1]);
}

// Page-oriented file write: every page of the file is logged as a
// physical write of its full image.
void PhysicalWriteValues(TestEngine* engine, const FileStore& files,
                         uint32_t file_id, const std::vector<int64_t>& v) {
  size_t offset = 0;
  for (const PageId& id : files.PagesOf(file_id)) {
    size_t n = std::min(file_page::kRecordsPerPage, v.size() - offset);
    PageImage image;
    file_page::SetValues(&image, v.data() + offset, n);
    offset += n;
    LogRecord rec = MakePhysicalWrite(id, image);
    Check(engine->db()->Execute(&rec), "W_P(file page)");
  }
}

void FileCopies() {
  // Logical: Copy(X, Y) logs operand ids. Page-oriented: each target page
  // is logged as a physical write with its full contents.
  std::unique_ptr<TestEngine> logical = NewEngine(WriteGraphKind::kGeneral);
  FileStore files_l(logical->db(), 0, 0, /*pages_per_file=*/8, 16);
  std::vector<int64_t> data(3500);
  for (size_t i = 0; i < data.size(); ++i) data[i] = int64_t(i * 31 % 977);
  Check(files_l.WriteValues(0, data), "seed");
  uint64_t before = LogBytes(logical.get());
  for (int r = 0; r < 10; ++r) Check(files_l.Copy(0, 1 + r % 8), "copy");
  uint64_t logical_bytes = LogBytes(logical.get()) - before;

  std::unique_ptr<TestEngine> physical = NewEngine(WriteGraphKind::kGeneral);
  FileStore files_p(physical->db(), 0, 0, 8, 16);
  Check(files_p.WriteValues(0, data), "seed");
  before = LogBytes(physical.get());
  for (int r = 0; r < 10; ++r) {
    // Page-oriented copy: read source pages, log full images into target.
    std::vector<int64_t> v = CheckResult(files_p.ReadValues(0), "read");
    PhysicalWriteValues(physical.get(), files_p, 1 + r % 8, v);
  }
  uint64_t physical_bytes = LogBytes(physical.get()) - before;
  Row("File copy: 10 x 8-page file", logical_bytes, physical_bytes);
}

void FileSorts() {
  std::unique_ptr<TestEngine> logical = NewEngine(WriteGraphKind::kGeneral);
  FileStore files_l(logical->db(), 0, 0, 8, 4);
  std::vector<int64_t> data(3500);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = int64_t((i * 7919) % 100003);
  }
  Check(files_l.WriteValues(0, data), "seed");
  uint64_t before = LogBytes(logical.get());
  Check(files_l.SortInto(0, 1), "sort");
  uint64_t logical_bytes = LogBytes(logical.get()) - before;

  std::unique_ptr<TestEngine> physical = NewEngine(WriteGraphKind::kGeneral);
  FileStore files_p(physical->db(), 0, 0, 8, 4);
  Check(files_p.WriteValues(0, data), "seed");
  before = LogBytes(physical.get());
  std::vector<int64_t> sorted = CheckResult(files_p.ReadValues(0), "read");
  std::sort(sorted.begin(), sorted.end());
  PhysicalWriteValues(physical.get(), files_p, 1, sorted);
  uint64_t physical_bytes = LogBytes(physical.get()) - before;
  Row("File sort: 8-page file", logical_bytes, physical_bytes);
}

void AppOps() {
  // Logical: R(X, A) logs only the operand ids. Page-oriented: the new
  // application state page would be logged physically after every read.
  std::unique_ptr<TestEngine> logical = NewEngine(WriteGraphKind::kTree);
  AppRecovery apps_l(logical->db(), 0, 0, 256, 8000, 4);
  Check(apps_l.InitApp(0), "init");
  for (int i = 0; i < 64; ++i) Check(apps_l.WriteMessage(i, i * 13), "msg");
  uint64_t before = LogBytes(logical.get());
  for (int i = 0; i < 200; ++i) {
    Check(apps_l.Read(0, i % 64), "R(X,A)");
    Check(apps_l.Exec(0, i), "Ex(A)");
  }
  uint64_t logical_bytes = LogBytes(logical.get()) - before;

  std::unique_ptr<TestEngine> physical = NewEngine(WriteGraphKind::kTree);
  AppRecovery apps_p(physical->db(), 0, 0, 256, 8000, 4);
  Check(apps_p.InitApp(0), "init");
  for (int i = 0; i < 64; ++i) Check(apps_p.WriteMessage(i, i * 13), "msg");
  before = LogBytes(physical.get());
  for (int i = 0; i < 200; ++i) {
    // Page-oriented application logging: run the op, then physically log
    // the resulting state page (what a system without logical ops does).
    Check(apps_p.Read(0, i % 64), "R");
    Check(apps_p.Exec(0, i), "Ex");
    PageImage state;
    Check(physical->db()->ReadPage(apps_p.AppPage(0), &state), "read");
    LogRecord rec = MakePhysicalWrite(apps_p.AppPage(0), state);
    Check(physical->db()->Execute(&rec), "W_P(A)");
  }
  uint64_t physical_bytes = LogBytes(physical.get()) - before;
  Row("App recovery: 200 x (R + Ex)", logical_bytes, physical_bytes);
}

}  // namespace
}  // namespace llb

int main() {
  llb::benchutil::PrintHeader(
      "Table 1 / section 1.1: log bytes, logical vs page-oriented");
  printf("%-34s %14s %16s %9s\n", "operation family", "logical_bytes",
         "page_oriented", "ratio");
  llb::BtreeSplits();
  llb::FileCopies();
  llb::FileSorts();
  llb::AppOps();
  printf("\n\"logging an identifier (unlikely to be larger than 16 bytes) "
         "is a great saving\" (paper 1.1)\n");
  return 0;
}
