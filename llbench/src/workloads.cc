#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "db/database.h"
#include "filestore/file_ops.h"
#include "filestore/filestore.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "kind_env.h"
#include "op_stream.h"
#include "recovery/media_recovery.h"
#include "ship/log_shipper.h"
#include "ship/ship_channel.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"
#include "stats.h"
#include "trace.h"

namespace llbench {

namespace {

using llb::Database;
using llb::FileStore;
using llb::PageId;
using llb::PageImage;

constexpr uint32_t kClients = 3;
constexpr uint32_t kFiles = 1024;  // one-page files per partition
constexpr uint32_t kOltpHotFiles = 128;
constexpr uint32_t kRestorePartitions = 8;
// 3 clients x 64 hot files = 192 hot pages: fits the 256-page cache.
constexpr uint32_t kRestoreHotFiles = 64;
constexpr uint32_t kSliceOps = 1000;
constexpr uint32_t kSliceOpsPerPump = 100;
// The failure point (database, backup, post-backup slice) is one fixed
// fixture; --seed drives the client op streams run against it.
constexpr uint64_t kSliceSeed = 0x511CE;
// Clients run on the instant-restore fault path for this long, then the
// background sweep drains the rest alone. Run concurrently, closed-loop
// clients fault often enough to starve the sweep (its installs yield to
// waiting faults), so a cycle had no bound and its numbers did not repeat.
constexpr double kClientWindowS = 5.0;
constexpr int kSetupRepeats = 5;
// Every full dedups against the newest complete full, and retention keeps
// a generation's dedup target, so one unbroken dedup chain pins every
// backup and the log behind it. An empty dedup_base means "newest complete
// full", so every 4th backup names a target that does not exist: it
// stores no ref frames and starts a fresh chain the prune can cut behind.
constexpr uint64_t kFreshChainEvery = 4;
constexpr double kMb = 1024.0 * 1024.0;
constexpr double kPageMb = 4096.0 / kMb;
constexpr char kOltpDb[] = "oltp";
constexpr char kRestoreDb[] = "rdb";
constexpr char kStandbyDb[] = "sb";
constexpr char kRestoreBackup[] = "rbk";

void Check(const llb::Status& s, const std::string& what) {
  if (!s.ok()) throw BenchError(what + ": " + s.ToString());
}

template <typename T>
T CheckResult(llb::Result<T> r, const std::string& what) {
  if (!r.ok()) throw BenchError(what + ": " + r.status().ToString());
  return std::move(r).value();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

/// Stage marks on stderr, so a slow phase is visible while it runs.
void Progress(const std::string& what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "[llbench %8.3fs] %s\n", Sec(NowNs() - start),
               what.c_str());
}

/// The one engine configuration every workload runs.
llb::DbOptions EngineOptions(uint32_t partitions) {
  llb::DbOptions o;
  o.partitions = partitions;
  o.pages_per_partition = kFiles;
  o.cache_pages = 256;
  o.graph = llb::WriteGraphKind::kGeneral;
  o.backup_policy = llb::BackupPolicy::kGeneral;
  o.backup_steps = 8;
  o.log_channels = kClients;
  o.group_commit_interval_us = 0;
  o.backup_batch_pages = 32;
  o.io_queue_depth = 8;
  o.restore_batch_pages = 32;
  o.backup_compress = true;
  o.backup_sweep_threads = 1;
  return o;
}

/// The job Database::TakeBackup would build from EngineOptions.
llb::BackupJobOptions BackupJobFor(const llb::DbOptions& o) {
  llb::BackupJobOptions job;
  job.steps = o.backup_steps;
  job.parallel_partitions = o.parallel_backup;
  job.batch_pages = o.backup_batch_pages;
  job.pipelined = o.backup_pipelined;
  job.queue_depth = o.io_queue_depth;
  job.sweep_threads = o.backup_sweep_threads;
  job.compress = o.backup_compress;
  return job;
}

llb::RestoreOptions OfflineRestoreOptions() {
  llb::RestoreOptions r;
  r.batch_pages = 32;
  r.queue_depth = 8;
  r.threads = 1;
  return r;
}

/// MemEnv -> LatencyEnv (SSD profile) -> KindEnv -> engine. Set-up and
/// correctness checks use `base` directly, outside the simulated device.
struct Device {
  llb::MemEnv base;
  llb::LatencyEnv latency;
  KindEnv env;

  Device(const std::string& db, const std::string& standby)
      : latency(&base, llb::LatencyProfile::Ssd()), env(&latency, db, standby) {}
};

using Stores = std::vector<std::unique_ptr<FileStore>>;

Stores MakeStores(Database* db, uint32_t partitions) {
  Stores stores;
  for (uint32_t p = 0; p < partitions; ++p) {
    stores.push_back(std::make_unique<FileStore>(db, p, /*base_page=*/0,
                                                 /*pages_per_file=*/1, kFiles));
  }
  return stores;
}

std::unique_ptr<Database> OpenDb(llb::Env* env, const std::string& name,
                                 const llb::DbOptions& options) {
  std::unique_ptr<Database> db =
      CheckResult(Database::Open(env, name, options), "open " + name);
  llb::RegisterAllOps(db->registry());
  Check(db->Recover(), "recover " + name);
  return db;
}

/// The client-side model: the values every file must hold. Clients write
/// disjoint partitions, so they update it without locking.
class Model {
 public:
  Model() = default;
  explicit Model(uint32_t partitions) : values_(size_t{partitions} * kFiles) {
    for (uint32_t p = 0; p < partitions; ++p) {
      for (uint32_t f = 0; f < kFiles; ++f) at(p, f) = InitialValues(p, f);
    }
  }
  std::vector<int64_t>& at(uint32_t p, uint32_t f) {
    return values_[size_t{p} * kFiles + f];
  }

 private:
  std::vector<std::vector<int64_t>> values_;
};

void Populate(Stores* stores) {
  for (uint32_t p = 0; p < stores->size(); ++p) {
    for (uint32_t f = 0; f < kFiles; ++f) {
      Check((*stores)[p]->WriteValues(f, InitialValues(p, f)), "populate");
    }
  }
}

std::vector<int64_t> ValuesOf(const PageImage& page) {
  std::vector<int64_t> out(llb::file_page::Count(page));
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = llb::file_page::ValueAt(page, i);
  }
  return out;
}

/// Every page of a stable store, read outside the simulated device.
std::vector<PageImage> ReadAllPages(llb::Env* env, const std::string& db,
                                    uint32_t partitions) {
  std::unique_ptr<llb::PageStore> store = CheckResult(
      llb::PageStore::Open(env, Database::StableName(db), partitions),
      "open store " + db);
  std::vector<PageImage> pages(size_t{partitions} * kFiles);
  for (uint32_t p = 0; p < partitions; ++p) {
    for (uint32_t f = 0; f < kFiles; ++f) {
      Check(store->ReadPage(PageId{p, f}, &pages[size_t{p} * kFiles + f]),
            "read page");
    }
  }
  return pages;
}

/// Counts files whose stored values differ from the model.
uint64_t CountModelMismatches(const std::vector<PageImage>& pages,
                              Model* model, uint32_t partitions) {
  uint64_t bad = 0;
  for (uint32_t p = 0; p < partitions; ++p) {
    for (uint32_t f = 0; f < kFiles; ++f) {
      if (ValuesOf(pages[size_t{p} * kFiles + f]) != model->at(p, f)) ++bad;
    }
  }
  return bad;
}

uint64_t CountByteMismatches(const std::vector<PageImage>& a,
                             const std::vector<PageImage>& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  uint64_t bad = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].raw_string() != b[i].raw_string()) ++bad;
  }
  return bad;
}

void WipeStable(llb::Env* env, const std::string& db, uint32_t partitions) {
  std::unique_ptr<llb::PageStore> store = CheckResult(
      llb::PageStore::Open(env, Database::StableName(db), partitions),
      "open store " + db);
  for (uint32_t p = 0; p < partitions; ++p) {
    Check(store->WipePartition(p), "wipe");
  }
}

/// Whole-env file images (minus names starting with `skip_prefix`), for
/// resetting the restore workload between cycles outside the timed region.
using FileImage = std::vector<std::pair<std::string, std::string>>;

FileImage SaveFiles(llb::Env* env, const std::string& skip_prefix) {
  FileImage image;
  for (const std::string& name : env->ListFiles()) {
    if (name.rfind(skip_prefix, 0) == 0) continue;
    auto file = CheckResult(env->OpenFile(name, false), "open " + name);
    uint64_t size = CheckResult(file->Size(), "size " + name);
    std::string data;
    Check(file->ReadAt(0, size, &data), "read " + name);
    image.emplace_back(name, std::move(data));
  }
  return image;
}

void LoadFiles(llb::Env* env, const FileImage& image) {
  for (const std::string& name : env->ListFiles()) {
    Check(env->DeleteFile(name), "delete " + name);
  }
  for (const auto& [name, data] : image) {
    auto file = CheckResult(env->OpenFile(name, true), "create " + name);
    Check(file->WriteAt(0, data), "write " + name);
    Check(file->Sync(), "sync " + name);
  }
}

void CopyFile(llb::Env* env, const std::string& from, const std::string& to) {
  auto src = CheckResult(env->OpenFile(from, false), "open " + from);
  uint64_t size = CheckResult(src->Size(), "size " + from);
  std::string data;
  Check(src->ReadAt(0, size, &data), "read " + from);
  auto dst = CheckResult(env->OpenFile(to, true), "create " + to);
  Check(dst->Truncate(0), "truncate " + to);
  Check(dst->WriteAt(0, data), "write " + to);
  Check(dst->Sync(), "sync " + to);
}

// ---------------------------------------------------------------------------
// Clients

struct ClientStats {
  std::vector<double> lat_us[3];  // indexed by OpType
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t mismatches = 0;
  std::string first_problem;

  void Merge(const ClientStats& o) {
    for (int t = 0; t < 3; ++t) {
      lat_us[t].insert(lat_us[t].end(), o.lat_us[t].begin(), o.lat_us[t].end());
    }
    ops += o.ops;
    failed += o.failed;
    mismatches += o.mismatches;
    if (first_problem.empty()) first_problem = o.first_problem;
  }
  std::vector<double> AllLatencies() const {
    std::vector<double> all;
    for (int t = 0; t < 3; ++t) {
      all.insert(all.end(), lat_us[t].begin(), lat_us[t].end());
    }
    return all;
  }
  uint64_t UserPagesWritten() const {
    return lat_us[static_cast<int>(OpType::kWrite)].size() +
           lat_us[static_cast<int>(OpType::kCopy)].size();
  }
};

/// Closed loop: issue op `*next_index`, wait for it, check it against the
/// model, repeat until `stop`.
void RunClient(Stores* stores, Model* model, uint64_t seed, uint32_t client,
               const StreamShape& shape, uint64_t* next_index,
               const std::atomic<bool>& stop, ClientStats* out) {
  while (!stop.load(std::memory_order_relaxed)) {
    const ClientOp op = MakeOp(seed, client, (*next_index)++, shape);
    FileStore* store = (*stores)[op.partition].get();
    std::vector<int64_t> values;
    if (op.type == OpType::kWrite) values = WriteValuesFor(op);
    llb::Status status;
    const int64_t t0 = NowNs();
    switch (op.type) {
      case OpType::kWrite: {
        ScopedSpan span("filestore.write");
        status = store->WriteValues(op.file, values);
        break;
      }
      case OpType::kCopy: {
        ScopedSpan span("filestore.copy");
        status = store->Copy(op.src, op.file);
        break;
      }
      case OpType::kRead: {
        ScopedSpan span("filestore.read");
        llb::Result<std::vector<int64_t>> r = store->ReadValues(op.file);
        status = r.status();
        if (r.ok()) values = std::move(r).value();
        break;
      }
    }
    const int64_t t1 = NowNs();
    ++out->ops;
    if (!status.ok()) {
      ++out->failed;
      if (out->first_problem.empty()) out->first_problem = status.ToString();
      continue;
    }
    out->lat_us[static_cast<int>(op.type)].push_back(
        static_cast<double>(t1 - t0) / 1e3);
    switch (op.type) {
      case OpType::kWrite:
        model->at(op.partition, op.file) = values;
        break;
      case OpType::kCopy:
        model->at(op.partition, op.file) = model->at(op.partition, op.src);
        break;
      case OpType::kRead:
        if (values != model->at(op.partition, op.file)) {
          ++out->mismatches;
          if (out->first_problem.empty()) {
            out->first_problem = "read of file " + std::to_string(op.file) +
                                 " returned stale values";
          }
        }
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// What one measured pass observed

struct BackupSample {
  double ms = 0;
  uint64_t raw_bytes = 0;
  uint64_t stored_bytes = 0;
  llb::BackupJobStats job;
  std::vector<double> step_ms;  // intervals between mid_step hook calls
};

struct CycleSample {
  bool full = false;  // ran the offline and standby phases too
  double offline_ms = 0;
  uint64_t redo_records = 0;
  double offline_stable_mb = 0;
  double open_ms = 0;
  double recover_ms = 0;
  double first_read_ms = 0;
  double ttft_ms = 0;
  double window_s = 0;  // clients running during the instant restore
  llb::RestoreStatus faults;   // status when the client window closed
  llb::RestoreStatus restore;  // last status sampled while restoring
  double sweep_ms = 0;         // background sweep draining the rest
  uint64_t client_ops = 0;
  double drain_ms = 0;
  uint64_t bytes_applied = 0;
  uint64_t frames_applied = 0;
  uint64_t records_applied = 0;
  double promote_ms = 0;
};

void AddCache(llb::CacheStats* into, const llb::CacheStats& a,
              const llb::CacheStats& b) {
  into->hits += a.hits - b.hits;
  into->misses += a.misses - b.misses;
  into->evictions += a.evictions - b.evictions;
  into->node_installs += a.node_installs - b.node_installs;
  into->identity_writes += a.identity_writes - b.identity_writes;
  into->overlapped_installs += a.overlapped_installs - b.overlapped_installs;
  into->install_waits += a.install_waits - b.install_waits;
  into->decisions += a.decisions - b.decisions;
  into->decisions_logged += a.decisions_logged - b.decisions_logged;
}

void AddLog(llb::LogStats* into, const llb::LogStats& a,
            const llb::LogStats& b) {
  into->records += a.records - b.records;
  into->identity_records += a.identity_records - b.identity_records;
  into->bytes += a.bytes - b.bytes;
  into->identity_bytes += a.identity_bytes - b.identity_bytes;
  into->forces += a.forces - b.forces;
  into->group_commits += a.group_commits - b.group_commits;
}

struct Pass {
  bool traced = false;
  double wall_s = 0;  // time clients ran
  ClientStats clients;
  llb::CacheStats cache;
  llb::LogStats log;
  KindSnapshot io{};
  uint64_t device_us = 0;
  uint64_t operator_ops = 0;
  uint64_t operator_failed = 0;
  std::string operator_problem;
  std::vector<BackupSample> backups;
  std::vector<double> prune_ms;
  std::vector<CycleSample> cycles;
  std::vector<double> restore_step_ms;
  std::vector<Span> spans;

  double OpsPerSecond() const {
    return Div(static_cast<double>(clients.ops), wall_s);
  }
};

/// Brackets a pass: turns tracing on or off and takes the device-side
/// counter deltas.
class PassScope {
 public:
  PassScope(Device* dev, Pass* pass) : dev_(dev), pass_(pass) {
    SpanRecorder::Get().Clear();
    SpanRecorder::Get().SetEnabled(pass->traced);
    io0_ = dev->env.Snapshot();
    device0_ = dev->latency.stats().simulated_us;
  }
  ~PassScope() {
    SpanRecorder::Get().SetEnabled(false);
    pass_->io = dev_->env.Snapshot() - io0_;
    pass_->device_us = dev_->latency.stats().simulated_us - device0_;
    if (pass_->traced) pass_->spans = SpanRecorder::Get().Collect();
    SpanRecorder::Get().Clear();
  }
  PassScope(const PassScope&) = delete;
  PassScope& operator=(const PassScope&) = delete;

 private:
  Device* dev_;
  Pass* pass_;
  KindSnapshot io0_{};
  uint64_t device0_ = 0;
};

// ---------------------------------------------------------------------------
// oltp and oltp_backup

class OltpRun {
 public:
  OltpRun(const RunConfig& config, bool with_backup)
      : config_(config), with_backup_(with_backup) {}

  /// Builds the populated database; returns its wall time in seconds.
  double Setup() {
    const int64_t t0 = NowNs();
    dev_ = std::make_unique<Device>(kOltpDb, "");
    const llb::DbOptions options = EngineOptions(kClients);
    {
      std::unique_ptr<Database> db = OpenDb(&dev_->base, kOltpDb, options);
      Stores stores = MakeStores(db.get(), kClients);
      Populate(&stores);
      Check(db->FlushAll(), "flush");
      Check(db->Checkpoint(), "checkpoint");
      Check(db->TruncateLog(llb::kInvalidLsn), "truncate");
    }
    stores_.clear();
    db_ = OpenDb(&dev_->env, kOltpDb, options);
    stores_ = MakeStores(db_.get(), kClients);
    model_ = Model(kClients);
    for (uint64_t& index : next_index_) index = 0;
    next_backup_ = 0;
    return Sec(NowNs() - t0);
  }

  Pass Measure(double seconds, bool traced) {
    Pass pass;
    pass.traced = traced;
    PassScope scope(dev_.get(), &pass);
    const llb::DbStats before = db_->GatherStats();
    std::atomic<bool> stop{false};
    std::vector<ClientStats> per_client(kClients);
    const int64_t start = NowNs();
    std::vector<std::thread> clients;
    for (uint32_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        StreamShape shape;
        shape.own_partition = c;
        shape.files = kFiles;
        shape.hot_files = kOltpHotFiles;
        RunClient(&stores_, &model_, config_.seed, c, shape, &next_index_[c],
                  stop, &per_client[c]);
      });
    }
    std::thread operator_thread;
    if (with_backup_) {
      operator_thread = std::thread([&] { OperatorLoop(stop, &pass); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
    for (std::thread& t : clients) t.join();
    pass.wall_s = Sec(NowNs() - start);
    if (operator_thread.joinable()) operator_thread.join();
    for (const ClientStats& c : per_client) pass.clients.Merge(c);
    const llb::DbStats after = db_->GatherStats();
    AddCache(&pass.cache, after.cache, before.cache);
    AddLog(&pass.log, after.log, before.log);
    return pass;
  }

  /// oltp: crash and recover. oltp_backup: media failure, restore from the
  /// newest COMPLETE backup plus the log. Either way every file must then
  /// hold exactly what the client-side model says.
  void CheckCorrect(RunResult* result) {
    Check(db_->ForceLog(), "force log");
    std::string newest;
    if (with_backup_) {
      std::vector<llb::BackupGeneration> gens =
          CheckResult(db_->ListBackups(), "list backups");
      uint64_t newest_id = 0;
      for (const llb::BackupGeneration& g : gens) {
        if (g.state == llb::BackupState::kComplete && g.id >= newest_id) {
          newest_id = g.id;
          newest = g.name;
        }
      }
      if (newest.empty()) throw BenchError("no complete backup to restore");
    }
    stores_.clear();
    db_.reset();
    if (with_backup_) {
      WipeStable(&dev_->base, kOltpDb, kClients);
      llb::OpRegistry registry;
      llb::RegisterAllOps(&registry);
      CheckResult(Database::RestoreFromBackup(&dev_->base, kOltpDb, newest,
                                              registry,
                                              OfflineRestoreOptions()),
                  "restore from " + newest);
      result->notes.push_back("check: media failure, restored from " + newest +
                              " plus the log");
    } else {
      dev_->base.CrashAndRestart();
      result->notes.push_back("check: crash, restart and recover");
    }
    {
      std::unique_ptr<Database> db =
          OpenDb(&dev_->base, kOltpDb, EngineOptions(kClients));
      Check(db->FlushAll(), "flush after recovery");
    }
    std::vector<PageImage> pages = ReadAllPages(&dev_->base, kOltpDb, kClients);
    uint64_t bad = CountModelMismatches(pages, &model_, kClients);
    result->notes.push_back("check: " + std::to_string(bad) + " of " +
                            std::to_string(pages.size()) +
                            " files differ from the client model");
    if (bad != 0) result->correct = false;
  }

 private:
  /// Back to back: compressed full backup (dedup against the newest
  /// COMPLETE full), prune to two chains, truncate the log to the oldest
  /// retained backup's start.
  void OperatorLoop(const std::atomic<bool>& stop, Pass* pass) {
    while (!stop.load()) {
      const uint64_t n = next_backup_++;
      const std::string name = "bk" + std::to_string(n);
      llb::BackupJobOptions job = BackupJobFor(db_->options());
      if (n % kFreshChainEvery == 0) job.dedup_base = name + ".fresh";
      std::mutex marks_mu;
      std::vector<int64_t> marks;
      job.mid_step = [&](llb::PartitionId, uint32_t) {
        std::lock_guard<std::mutex> lock(marks_mu);
        marks.push_back(NowNs());
        return llb::Status::OK();
      };
      BackupSample sample;
      ++pass->operator_ops;
      const int64_t t0 = NowNs();
      llb::Result<llb::BackupManifest> manifest = [&] {
        ScopedSpan span("backup.take");
        return db_->TakeBackupWithOptions(name, job, &sample.job);
      }();
      const int64_t t1 = NowNs();
      llb::Status status = manifest.status();
      if (status.ok()) {
        sample.ms = Ms(t1 - t0);
        sample.raw_bytes = manifest->raw_bytes;
        sample.stored_bytes = manifest->stored_bytes;
        for (size_t i = 1; i < marks.size(); ++i) {
          sample.step_ms.push_back(Ms(marks[i] - marks[i - 1]));
        }
        pass->backups.push_back(std::move(sample));
        status = Retain(pass);
      }
      if (!status.ok()) {
        ++pass->operator_failed;
        if (pass->operator_problem.empty()) {
          pass->operator_problem = status.ToString();
        }
        return;
      }
    }
  }

  llb::Status Retain(Pass* pass) {
    llb::BackupRetentionPolicy policy;
    policy.keep_chains = 2;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("backup.prune");
      LLB_RETURN_IF_ERROR(db_->PruneBackups(policy).status());
    }
    pass->prune_ms.push_back(Ms(NowNs() - t0));
    std::vector<llb::BackupGeneration> gens;
    {
      ScopedSpan span("backup.list");
      LLB_ASSIGN_OR_RETURN(gens, db_->ListBackups());
    }
    llb::Lsn oldest = llb::kInvalidLsn;
    for (const llb::BackupGeneration& g : gens) {
      if (g.state != llb::BackupState::kComplete) continue;
      if (oldest == llb::kInvalidLsn || g.start_lsn < oldest) {
        oldest = g.start_lsn;
      }
    }
    ScopedSpan span("db.truncate_log");
    return db_->TruncateLog(oldest);
  }

  const RunConfig config_;
  const bool with_backup_;
  std::unique_ptr<Device> dev_;
  std::unique_ptr<Database> db_;
  Stores stores_;
  Model model_;
  uint64_t next_index_[kClients] = {};
  uint64_t next_backup_ = 0;
};

// ---------------------------------------------------------------------------
// restore

class RestoreRun {
 public:
  explicit RestoreRun(const RunConfig& config) : config_(config) {}

  /// Builds the failure point: a backed-up 8-partition database, a
  /// post-backup log slice shipped to a spool, and a standby seeded from
  /// the same backup. All through the base env.
  double Setup() {
    const int64_t t0 = NowNs();
    dev_ = std::make_unique<Device>(kRestoreDb, kStandbyDb);
    llb::MemEnv* base = &dev_->base;
    const llb::DbOptions options = EngineOptions(kRestorePartitions);
    llb::OpRegistry registry;
    llb::RegisterAllOps(&registry);
    model_ = Model(kRestorePartitions);

    std::unique_ptr<Database> db = OpenDb(base, kRestoreDb, options);
    Stores stores = MakeStores(db.get(), kRestorePartitions);
    Populate(&stores);
    Check(db->FlushAll(), "flush");
    Check(db->Checkpoint(), "checkpoint");
    Check(db->TruncateLog(llb::kInvalidLsn), "truncate");
    Progress("restore setup: populated");
    Check(db->TakeBackup(kRestoreBackup).status(), "backup");
    Progress("restore setup: backup taken");
    Check(db->ForceLog(), "force");

    // The standby: the backup restored over a copy of the log as of the
    // backup, so it stands exactly where the slice begins.
    CopyFile(base, Database::LogName(kRestoreDb),
             Database::LogName(kStandbyDb));
    CheckResult(llb::RestoreFromBackupWithOptions(
                    base, Database::StableName(kStandbyDb),
                    Database::LogName(kStandbyDb), kRestoreBackup, registry,
                    OfflineRestoreOptions()),
                "seed standby");

    Progress("restore setup: standby seeded");
    llb::FileShipChannel spool(base, SpoolPrefix());
    llb::LogShipper shipper(base, kRestoreDb, db->log(), &spool);
    Check(shipper.Attach(), "attach shipper");
    Check(shipper.Pump(), "pump");
    Check(spool.Trim(UINT64_MAX), "trim catch-up frame");

    // The post-backup slice: logged ops only (reads are not logged).
    uint64_t logged = 0;
    for (uint64_t i = 0; logged < kSliceOps; ++i) {
      const uint32_t p = static_cast<uint32_t>(i % kRestorePartitions);
      StreamShape shape;
      shape.own_partition = p;
      shape.files = kFiles;
      shape.hot_files = kOltpHotFiles;
      const ClientOp op =
          MakeOp(kSliceSeed, /*client=*/p, i / kRestorePartitions,
                 shape);
      if (op.type == OpType::kRead) continue;
      if (op.type == OpType::kWrite) {
        const std::vector<int64_t> values = WriteValuesFor(op);
        Check(stores[p]->WriteValues(op.file, values), "slice write");
        model_.at(p, op.file) = values;
      } else {
        Check(stores[p]->Copy(op.src, op.file), "slice copy");
        model_.at(p, op.file) = model_.at(p, op.src);
      }
      if (++logged % kSliceOpsPerPump == 0) {
        Check(db->ForceLog(), "force");
        Check(shipper.Pump(), "pump");
      }
    }
    Check(db->ForceLog(), "force");
    Check(shipper.Pump(), "pump");
    Progress("restore setup: slice shipped");
    slice_tail_ = db->log()->durable_lsn();
    shipper.Detach();
    stores.clear();
    db.reset();
    // The primary's stable store is wiped at the start of every phase,
    // so the image leaves it out.
    golden_ = SaveFiles(base, Database::StableName(kRestoreDb) + ".");
    next_index_[0] = next_index_[1] = next_index_[2] = 0;
    return Sec(NowNs() - t0);
  }

  /// Once per run, outside the simulated device: the offline restore
  /// matches the model, and a drained instant restore with no clients
  /// leaves S byte-identical to it.
  void OneTimeChecks(RunResult* result) {
    llb::MemEnv* base = &dev_->base;
    llb::OpRegistry registry;
    llb::RegisterAllOps(&registry);
    LoadFiles(base, golden_);
    WipeStable(base, kRestoreDb, kRestorePartitions);
    CheckResult(Database::RestoreFromBackup(base, kRestoreDb, kRestoreBackup,
                                            registry, OfflineRestoreOptions()),
                "offline restore");
    expected_ = ReadAllPages(base, kRestoreDb, kRestorePartitions);
    uint64_t bad = CountModelMismatches(expected_, &model_, kRestorePartitions);
    result->notes.push_back("check: offline restore vs model: " +
                            std::to_string(bad) + " files differ");
    if (bad != 0) result->correct = false;

    LoadFiles(base, golden_);
    WipeStable(base, kRestoreDb, kRestorePartitions);
    {
      std::unique_ptr<Database> db = CheckResult(
          Database::OpenRestoring(base, kRestoreDb,
                                  EngineOptions(kRestorePartitions),
                                  kRestoreBackup),
          "open restoring");
      llb::RegisterAllOps(db->registry());
      Check(db->Recover(), "recover restoring");
      Check(db->FinishRestore(), "finish restore");
    }
    bad = CountByteMismatches(
        ReadAllPages(base, kRestoreDb, kRestorePartitions), expected_);
    result->notes.push_back(
        "check: drained instant restore vs offline restore: " +
        std::to_string(bad) + " pages differ");
    if (bad != 0) result->correct = false;
  }

  /// Restore cycles until `seconds` have passed: one full cycle, then
  /// instant-restore-only cycles, which put more client time into a run
  /// (the offline and standby phases repeat within 2% anyway).
  Pass Measure(double seconds, bool traced, RunResult* result) {
    Pass pass;
    pass.traced = traced;
    PassScope scope(dev_.get(), &pass);
    const int64_t start = NowNs();
    do {
      pass.cycles.push_back(Cycle(&pass, result, pass.cycles.empty()));
    } while (Sec(NowNs() - start) < seconds);
    return pass;
  }

 private:
  static std::string SpoolPrefix() {
    return std::string(kRestoreDb) + ".spool";
  }

  /// One restore cycle from the failure point: (a) offline restore,
  /// (b) instant restore with clients, (c) standby drain and promote. A
  /// cycle that is not `full` runs (b) alone.
  CycleSample Cycle(Pass* pass, RunResult* result, bool full) {
    CycleSample c;
    c.full = full;
    LoadFiles(&dev_->base, golden_);
    Progress("cycle: reset");
    if (full) OfflinePhase(&c, result);
    InstantPhase(pass, &c, result);
    if (full) StandbyPhase(&c, result);
    return c;
  }

  /// (a) Wipe S, offline restore including roll-forward.
  void OfflinePhase(CycleSample* c, RunResult* result) {
    llb::OpRegistry registry;
    llb::RegisterAllOps(&registry);
    WipeStable(&dev_->base, kRestoreDb, kRestorePartitions);
    const KindSnapshot io0 = dev_->env.Snapshot();
    const int64_t t0 = NowNs();
    llb::MediaRecoveryReport report;
    {
      ScopedSpan span("recovery.offline_restore");
      report = CheckResult(
          Database::RestoreFromBackup(&dev_->env, kRestoreDb, kRestoreBackup,
                                      registry, OfflineRestoreOptions()),
          "offline restore");
    }
    c->offline_ms = Ms(NowNs() - t0);
    c->redo_records = report.redo.records_scanned;
    const KindSnapshot io = dev_->env.Snapshot() - io0;
    c->offline_stable_mb =
        static_cast<double>(io[static_cast<int>(FileKind::kStable)].write_bytes) /
        kMb;
    if (CountByteMismatches(
            ReadAllPages(&dev_->base, kRestoreDb, kRestorePartitions),
            expected_) != 0) {
      result->correct = false;
      result->notes.push_back("check FAILED: offline restore diverged");
    }
    Progress("cycle: offline restore done");
  }

  /// (b) Wipe S, open restoring up to the first read (TTFT), run the
  /// clients on the fault path for the window, then sweep the rest.
  void InstantPhase(Pass* pass, CycleSample* c, RunResult* result) {
    WipeStable(&dev_->base, kRestoreDb, kRestorePartitions);
    const int64_t t0 = NowNs();
    std::unique_ptr<Database> db;
    {
      ScopedSpan span("recovery.open_restoring");
      db = CheckResult(
          Database::OpenRestoring(&dev_->env, kRestoreDb,
                                  EngineOptions(kRestorePartitions),
                                  kRestoreBackup),
          "open restoring");
      llb::RegisterAllOps(db->registry());
    }
    const int64_t t1 = NowNs();
    {
      ScopedSpan span("recovery.recover");
      Check(db->Recover(), "recover restoring");
    }
    const int64_t t2 = NowNs();
    {
      ScopedSpan span("recovery.first_read");
      PageImage first;
      Check(db->ReadPage(PageId{0, 0}, &first), "first read");
    }
    const int64_t t3 = NowNs();
    c->open_ms = Ms(t1 - t0);
    c->recover_ms = Ms(t2 - t1);
    c->first_read_ms = Ms(t3 - t2);
    c->ttft_ms = Ms(t3 - t0);
    Progress("cycle: first transaction");

    Stores stores = MakeStores(db.get(), kRestorePartitions);
    Model model = model_;
    std::atomic<bool> stop{false};
    std::vector<ClientStats> per_client(kClients);
    const llb::DbStats before = db->GatherStats();
    const int64_t start = NowNs();
    std::vector<std::thread> clients;
    for (uint32_t k = 0; k < kClients; ++k) {
      clients.emplace_back([&, k] {
        StreamShape shape;
        shape.own_partition = k;
        shape.files = kFiles;
        shape.hot_files = kRestoreHotFiles;
        for (uint32_t p = kClients; p < kRestorePartitions; ++p) {
          shape.cold_read_partitions.push_back(p);
        }
        RunClient(&stores, &model, config_.seed, k, shape, &next_index_[k],
                  stop, &per_client[k]);
      });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kClientWindowS));
    stop.store(true);
    for (std::thread& t : clients) t.join();
    c->window_s = Sec(NowNs() - start);
    c->faults = db->restore_status();

    std::string step_problem;
    const int64_t d0 = NowNs();
    while (db->restoring()) {
      const int64_t s0 = NowNs();
      llb::Result<uint64_t> moved = [&] {
        ScopedSpan span("recovery.step");
        return db->RestoreStep();
      }();
      pass->restore_step_ms.push_back(Ms(NowNs() - s0));
      if (!moved.ok()) {
        step_problem = moved.status().ToString();
        break;
      }
      if (db->restoring()) c->restore = db->restore_status();
    }
    c->sweep_ms = Ms(NowNs() - d0);
    pass->wall_s += c->window_s;
    ++pass->operator_ops;
    if (!step_problem.empty()) {
      ++pass->operator_failed;
      if (pass->operator_problem.empty()) pass->operator_problem = step_problem;
    }
    ClientStats cycle_clients;
    for (const ClientStats& s : per_client) cycle_clients.Merge(s);
    c->client_ops = cycle_clients.ops;
    pass->clients.Merge(cycle_clients);
    const llb::DbStats after = db->GatherStats();
    AddCache(&pass->cache, after.cache, before.cache);
    AddLog(&pass->log, after.log, before.log);
    Check(db->FlushAll(), "flush");
    stores.clear();
    db.reset();
    // Every client write must read back from S.
    const uint64_t bad = CountModelMismatches(
        ReadAllPages(&dev_->base, kRestoreDb, kRestorePartitions), &model,
        kRestorePartitions);
    if (bad != 0) {
      result->correct = false;
      result->notes.push_back("check FAILED: " + std::to_string(bad) +
                              " files lost client writes");
    }
    Progress("cycle: instant restore drained");
  }

  /// (c) The standby drains the shipped slice and is promoted; its S must
  /// then equal the offline-restored primary's.
  void StandbyPhase(CycleSample* c, RunResult* result) {
    llb::DbOptions standby_options = EngineOptions(kRestorePartitions);
    standby_options.standby = true;
    std::unique_ptr<Database> standby;
    {
      ScopedSpan span("db.open_standby");
      standby = OpenDb(&dev_->env, kStandbyDb, standby_options);
    }
    llb::FileShipChannel spool(&dev_->env, SpoolPrefix());
    llb::StandbyApplier applier(standby.get(), &spool);
    Check(applier.CatchUpFromLocalLog(), "standby catch up");
    int64_t t0 = NowNs();
    {
      ScopedSpan span("ship.drain");
      llb::Lsn applied = applier.applied_lsn();
      while (applied < slice_tail_) {
        Check(applier.Drain(), "drain");
        if (applier.applied_lsn() == applied) break;  // nothing more shipped
        applied = applier.applied_lsn();
      }
    }
    c->drain_ms = Ms(NowNs() - t0);
    if (applier.applied_lsn() != slice_tail_) {
      throw BenchError("standby stopped at LSN " +
                       std::to_string(applier.applied_lsn()) + " of " +
                       std::to_string(slice_tail_));
    }
    c->bytes_applied = applier.stats().bytes_applied;
    c->frames_applied = applier.stats().frames_applied;
    c->records_applied = applier.stats().records_applied;
    t0 = NowNs();
    {
      ScopedSpan span("ship.promote");
      Check(standby->Promote(), "promote");
    }
    c->promote_ms = Ms(NowNs() - t0);
    standby.reset();
    if (CountByteMismatches(
            ReadAllPages(&dev_->base, kStandbyDb, kRestorePartitions),
            expected_) != 0) {
      result->correct = false;
      result->notes.push_back(
          "check FAILED: promoted standby differs from the restored primary");
    }
    Progress("cycle: promoted");
  }

  const RunConfig config_;
  std::unique_ptr<Device> dev_;
  Model model_;  // state at the end of the slice
  FileImage golden_;
  std::vector<PageImage> expected_;
  llb::Lsn slice_tail_ = llb::kInvalidLsn;
  uint64_t next_index_[kClients] = {};
};

// ---------------------------------------------------------------------------
// Reduction to metrics

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A percentile as a metric value: 0 with no samples at all, -1 when
/// there are samples but fewer than 10 beyond the percentile.
double PercentileOr(const std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::optional<double> v = Percentile(samples, q);
  return v ? *v : -1;
}

double MedianOr0(const std::vector<double>& samples) {
  return Median(samples).value_or(0);
}

/// f(cycle) for every cycle, or only for those that ran the offline and
/// standby phases.
template <typename F>
std::vector<double> Collect(const std::vector<CycleSample>& cycles, F f,
                            bool full_only = false) {
  std::vector<double> out;
  for (const CycleSample& c : cycles) {
    if (c.full || !full_only) out.push_back(f(c));
  }
  return out;
}

std::map<std::string, double> HeadlineMetrics(const Pass& p) {
  std::map<std::string, double> m;
  double raw = 0, stored = 0, backup_ms = 0;
  for (const BackupSample& b : p.backups) {
    raw += static_cast<double>(b.raw_bytes);
    stored += static_cast<double>(b.stored_bytes);
    backup_ms += b.ms;
  }
  m["e2e.backup_mb_per_s"] = Div(raw / kMb, backup_ms / 1e3);
  m["e2e.backup_space_ratio"] = Div(stored, raw);
  const double db_mb = kRestorePartitions * kFiles * kPageMb;
  m["e2e.restore_mb_per_s"] = MedianOr0(Collect(
      p.cycles,
      [&](const CycleSample& c) { return Div(db_mb, c.offline_ms / 1e3); },
      true));
  m["e2e.ttft_ms"] =
      MedianOr0(Collect(p.cycles, [](const CycleSample& c) { return c.ttft_ms; }));
  m["e2e.standby_apply_mb_per_s"] =
      MedianOr0(Collect(
          p.cycles,
          [](const CycleSample& c) {
            return Div(static_cast<double>(c.bytes_applied) / kMb,
                       c.drain_ms / 1e3);
          },
          true));
  const double attempted =
      static_cast<double>(p.clients.ops + p.operator_ops);
  m["e2e.failed_op_fraction"] = Div(
      static_cast<double>(p.clients.failed + p.operator_failed), attempted);
  m["e2e.op_p50_us"] = PercentileOr(p.clients.AllLatencies(), 0.50);
  return m;
}

std::map<std::string, double> LayerValues(const Pass& p,
                                          const Pass& untraced) {
  std::map<std::string, double> m;
  const double ops = static_cast<double>(p.clients.ops);
  const char* type_names[3] = {"write", "copy", "read"};
  for (int t = 0; t < 3; ++t) {
    const std::string base = std::string("filestore.") + type_names[t];
    m[base + "_us.p50"] = PercentileOr(p.clients.lat_us[t], 0.50);
    m[base + "_us.p99"] = PercentileOr(p.clients.lat_us[t], 0.99);
  }

  const llb::CacheStats& cs = p.cache;
  m["cache.miss_ratio"] = Div(static_cast<double>(cs.misses),
                              static_cast<double>(cs.hits + cs.misses));
  m["cache.evictions_per_op"] = Div(static_cast<double>(cs.evictions), ops);
  m["cache.install_waits_per_op"] =
      Div(static_cast<double>(cs.install_waits), ops);
  m["cache.overlapped_install_fraction"] =
      Div(static_cast<double>(cs.overlapped_installs),
          static_cast<double>(cs.node_installs));

  m["wal.bytes_per_op"] = Div(static_cast<double>(p.log.bytes), ops);
  m["wal.identity_bytes_per_op"] =
      Div(static_cast<double>(p.log.identity_bytes), ops);
  m["wal.group_commits_per_op"] =
      Div(static_cast<double>(p.log.group_commits), ops);
  m["wal.forces_per_op"] = Div(static_cast<double>(p.log.forces), ops);

  // Backup layer.
  const double backups = static_cast<double>(p.backups.size());
  std::vector<double> durations, steps;
  double raw_mb = 0, read_us = 0, write_us = 0, fences = 0;
  for (const BackupSample& b : p.backups) {
    durations.push_back(b.ms);
    steps.insert(steps.end(), b.step_ms.begin(), b.step_ms.end());
    raw_mb += static_cast<double>(b.raw_bytes) / kMb;
    read_us += static_cast<double>(b.job.read_stage_us);
    write_us += static_cast<double>(b.job.write_stage_us);
    fences += static_cast<double>(b.job.fence_updates);
  }
  m["backup.count"] = backups;
  m["backup.iwof_fraction"] = Div(static_cast<double>(cs.decisions_logged),
                                  static_cast<double>(cs.decisions));
  m["backup.decisions_per_op"] = Div(static_cast<double>(cs.decisions), ops);
  m["backup.duration_ms.p50"] = PercentileOr(durations, 0.50);
  m["backup.step_ms.p50"] = PercentileOr(steps, 0.50);
  m["backup.step_ms.p99"] = PercentileOr(steps, 0.99);
  m["backup.read_stage_us_per_mb"] = Div(read_us, raw_mb);
  m["backup.write_stage_us_per_mb"] = Div(write_us, raw_mb);
  m["backup.fence_updates_per_backup"] = Div(fences, backups);
  m["backup.prune_ms.p50"] = PercentileOr(p.prune_ms, 0.50);

  // IO by file kind, per client op.
  for (int k = 0; k < kFileKinds - 1; ++k) {
    const KindCounters& io = p.io[k];
    const std::string base =
        std::string("io.") + FileKindName(static_cast<FileKind>(k));
    m[base + ".ops_per_op"] = Div(static_cast<double>(io.ops), ops);
    m[base + ".mb_per_op"] =
        Div(static_cast<double>(io.read_bytes + io.write_bytes) / kMb, ops);
    m[base + ".syncs_per_op"] = Div(static_cast<double>(io.syncs), ops);
    m[base + ".busy_us_per_op"] =
        Div(static_cast<double>(io.busy_ns) / 1e3, ops);
  }
  const KindCounters& io_backup = p.io[static_cast<int>(FileKind::kBackup)];
  const KindCounters& io_catalog = p.io[static_cast<int>(FileKind::kCatalog)];
  const KindCounters& io_rbm = p.io[static_cast<int>(FileKind::kRbm)];
  const KindCounters& io_stable = p.io[static_cast<int>(FileKind::kStable)];
  m["io.backup.mb_per_backup"] = Div(
      static_cast<double>(io_backup.read_bytes + io_backup.write_bytes) / kMb,
      backups);
  m["io.catalog.syncs_per_backup"] =
      Div(static_cast<double>(io_catalog.syncs), backups);
  double restored_pages = 0;
  for (const CycleSample& c : p.cycles) {
    restored_pages += static_cast<double>(c.restore.pages_total);
  }
  m["io.rbm.mb_per_restored_page"] = Div(
      static_cast<double>(io_rbm.read_bytes + io_rbm.write_bytes) / kMb,
      restored_pages);
  m["io.device_us_per_op"] = Div(static_cast<double>(p.device_us), ops);
  m["storage.write_amp"] =
      Div(static_cast<double>(io_stable.write_bytes),
          static_cast<double>(p.clients.UserPagesWritten()) * 4096.0);

  // Recovery layer (restore workload).
  const std::vector<Span>& spans = p.spans;
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::vector<double> offline_self_ms, drain_self_us;
  // Client ops that took the fault path: their span holds restored-bitmap
  // writes (the fault's last step runs on the faulting thread; its carrier
  // reads go through the async pool and have no parent).
  std::set<uint64_t> faulting;
  for (const Span& s : spans) {
    const std::string name = s.name;
    if ((name == "io.rbm" || name == "io.backup") && s.parent != 0) {
      faulting.insert(s.parent);
    }
  }
  std::vector<double> fault_us;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (name == "recovery.offline_restore") {
      offline_self_ms.push_back(static_cast<double>(self[i]) / 1e6);
    } else if (name == "ship.drain") {
      drain_self_us.push_back(static_cast<double>(self[i]) / 1e3);
    } else if (name.rfind("filestore.", 0) == 0 &&
               faulting.count(spans[i].id) != 0) {
      fault_us.push_back(
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3);
    }
  }
  double faulted = 0, closure = 0, saves = 0, applied_mb = 0, records = 0,
         frames = 0;
  for (const CycleSample& c : p.cycles) {
    faulted += static_cast<double>(c.faults.pages_faulted);
    closure += static_cast<double>(c.faults.closure_pages);
    saves += static_cast<double>(c.restore.bitmap_saves);
    applied_mb += static_cast<double>(c.bytes_applied) / kMb;
    records += static_cast<double>(c.records_applied);
    frames += static_cast<double>(c.frames_applied);
  }
  m["recovery.restore_self_ms"] = MedianOr0(offline_self_ms);
  m["recovery.redo_records"] = MedianOr0(Collect(
      p.cycles,
      [](const CycleSample& c) { return static_cast<double>(c.redo_records); },
      true));
  m["recovery.restore_stable_mb"] = MedianOr0(Collect(
      p.cycles, [](const CycleSample& c) { return c.offline_stable_mb; },
      true));
  m["recovery.open_restoring_ms"] =
      MedianOr0(Collect(p.cycles, [](const CycleSample& c) { return c.open_ms; }));
  m["recovery.recover_ms"] =
      MedianOr0(Collect(p.cycles, [](const CycleSample& c) { return c.recover_ms; }));
  m["recovery.first_read_ms"] = MedianOr0(
      Collect(p.cycles, [](const CycleSample& c) { return c.first_read_ms; }));
  m["recovery.faulted_pages_per_txn"] = p.cycles.empty() ? 0 : Div(faulted, ops);
  m["recovery.closure_pages_per_fault"] = Div(closure, faulted - closure);
  m["recovery.fault_us.p99"] = PercentileOr(fault_us, 0.99);
  m["recovery.bitmap_saves_per_restored_page"] = Div(saves, restored_pages);
  m["recovery.sweep_ms"] =
      MedianOr0(Collect(p.cycles, [](const CycleSample& c) { return c.sweep_ms; }));
  m["recovery.step_ms.p50"] = PercentileOr(p.restore_step_ms, 0.50);
  m["recovery.step_ms.p99"] = PercentileOr(p.restore_step_ms, 0.99);

  double drain_self_total_us = 0;
  for (double v : drain_self_us) drain_self_total_us += v;
  m["ship.drain_self_us_per_mb"] = Div(drain_self_total_us, applied_mb);
  m["ship.records_per_frame"] = Div(records, frames);
  m["ship.promote_ms"] = MedianOr0(
      Collect(p.cycles, [](const CycleSample& c) { return c.promote_ms; },
              true));

  // Self time per layer, per client op.
  std::map<std::string, LayerTime> layers = ReduceByLayer(spans);
  for (const char* layer :
       {"filestore", "db", "backup", "recovery", "ship", "io"}) {
    auto it = layers.find(layer);
    const double self_us =
        it == layers.end() ? 0 : static_cast<double>(it->second.self_ns) / 1e3;
    m[std::string(layer) + ".self_us_per_op"] = Div(self_us, ops);
  }

  m["trace.untraced_ops_per_s"] = untraced.OpsPerSecond();
  m["trace.traced_ops_per_s"] = p.OpsPerSecond();
  m["trace.overhead_fraction"] =
      1.0 - Div(p.OpsPerSecond(), untraced.OpsPerSecond());

  for (const auto& [name, value] : HeadlineMetrics(untraced)) m[name] = value;
  return m;
}

/// The prediction sanity lines: printed and summarised, never gated.
bool CheckPredictions(const std::string& workload,
                      const std::map<std::string, double>& m,
                      RunResult* result) {
  auto zero_with_prefix = [&](const std::string& prefix) {
    for (const auto& [name, value] : m) {
      if (name.rfind(prefix, 0) == 0 && value != 0) return name;
    }
    return std::string();
  };
  bool all = true;
  auto line = [&](const std::string& claim, bool holds,
                  const std::string& why) {
    result->notes.push_back(std::string("sanity ") +
                            (holds ? "HOLDS " : "FAILS ") + claim +
                            (why.empty() ? "" : " (" + why + ")"));
    all = all && holds;
  };
  if (workload == "oltp" || workload == "oltp_backup") {
    for (const char* prefix : {"recovery.", "ship."}) {
      std::string bad = zero_with_prefix(prefix);
      line(std::string(prefix) + "* == 0 on " + workload, bad.empty(), bad);
    }
  }
  if (workload == "oltp") {
    for (const char* prefix : {"backup.", "io.backup.", "io.catalog."}) {
      std::string bad = zero_with_prefix(prefix);
      line(std::string(prefix) + "* == 0 on oltp", bad.empty(), bad);
    }
    line("wal.identity_bytes_per_op == 0 on oltp",
         m.at("wal.identity_bytes_per_op") == 0, "");
  }
  if (workload == "oltp_backup") {
    line("wal.identity_bytes_per_op > 0 on oltp_backup",
         m.at("wal.identity_bytes_per_op") > 0, "");
    result->notes.push_back(
        "model: backup.iwof_fraction = " +
        std::to_string(m.at("backup.iwof_fraction")) +
        " vs the paper's 1/2 (1 + 1/N) = 0.5625 at N = 8");
  }
  return all;
}

void WriteSpans(const RunConfig& config, const std::vector<Span>& spans) {
  if (config.out_dir.empty()) return;
  const std::string path = config.out_dir + "/spans-" + config.workload +
                           "-seed" + std::to_string(config.seed) + ".csv";
  std::ofstream out(path);
  if (!out) return;
  out << "id,parent,name,start_ns,end_ns,thread\n";
  for (const Span& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ',' << s.start_ns << ','
        << s.end_ns << ',' << s.thread << '\n';
  }
}

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"oltp", "oltp_backup",
                                                 "restore"};
  return names;
}

namespace {

/// Names and units of every end-to-end metric (untraced run) and every
/// per-layer metric (traced run), in output order; BENCHMARK.json lists
/// the same.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"ops_per_s", "1/s"},
      {"op_p99_us", "us"},
      {"setup_s", "s"},
  };
  return metrics;
}

const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> v = {
        {"filestore.write_us.p50", "us"},
        {"filestore.write_us.p99", "us"},
        {"filestore.copy_us.p50", "us"},
        {"filestore.copy_us.p99", "us"},
        {"filestore.read_us.p50", "us"},
        {"filestore.read_us.p99", "us"},
        {"cache.miss_ratio", "ratio"},
        {"cache.evictions_per_op", "count/op"},
        {"cache.install_waits_per_op", "count/op"},
        {"cache.overlapped_install_fraction", "ratio"},
        {"wal.bytes_per_op", "B/op"},
        {"wal.identity_bytes_per_op", "B/op"},
        {"wal.group_commits_per_op", "count/op"},
        {"wal.forces_per_op", "count/op"},
        {"backup.count", "count"},
        {"backup.iwof_fraction", "ratio"},
        {"backup.decisions_per_op", "count/op"},
        {"backup.duration_ms.p50", "ms"},
        {"backup.step_ms.p50", "ms"},
        {"backup.step_ms.p99", "ms"},
        {"backup.read_stage_us_per_mb", "us/MB"},
        {"backup.write_stage_us_per_mb", "us/MB"},
        {"backup.fence_updates_per_backup", "count"},
        {"backup.prune_ms.p50", "ms"},
    };
    for (int k = 0; k < kFileKinds - 1; ++k) {
      const std::string base =
          std::string("io.") + FileKindName(static_cast<FileKind>(k));
      v.push_back({base + ".ops_per_op", "count/op"});
      v.push_back({base + ".mb_per_op", "MB/op"});
      v.push_back({base + ".syncs_per_op", "count/op"});
      v.push_back({base + ".busy_us_per_op", "us/op"});
    }
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"io.backup.mb_per_backup", "MB"},
        {"io.catalog.syncs_per_backup", "count"},
        {"io.rbm.mb_per_restored_page", "MB/page"},
        {"io.device_us_per_op", "us/op"},
        {"storage.write_amp", "ratio"},
        {"recovery.restore_self_ms", "ms"},
        {"recovery.redo_records", "count"},
        {"recovery.restore_stable_mb", "MB"},
        {"recovery.open_restoring_ms", "ms"},
        {"recovery.recover_ms", "ms"},
        {"recovery.first_read_ms", "ms"},
        {"recovery.faulted_pages_per_txn", "count/op"},
        {"recovery.closure_pages_per_fault", "count"},
        {"recovery.fault_us.p99", "us"},
        {"recovery.bitmap_saves_per_restored_page", "count/page"},
        {"recovery.sweep_ms", "ms"},
        {"recovery.step_ms.p50", "ms"},
        {"recovery.step_ms.p99", "ms"},
        {"ship.drain_self_us_per_mb", "us/MB"},
        {"ship.records_per_frame", "count"},
        {"ship.promote_ms", "ms"},
        {"filestore.self_us_per_op", "us/op"},
        {"db.self_us_per_op", "us/op"},
        {"backup.self_us_per_op", "us/op"},
        {"recovery.self_us_per_op", "us/op"},
        {"ship.self_us_per_op", "us/op"},
        {"io.self_us_per_op", "us/op"},
        {"trace.untraced_ops_per_s", "1/s"},
        {"trace.traced_ops_per_s", "1/s"},
        {"trace.overhead_fraction", "ratio"},
        {"e2e.backup_mb_per_s", "MB/s"},
        {"e2e.backup_space_ratio", "ratio"},
        {"e2e.restore_mb_per_s", "MB/s"},
        {"e2e.ttft_ms", "ms"},
        {"e2e.standby_apply_mb_per_s", "MB/s"},
        {"e2e.failed_op_fraction", "ratio"},
        {"e2e.op_p50_us", "us"},
        {"e2e.peak_rss_mb", "MB"},
        {"sanity.predictions_hold", "bool"},
    };
    v.insert(v.end(), rest.begin(), rest.end());
    return v;
  }();
  return metrics;
}

}  // namespace

RunResult RunWorkload(const RunConfig& config) {
  RunResult result;
  const bool is_restore = config.workload == "restore";
  const bool with_backup = config.workload == "oltp_backup";
  std::unique_ptr<OltpRun> oltp;
  std::unique_ptr<RestoreRun> restore;

  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (is_restore) {
      restore = std::make_unique<RestoreRun>(config);
      setups.push_back(restore->Setup());
    } else {
      oltp = std::make_unique<OltpRun>(config, with_backup);
      setups.push_back(oltp->Setup());
    }
  }
  if (is_restore) {
    restore->OneTimeChecks(&result);
  } else {
    oltp->Measure(std::min(1.0, config.seconds / 10), false);  // warm-up
  }

  auto measure = [&](bool traced) {
    return is_restore ? restore->Measure(config.seconds, traced, &result)
                      : oltp->Measure(config.seconds, traced);
  };
  Pass untraced = measure(false);
  Pass traced;
  if (config.trace) traced = measure(true);
  if (!is_restore) oltp->CheckCorrect(&result);

  const Pass& main = config.trace ? traced : untraced;
  for (const Pass* p : {&untraced, &traced}) {
    result.attempted += p->clients.ops + p->operator_ops;
    result.failed += p->clients.failed + p->operator_failed;
    if (p->clients.mismatches != 0) {
      result.correct = false;
      result.notes.push_back("check FAILED: " +
                             std::to_string(p->clients.mismatches) +
                             " client reads returned stale values");
    }
    if (!p->clients.first_problem.empty()) {
      result.notes.push_back("first client problem: " +
                             p->clients.first_problem);
    }
    if (!p->operator_problem.empty()) {
      result.notes.push_back("first operator problem: " + p->operator_problem);
    }
  }

  const std::vector<double> all = untraced.clients.AllLatencies();
  std::optional<double> p99 = Percentile(all, 0.99);
  if (!p99) {
    throw BenchError("too few client ops (" + std::to_string(all.size()) +
                     ") for a p99");
  }
  result.notes.push_back("latencies are on a simulated SSD (MemEnv behind "
                         "LatencyEnv::Ssd), not a real device");
  result.notes.push_back("client ops timed: " + std::to_string(all.size()) +
                         " (p99 has " +
                         std::to_string(all.size() - static_cast<size_t>(
                                                         0.99 * all.size())) +
                         " samples beyond it)");
  const std::map<std::string, std::vector<std::string>> headlines = {
      {"oltp", {"e2e.op_p50_us", "e2e.failed_op_fraction"}},
      {"oltp_backup",
       {"e2e.op_p50_us", "e2e.backup_mb_per_s", "e2e.backup_space_ratio",
        "e2e.failed_op_fraction"}},
      {"restore",
       {"e2e.op_p50_us", "e2e.restore_mb_per_s", "e2e.ttft_ms",
        "e2e.standby_apply_mb_per_s", "e2e.failed_op_fraction"}},
  };
  for (const CycleSample& c : untraced.cycles) {
    result.notes.push_back(
        "cycle: " + Fmt(Div(static_cast<double>(c.client_ops), c.window_s)) +
        " client ops/s during instant restore, ttft " + Fmt(c.ttft_ms) +
        " ms, sweep " + Fmt(c.sweep_ms) + " ms" +
        (c.full ? ", offline restore " + Fmt(c.offline_ms) +
                      " ms, standby drain " + Fmt(c.drain_ms) + " ms"
                : ""));
  }
  result.notes.push_back("headline e2e.peak_rss_mb = " + Fmt(PeakRssMb()));
  const std::map<std::string, double> headline = HeadlineMetrics(untraced);
  for (const std::string& name : headlines.at(config.workload)) {
    result.notes.push_back("headline " + name + " = " + Fmt(headline.at(name)));
  }

  if (!config.trace) {
    const std::map<std::string, double> values = {
        {"ops_per_s", untraced.OpsPerSecond()},
        {"op_p99_us", *p99},
        {"setup_s", *Median(setups)},
    };
    for (const auto& [name, unit] : EndToEndMetrics()) {
      result.metrics.push_back({name, values.at(name), unit});
    }
    return result;
  }

  std::map<std::string, double> values = LayerValues(main, untraced);
  values["e2e.peak_rss_mb"] = PeakRssMb();
  values["sanity.predictions_hold"] =
      CheckPredictions(config.workload, values, &result) ? 1 : 0;
  for (const auto& [name, unit] : LayerMetrics()) {
    auto it = values.find(name);
    if (it == values.end()) throw BenchError("metric not computed: " + name);
    result.metrics.push_back({name, it->second, unit});
  }
  WriteSpans(config, main.spans);
  result.notes.push_back("traced pass recorded " +
                         std::to_string(main.spans.size()) + " spans");
  return result;
}

}  // namespace llbench
