// llb_dbtool — inspection and recovery utility for llbackup databases.
//
// The engine normally runs over the in-memory simulated environment; this
// tool operates on a database serialized into a single image file with
// `save` / `load`, so engine state can be examined offline:
//
//   llb_dbtool demo                         build a demo db image
//   llb_dbtool log <image>                  dump the recovery log
//   llb_dbtool log-stats <image>            per-op-code record statistics and
//                                           the log files (first LSN, bytes,
//                                           sealed/active)
//   llb_dbtool pages <image> <partition>    page LSN/type map of S
//   llb_dbtool manifest <image> <backup>    print a backup manifest
//   llb_dbtool verify <image> <db>          stable state vs full-log oracle
//   llb_dbtool restore <image> <db> <bk>    media recovery, then verify
//   llb_dbtool restore <image> <db> <bk> --instant
//                                           instant restore: serve reads
//                                           while pages stream back in
//   llb_dbtool restore status <image> <db>  progress of an interrupted
//                                           instant restore (bitmap cell)
//   llb_dbtool verify-backup <image> <bk>   scrub (read-only): checksums +
//                                           manifest chain of a backup
//   llb_dbtool scrub <image> <bk> <db>      verify + repair bad backup pages
//                                           from S / the log, rewrite image
//   llb_dbtool ship <image> <db>            replicate the log into a warm
//                                           standby in the image
//   llb_dbtool standby status <image> <db>  replication-lag report
//   llb_dbtool torture [scenario] [seed]    crash-point sweep of a pipeline
//                                           scenario (no image; in-memory)
//   llb_dbtool env-caps                     IO capability probe: io_uring
//                                           availability, CRC32C backend
//
// The image format is a length-prefixed list of (name, contents) pairs of
// every file in the env (durable contents only by construction: images
// are saved from a fresh env or after recovery).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "backup/backup_catalog.h"
#include "backup/backup_scrubber.h"
#include "backup/backup_store.h"
#include "btree/btree.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "filestore/filestore.h"
#include "io/mem_env.h"
#include "io/posix_env.h"
#include "io/uring_env.h"
#include "recovery/media_recovery.h"
#include "ship/log_shipper.h"
#include "ship/standby_applier.h"
#include "sim/harness.h"
#include "sim/oracle.h"
#include "torture/concurrent_torture.h"
#include "torture/crash_sweeper.h"
#include "wal/log_manager.h"

namespace llb::dbtool {
namespace {

// ---------- image save/load (host filesystem <-> MemEnv) ----------

Status SaveImage(MemEnv* env, const std::string& path) {
  std::string blob;
  for (const std::string& name : env->ListFiles()) {
    auto file_or = env->OpenFile(name, false);
    LLB_RETURN_IF_ERROR(file_or.status());
    LLB_ASSIGN_OR_RETURN(uint64_t size, (*file_or)->Size());
    std::string contents;
    LLB_RETURN_IF_ERROR((*file_or)->ReadAt(0, size, &contents));
    PutLengthPrefixed(&blob, Slice(name));
    PutLengthPrefixed(&blob, Slice(contents));
  }
  FILE* out = fopen(path.c_str(), "wb");
  if (out == nullptr) return Status::IoError("cannot open " + path);
  size_t written = fwrite(blob.data(), 1, blob.size(), out);
  fclose(out);
  if (written != blob.size()) return Status::IoError("short write");
  return Status::OK();
}

Status LoadImage(const std::string& path, MemEnv* env) {
  FILE* in = fopen(path.c_str(), "rb");
  if (in == nullptr) return Status::IoError("cannot open " + path);
  std::string blob;
  char buffer[1 << 16];
  size_t n;
  while ((n = fread(buffer, 1, sizeof(buffer), in)) > 0) {
    blob.append(buffer, n);
  }
  fclose(in);
  SliceReader reader{Slice(blob)};
  while (reader.remaining() > 0) {
    Slice name, contents;
    if (!reader.ReadLengthPrefixed(&name) ||
        !reader.ReadLengthPrefixed(&contents)) {
      return Status::Corruption("malformed image");
    }
    auto file_or = env->OpenFile(name.ToString(), true);
    LLB_RETURN_IF_ERROR(file_or.status());
    LLB_RETURN_IF_ERROR((*file_or)->WriteAt(0, contents));
    LLB_RETURN_IF_ERROR((*file_or)->Sync());
  }
  return Status::OK();
}

// ---------- subcommands ----------

const char* OpName(uint16_t code) {
  switch (code) {
    case kOpPhysicalWrite: return "W_P";
    case kOpIdentityWrite: return "W_IP";
    case kOpCheckpoint: return "CKPT";
    case kOpBtreeInsert: return "BtreeInsert";
    case kOpBtreeDelete: return "BtreeDelete";
    case kOpBtreeMovRec: return "MovRec";
    case kOpBtreeRmvRec: return "RmvRec";
    case kOpBtreeInsertIndex: return "InsertIndex";
    case kOpBtreeSetMeta: return "SetMeta";
    case kOpFileCopy: return "FileCopy";
    case kOpFileSort: return "FileSort";
    case kOpFileWrite: return "FileWrite";
    case kOpFileTransform: return "FileTransform";
    case kOpAppExec: return "Ex";
    case kOpAppRead: return "R";
    case kOpAppWrite: return "W_L";
    default: return "?";
  }
}

std::string SetToString(const std::vector<PageId>& set) {
  std::string out = "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ",";
    if (i >= 4) {
      out += "...+" + std::to_string(set.size() - i);
      break;
    }
    out += set[i].ToString();
  }
  return out + "}";
}

int CmdLog(MemEnv* env, const std::string& log_name) {
  auto log_or = LogManager::Open(env, log_name);
  if (!log_or.ok()) {
    fprintf(stderr, "%s\n", log_or.status().ToString().c_str());
    return 1;
  }
  Status s = (*log_or)->Scan(1, [](const LogRecord& rec) {
    printf("%8llu  %-12s reads=%-22s writes=%-22s payload=%zuB\n",
           static_cast<unsigned long long>(rec.lsn), OpName(rec.op_code),
           SetToString(rec.readset).c_str(),
           SetToString(rec.writeset).c_str(), rec.payload.size());
    return Status::OK();
  });
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdLogStats(MemEnv* env, const std::string& log_name) {
  auto log_or = LogManager::Open(env, log_name);
  if (!log_or.ok()) {
    fprintf(stderr, "%s\n", log_or.status().ToString().c_str());
    return 1;
  }
  struct Row {
    uint64_t count = 0;
    uint64_t bytes = 0;
  };
  std::vector<std::pair<uint16_t, Row>> rows;
  uint64_t total = 0, total_bytes = 0;
  Status s = (*log_or)->Scan(1, [&](const LogRecord& rec) {
    Row* row = nullptr;
    for (auto& [code, r] : rows) {
      if (code == rec.op_code) row = &r;
    }
    if (row == nullptr) {
      rows.emplace_back(rec.op_code, Row{});
      row = &rows.back().second;
    }
    row->count += 1;
    row->bytes += rec.EncodedSize();
    ++total;
    total_bytes += rec.EncodedSize();
    return Status::OK();
  });
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("%-14s %10s %12s %8s\n", "op", "records", "bytes", "avg");
  for (const auto& [code, row] : rows) {
    printf("%-14s %10llu %12llu %8llu\n", OpName(code),
           static_cast<unsigned long long>(row.count),
           static_cast<unsigned long long>(row.bytes),
           static_cast<unsigned long long>(row.count ? row.bytes / row.count
                                                     : 0));
  }
  printf("%-14s %10llu %12llu\n", "TOTAL",
         static_cast<unsigned long long>(total),
         static_cast<unsigned long long>(total_bytes));
  // The files a retention cut pins: TruncateLog unlinks whole sealed
  // files only.
  printf("\n%-34s %12s %12s %s\n", "file", "first_lsn", "bytes", "state");
  for (const LogFileInfo& file : (*log_or)->Files()) {
    printf("%-34s %12llu %12llu %s\n", file.name.c_str(),
           static_cast<unsigned long long>(file.first_lsn),
           static_cast<unsigned long long>(file.bytes),
           file.sealed ? "sealed" : "active");
  }
  return 0;
}

int CmdPages(MemEnv* env, const std::string& store_name,
             PartitionId partition) {
  auto store_or = PageStore::Open(env, store_name, partition + 1);
  if (!store_or.ok()) {
    fprintf(stderr, "%s\n", store_or.status().ToString().c_str());
    return 1;
  }
  auto count_or = (*store_or)->PageCount(partition);
  if (!count_or.ok()) {
    fprintf(stderr, "%s\n", count_or.status().ToString().c_str());
    return 1;
  }
  printf("%8s %12s %8s\n", "page", "lsn", "type");
  for (uint32_t page = 0; page < *count_or; ++page) {
    PageImage image;
    Status s = (*store_or)->ReadPage(PageId{partition, page}, &image);
    if (!s.ok()) {
      printf("%8u  <%s>\n", page, s.ToString().c_str());
      continue;
    }
    if (image.IsZero()) continue;
    printf("%8u %12llu %8u\n", page,
           static_cast<unsigned long long>(image.lsn()),
           static_cast<unsigned>(image.type()));
  }
  return 0;
}

int CmdManifest(MemEnv* env, const std::string& backup_name) {
  auto manifest_or = BackupManifest::Load(env, backup_name);
  if (!manifest_or.ok()) {
    fprintf(stderr, "%s\n", manifest_or.status().ToString().c_str());
    return 1;
  }
  const BackupManifest& m = *manifest_or;
  printf("name:                %s\n", m.name.c_str());
  printf("complete:            %s\n", m.complete ? "yes" : "NO");
  printf("start_lsn:           %llu (media roll-forward scan start)\n",
         static_cast<unsigned long long>(m.start_lsn));
  printf("end_lsn:             %llu\n",
         static_cast<unsigned long long>(m.end_lsn));
  printf("partitions:          %u x %u pages\n", m.partitions,
         m.pages_per_partition);
  printf("steps:               %u\n", m.steps);
  printf("incremental:         %s%s%s\n", m.incremental ? "yes (base: " : "no",
         m.incremental ? m.base_name.c_str() : "", m.incremental ? ")" : "");
  if (m.incremental) printf("pages in delta:      %zu\n", m.pages.size());
  printf("format:              v%u%s\n", m.format + 1,
         m.format != 0 ? " (compressed frames)" : "");
  if (!m.dedup_base.empty()) {
    printf("dedup base:          %s\n", m.dedup_base.c_str());
  }
  if (m.raw_bytes != 0) {
    printf("bytes:               %llu raw -> %llu stored (%.2fx)\n",
           static_cast<unsigned long long>(m.raw_bytes),
           static_cast<unsigned long long>(m.stored_bytes),
           m.stored_bytes != 0
               ? static_cast<double>(m.raw_bytes) /
                     static_cast<double>(m.stored_bytes)
               : 0.0);
  }
  return 0;
}

int CmdBackupsList(MemEnv* env, const std::string& db_name) {
  auto catalog_or = BackupCatalog::Open(env, Database::CatalogName(db_name));
  if (!catalog_or.ok()) {
    fprintf(stderr, "%s\n", catalog_or.status().ToString().c_str());
    return 1;
  }
  const std::vector<BackupGeneration>& gens = catalog_or->generations();
  if (gens.empty()) {
    printf("no backup generations in catalog '%s'\n",
           Database::CatalogName(db_name).c_str());
    return 0;
  }
  printf("%4s %-16s %-9s %-5s %-16s %-16s %10s %10s %3s %8s\n", "id", "name",
         "state", "kind", "base", "dedup", "start_lsn", "end_lsn", "fmt",
         "ratio");
  for (const BackupGeneration& g : gens) {
    double ratio = g.stored_bytes != 0
                       ? static_cast<double>(g.raw_bytes) /
                             static_cast<double>(g.stored_bytes)
                       : 0.0;
    printf("%4llu %-16s %-9s %-5s %-16s %-16s %10llu %10llu %3u %7.2fx\n",
           static_cast<unsigned long long>(g.id), g.name.c_str(),
           BackupStateName(g.state), g.incremental ? "incr" : "full",
           g.base_name.empty() ? "-" : g.base_name.c_str(),
           g.dedup_base.empty() ? "-" : g.dedup_base.c_str(),
           static_cast<unsigned long long>(g.start_lsn),
           static_cast<unsigned long long>(g.end_lsn), g.format, ratio);
  }
  return 0;
}

int CmdBackupsPrune(MemEnv* env, const std::string& image_path,
                    const std::string& db_name, uint32_t keep) {
  auto catalog_or = BackupCatalog::Open(env, Database::CatalogName(db_name));
  if (!catalog_or.ok()) {
    fprintf(stderr, "%s\n", catalog_or.status().ToString().c_str());
    return 1;
  }
  BackupRetentionPolicy policy;
  policy.keep_chains = keep;
  auto pruned_or = catalog_or->Prune(policy);
  if (!pruned_or.ok()) {
    fprintf(stderr, "%s\n", pruned_or.status().ToString().c_str());
    return 1;
  }
  for (const std::string& name : *pruned_or) {
    printf("pruned %s\n", name.c_str());
  }
  printf("%zu generation(s) pruned (keep_chains=%u)\n", pruned_or->size(),
         keep);
  Status s = SaveImage(env, image_path);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

int CmdVerify(MemEnv* env, const std::string& db_name, uint32_t partitions,
              uint32_t pages) {
  OpRegistry registry;
  RegisterAllOps(&registry);
  auto log_or = LogManager::Open(env, Database::LogName(db_name));
  if (!log_or.ok()) {
    fprintf(stderr, "%s\n", log_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<PageStore> oracle;
  Status s = testutil::BuildOracle(env, **log_or, registry, "dbtool_oracle",
                                   partitions, &oracle);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto stable_or =
      PageStore::Open(env, Database::StableName(db_name), partitions);
  if (!stable_or.ok()) {
    fprintf(stderr, "%s\n", stable_or.status().ToString().c_str());
    return 1;
  }
  std::string diff =
      testutil::DiffStores(**stable_or, *oracle, partitions, pages);
  if (diff.empty()) {
    printf("OK: stable database matches full-log re-execution\n");
    return 0;
  }
  printf("MISMATCH at page %s\n", diff.c_str());
  return 2;
}

void PrintScrubReport(const ScrubReport& r) {
  printf("manifests checked:   %u\n", r.manifests_checked);
  printf("pages scanned:       %llu\n",
         static_cast<unsigned long long>(r.pages_scanned));
  printf("bad pages:           %llu\n",
         static_cast<unsigned long long>(r.bad_pages));
  printf("repaired from S:     %llu\n",
         static_cast<unsigned long long>(r.repaired_from_stable));
  printf("repaired from log:   %llu\n",
         static_cast<unsigned long long>(r.repaired_from_log));
  printf("unrepaired:          %llu\n",
         static_cast<unsigned long long>(r.unrepaired));
}

int CmdVerifyBackup(MemEnv* env, const std::string& backup_name) {
  BackupScrubber scrubber(env, ScrubOptions{});
  auto report_or = scrubber.Scrub(backup_name);
  if (!report_or.ok()) {
    fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  PrintScrubReport(*report_or);
  if (report_or->clean()) {
    printf("OK: backup '%s' verifies clean\n", backup_name.c_str());
    return 0;
  }
  printf("BAD: %llu damaged page(s) — run 'scrub' to repair\n",
         static_cast<unsigned long long>(report_or->bad_pages));
  return 2;
}

int CmdScrub(MemEnv* env, const std::string& backup_name,
             const std::string& db_name, const std::string& out_path) {
  // The manifest supplies the store geometry, so no extra arguments.
  auto manifest_or = BackupManifest::Load(env, backup_name);
  if (!manifest_or.ok()) {
    fprintf(stderr, "%s\n", manifest_or.status().ToString().c_str());
    return 1;
  }
  // Opening a log or store creates it when absent, and repairing against
  // a freshly-created (all-zero) stable db would "repair" damaged backup
  // pages to zeros — so insist the named db is actually in the image.
  if (!env->FileExists(Database::LogName(db_name))) {
    fprintf(stderr, "no db named '%s' in the image (missing %s)\n",
            db_name.c_str(), Database::LogName(db_name).c_str());
    return 1;
  }
  OpRegistry registry;
  RegisterAllOps(&registry);
  auto log_or = LogManager::Open(env, Database::LogName(db_name));
  if (!log_or.ok()) {
    fprintf(stderr, "%s\n", log_or.status().ToString().c_str());
    return 1;
  }
  auto stable_or = PageStore::Open(env, Database::StableName(db_name),
                                   manifest_or->partitions);
  if (!stable_or.ok()) {
    fprintf(stderr, "%s\n", stable_or.status().ToString().c_str());
    return 1;
  }
  ScrubOptions options;
  options.repair = true;
  options.stable = stable_or->get();
  options.log = log_or->get();
  options.registry = &registry;
  // No cache is attached to a saved image (durable contents only), so no
  // install_current hook is needed; the scrub is offline and quiesced.
  BackupScrubber scrubber(env, options);
  auto report_or = scrubber.Scrub(backup_name);
  if (!report_or.ok()) {
    fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
    return 1;
  }
  PrintScrubReport(*report_or);
  Status s = SaveImage(env, out_path);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("rewrote image to %s\n", out_path.c_str());
  return report_or->fully_repaired() ? 0 : 2;
}

int CmdDemo(const std::string& path) {
  DbOptions options;
  options.partitions = 1;
  options.pages_per_partition = 256;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  auto engine_or = TestEngine::Create(options, "demo");
  if (!engine_or.ok()) return 1;
  auto engine = std::move(engine_or).value();
  BTree tree(engine->db(), 0, 0, SplitLogging::kLogical);
  if (!tree.Create().ok()) return 1;
  BackupJobOptions job;
  job.steps = 4;
  int64_t key = 0;
  job.mid_step = [&](PartitionId, uint32_t) -> Status {
    for (int i = 0; i < 40; ++i, ++key) {
      LLB_RETURN_IF_ERROR(tree.Insert(key, Slice("demo")));
    }
    return engine->db()->FlushAll();
  };
  for (; key < 200; ++key) {
    if (!tree.Insert(key, Slice("demo")).ok()) return 1;
  }
  if (!engine->db()->FlushAll().ok()) return 1;
  if (!engine->db()->TakeBackupWithOptions("demo_bk", job).status().ok()) {
    return 1;
  }
  if (!engine->db()->FlushAll().ok()) return 1;
  Status s = SaveImage(engine->env(), path);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("wrote demo image with db 'demo' and backup 'demo_bk' to %s\n",
         path.c_str());
  return 0;
}

// ---------- log shipping ----------

DbOptions ImageDbOptions(uint32_t partitions, uint32_t pages) {
  DbOptions options;
  options.partitions = partitions;
  options.pages_per_partition = pages;
  options.cache_pages = 64;
  options.graph = WriteGraphKind::kTree;
  options.backup_policy = BackupPolicy::kTree;
  return options;
}

// Replicates the primary's whole retained log into a warm standby living
// in the same image: attach a shipper over a spool-file channel, pump
// every sealed segment, and drain it into a standby database. The
// standby (its stable store, its log, the durable ship cursor, and any
// untrimmed spool files) is saved back into the image, ready for
// `standby status` or further shipping rounds.
int CmdShip(MemEnv* env, const std::string& image_path,
            const std::string& db_name, const std::string& standby_name,
            uint32_t partitions, uint32_t pages) {
  if (!env->FileExists(Database::LogName(db_name))) {
    fprintf(stderr, "no db named '%s' in the image (missing %s)\n",
            db_name.c_str(), Database::LogName(db_name).c_str());
    return 1;
  }
  DbOptions options = ImageDbOptions(partitions, pages);
  auto run = [&]() -> Status {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         Database::Open(env, db_name, options));
    RegisterAllOps(db->registry());
    LLB_RETURN_IF_ERROR(db->Recover());

    FileShipChannel channel(env, db_name + ".ship");
    LogShipper shipper(env, db_name, db->log(), &channel);
    LLB_RETURN_IF_ERROR(shipper.Attach());
    LLB_RETURN_IF_ERROR(shipper.Pump());

    DbOptions standby_options = options;
    standby_options.standby = true;
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> standby,
                         Database::Open(env, standby_name, standby_options));
    RegisterAllOps(standby->registry());
    LLB_RETURN_IF_ERROR(standby->Recover());
    StandbyApplier applier(standby.get(), &channel);
    LLB_RETURN_IF_ERROR(applier.CatchUpFromLocalLog());
    LLB_RETURN_IF_ERROR(applier.Drain());

    ShipStats stats = shipper.stats();
    printf("shipped %llu frame(s), %llu byte(s); cursor at lsn %llu\n",
           static_cast<unsigned long long>(stats.frames_sent),
           static_cast<unsigned long long>(stats.bytes_sent),
           static_cast<unsigned long long>(stats.last_shipped_lsn));
    StandbyStatus status = applier.GatherStatus(db->log()->durable_lsn());
    printf("%s\n", status.ToString().c_str());
    if (status.lsns_behind != 0) {
      return Status::Internal("standby did not converge: " +
                              status.ToString());
    }
    shipper.Detach();
    return Status::OK();
  };
  Status s = run();
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  s = SaveImage(env, image_path);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("rewrote image to %s\n", image_path.c_str());
  return 0;
}

// Read-only replication-lag report from the standby's point of view: how
// far its applied LSN trails the primary's durable tail.
int CmdStandbyStatus(MemEnv* env, const std::string& db_name,
                     const std::string& standby_name, uint32_t partitions,
                     uint32_t pages) {
  if (!env->FileExists(Database::LogName(standby_name))) {
    fprintf(stderr,
            "no standby named '%s' in the image (missing %s); "
            "run 'ship' first\n",
            standby_name.c_str(), Database::LogName(standby_name).c_str());
    return 1;
  }
  Lsn primary_durable = kInvalidLsn;
  if (env->FileExists(Database::LogName(db_name))) {
    auto log_or = LogManager::Open(env, Database::LogName(db_name));
    if (!log_or.ok()) {
      fprintf(stderr, "%s\n", log_or.status().ToString().c_str());
      return 1;
    }
    primary_durable = (*log_or)->durable_lsn();
  }
  DbOptions standby_options = ImageDbOptions(partitions, pages);
  standby_options.standby = true;
  auto run = [&]() -> Status {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> standby,
                         Database::Open(env, standby_name, standby_options));
    RegisterAllOps(standby->registry());
    LLB_RETURN_IF_ERROR(standby->Recover());
    FileShipChannel channel(env, db_name + ".ship");
    StandbyApplier applier(standby.get(), &channel);
    LLB_RETURN_IF_ERROR(applier.CatchUpFromLocalLog());
    printf("%s\n", applier.GatherStatus(primary_durable).ToString().c_str());
    return Status::OK();
  };
  Status s = run();
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------- instant restore ----------

// Progress report of an interrupted instant restore, decoded read-only
// from the durable restored-bitmap cell ("<db>.rbm").
int CmdRestoreStatus(MemEnv* env, const std::string& db_name) {
  std::string backup;
  auto status_or = InstantRestorer::InspectBitmap(
      env, Database::RestoreBitmapName(db_name), &backup);
  if (!status_or.ok()) {
    if (status_or.status().IsNotFound()) {
      printf("no instant restore in progress for db '%s'\n", db_name.c_str());
      return 0;
    }
    fprintf(stderr, "%s\n", status_or.status().ToString().c_str());
    return 1;
  }
  printf("instant restore of db '%s' from chain '%s': %llu/%llu pages "
         "(%.1f%%)%s\n",
         db_name.c_str(), backup.c_str(),
         static_cast<unsigned long long>(status_or->pages_restored),
         static_cast<unsigned long long>(status_or->pages_total),
         status_or->fraction * 100.0,
         status_or->complete ? ", complete — reopen to finalize" : "");
  printf("recovery tail: lsn %llu (reopen with 'restore --instant' or\n"
         "Database::OpenRestoring to resume)\n",
         static_cast<unsigned long long>(status_or->recovery_tail));
  return 0;
}

// Instant media recovery: the database opens immediately over S (wiped,
// damaged, or half-restored — the restore overwrites every page not yet
// marked restored), serves a read through the on-demand fault path, and
// drives the background sweep to completion, printing progress per step.
int CmdInstantRestore(MemEnv* env, const std::string& db_name,
                      const std::string& backup_name, uint32_t batch_pages) {
  auto manifest_or = BackupManifest::Load(env, backup_name);
  if (!manifest_or.ok()) {
    fprintf(stderr, "%s\n", manifest_or.status().ToString().c_str());
    return 1;
  }
  DbOptions options =
      ImageDbOptions(manifest_or->partitions, manifest_or->pages_per_partition);
  if (batch_pages > 0) options.restore_batch_pages = batch_pages;
  auto run = [&]() -> Status {
    LLB_ASSIGN_OR_RETURN(
        std::unique_ptr<Database> db,
        Database::OpenRestoring(env, db_name, options, backup_name));
    RegisterAllOps(db->registry());
    LLB_RETURN_IF_ERROR(db->Recover());
    if (db->restoring()) {
      // One read through the cache takes the prioritized fault path
      // transactions would take; the loop below is the background sweep.
      PageImage image;
      LLB_RETURN_IF_ERROR(db->ReadPage(PageId{0, 0}, &image));
    }
    while (db->restoring()) {
      RestoreStatus st = db->restore_status();
      printf("  %llu/%llu pages (%.1f%%), %llu on demand "
             "(%llu closure), %llu swept, eta %llu us\n",
             static_cast<unsigned long long>(st.pages_restored),
             static_cast<unsigned long long>(st.pages_total),
             st.fraction * 100.0,
             static_cast<unsigned long long>(st.pages_faulted),
             static_cast<unsigned long long>(st.closure_pages),
             static_cast<unsigned long long>(st.sweep_pages),
             static_cast<unsigned long long>(st.eta_us));
      LLB_ASSIGN_OR_RETURN(uint64_t moved, db->RestoreStep());
      (void)moved;
    }
    LLB_RETURN_IF_ERROR(db->FinishRestore());
    printf("instant restore of '%s' from '%s' complete\n", db_name.c_str(),
           backup_name.c_str());
    return Status::OK();
  };
  Status s = run();
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return CmdVerify(env, db_name, manifest_or->partitions,
                   manifest_or->pages_per_partition);
}

// End-to-end smoke over the real file-backed environment: open a
// database under `root`, load it, take a parallel batched backup, verify
// the chain, then close and recover from the on-disk files. This is the
// CI check that the engine runs unmodified on PosixEnv — everything else
// in this tool stays on MemEnv images.
int CmdPosixSmoke(const std::string& root, bool compress) {
  auto env_or = PosixEnv::Open(root);
  if (!env_or.ok()) {
    fprintf(stderr, "%s\n", env_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<PosixEnv> env = std::move(env_or).value();

  DbOptions options;
  options.partitions = 2;
  options.pages_per_partition = 64;
  options.cache_pages = 32;
  options.graph = WriteGraphKind::kGeneral;
  options.backup_policy = BackupPolicy::kGeneral;
  options.backup_sweep_threads = 2;
  options.backup_batch_pages = 8;

  auto run = [&]() -> Status {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<Database> db,
                         Database::Open(env.get(), "posixdb", options));
    RegisterAllOps(db->registry());
    LLB_RETURN_IF_ERROR(db->Recover());
    std::vector<std::unique_ptr<FileStore>> files;
    for (uint32_t p = 0; p < options.partitions; ++p) {
      files.push_back(std::make_unique<FileStore>(
          db.get(), p, /*base_page=*/0, /*pages_per_file=*/1,
          /*num_files=*/options.pages_per_partition));
      for (uint32_t f = 0; f < options.pages_per_partition; ++f) {
        LLB_RETURN_IF_ERROR(files[p]->WriteValues(
            f, {static_cast<int64_t>(p) * 1000 + f, 1}));
      }
    }
    LLB_RETURN_IF_ERROR(db->FlushAll());
    LLB_RETURN_IF_ERROR(db->Checkpoint());

    BackupJobOptions job;
    job.sweep_threads = options.backup_sweep_threads;
    job.batch_pages = options.backup_batch_pages;
    BackupJobStats stats;
    LLB_ASSIGN_OR_RETURN(BackupManifest manifest,
                         db->TakeBackupWithOptions("posix_bk", job, &stats));
    if (!manifest.complete) return Status::Internal("backup incomplete");
    if (stats.threads_spawned != 0) {
      return Status::Internal("pooled sweep spawned transient threads");
    }
    LLB_ASSIGN_OR_RETURN(ScrubReport verify, db->VerifyBackup("posix_bk"));
    if (!verify.clean()) return Status::Internal("backup not clean");

    // Deep-queue leg over the same real files: a second backup with 4
    // run IOs in flight per worker (io_uring when the kernel grants it,
    // the portable thread pool otherwise) — the scrub proves the result
    // as clean as the one-run-at-a-time sweep's.
    BackupJobOptions async_job = job;
    async_job.queue_depth = 4;
    BackupJobStats async_stats;
    LLB_ASSIGN_OR_RETURN(
        BackupManifest async_manifest,
        db->TakeBackupWithOptions("posix_bk_async", async_job, &async_stats));
    if (!async_manifest.complete) {
      return Status::Internal("async backup incomplete");
    }
    LLB_ASSIGN_OR_RETURN(ScrubReport async_verify,
                         db->VerifyBackup("posix_bk_async"));
    if (!async_verify.clean()) return Status::Internal("async backup not clean");
    db.reset();

    // Reopen from the on-disk files and re-read the last value written.
    LLB_ASSIGN_OR_RETURN(db, Database::Open(env.get(), "posixdb", options));
    RegisterAllOps(db->registry());
    LLB_RETURN_IF_ERROR(db->Recover());
    {
      FileStore reopened(db.get(), 1, 0, 1, options.pages_per_partition);
      LLB_ASSIGN_OR_RETURN(std::vector<int64_t> values,
                           reopened.ReadValues(3));
      if (values.size() != 2 || values[0] != 1003) {
        return Status::Corruption("reopened file 3 of partition 1 mismatch");
      }
    }

    // MEDIA FAILURE end-to-end on real files: wipe S, restore it from
    // the backup through the shared transfer pipeline (batched, 4 runs
    // in flight, 2 restore workers), recover over it and re-verify.
    db.reset();
    {
      LLB_ASSIGN_OR_RETURN(
          std::unique_ptr<PageStore> stable,
          PageStore::Open(env.get(), Database::StableName("posixdb"),
                          options.partitions));
      for (PartitionId p = 0; p < options.partitions; ++p) {
        LLB_RETURN_IF_ERROR(stable->WipePartition(p));
      }
    }
    MediaRecoveryReport restored;
    {
      OpRegistry registry;
      RegisterAllOps(&registry);
      RestoreOptions restore;
      restore.batch_pages = options.backup_batch_pages;
      restore.queue_depth = 4;  // deep-queue restore over real files
      restore.threads = 2;
      LLB_ASSIGN_OR_RETURN(
          restored,
          RestoreFromBackupWithOptions(env.get(),
                                       Database::StableName("posixdb"),
                                       Database::LogName("posixdb"),
                                       "posix_bk", registry, restore));
    }
    LLB_ASSIGN_OR_RETURN(db, Database::Open(env.get(), "posixdb", options));
    RegisterAllOps(db->registry());
    LLB_RETURN_IF_ERROR(db->Recover());
    FileStore rebuilt(db.get(), 1, 0, 1, options.pages_per_partition);
    LLB_ASSIGN_OR_RETURN(std::vector<int64_t> values, rebuilt.ReadValues(3));
    if (values.size() != 2 || values[0] != 1003) {
      return Status::Corruption("restored file 3 of partition 1 mismatch");
    }

    if (compress) {
      // Compressed-format leg, end to end over the same real files:
      // format-v2 backups (RLE + zero frames + dedup refs), catalog
      // retention, and a restore that chases ref frames across
      // generations. The first compressed full dedups against the v1
      // async backup (same quiesced LSNs), the second against the
      // first, so prune's dedup-closure protection is on the hook for
      // the restore below to work at all.
      DbOptions copts = options;
      copts.backup_compress = true;
      db.reset();
      LLB_ASSIGN_OR_RETURN(db, Database::Open(env.get(), "posixdb", copts));
      RegisterAllOps(db->registry());
      LLB_RETURN_IF_ERROR(db->Recover());
      LLB_ASSIGN_OR_RETURN(BackupManifest c1, db->TakeBackup("posix_bk_c1"));
      if (c1.format == 0 || c1.stored_bytes >= c1.raw_bytes) {
        return Status::Internal("compressed backup did not shrink");
      }
      // Fresh content for the second generation.
      {
        FileStore fs(db.get(), 0, 0, 1, copts.pages_per_partition);
        for (uint32_t f = 0; f < 8; ++f) {
          LLB_RETURN_IF_ERROR(
              fs.WriteValues(f, {static_cast<int64_t>(f) + 5000, 2}));
        }
      }
      LLB_RETURN_IF_ERROR(db->FlushAll());
      LLB_ASSIGN_OR_RETURN(BackupManifest c2, db->TakeBackup("posix_bk_c2"));
      if (c2.dedup_base != "posix_bk_c1") {
        return Status::Internal("second compressed full did not dedup "
                                "against the first");
      }
      // Retention: keep the newest chain (c2). Dedup edges pin c1 and
      // the async backup; posix_bk is the one unprotected generation.
      LLB_ASSIGN_OR_RETURN(std::vector<std::string> pruned,
                           db->PruneBackups(BackupRetentionPolicy{}));
      if (pruned.size() != 1 || pruned[0] != "posix_bk") {
        return Status::Internal("prune did not drop exactly posix_bk");
      }
      if (env->FileExists("posix_bk.manifest")) {
        return Status::Internal("pruned backup files were not deleted");
      }
      LLB_ASSIGN_OR_RETURN(ScrubReport cverify,
                           db->VerifyBackup("posix_bk_c2"));
      if (!cverify.clean()) {
        return Status::Internal("compressed backup not clean");
      }
      db.reset();
      {
        LLB_ASSIGN_OR_RETURN(
            std::unique_ptr<PageStore> stable,
            PageStore::Open(env.get(), Database::StableName("posixdb"),
                            copts.partitions));
        for (PartitionId p = 0; p < copts.partitions; ++p) {
          LLB_RETURN_IF_ERROR(stable->WipePartition(p));
        }
      }
      {
        OpRegistry registry;
        RegisterAllOps(&registry);
        RestoreOptions restore;
        restore.batch_pages = copts.backup_batch_pages;
        LLB_RETURN_IF_ERROR(
            RestoreFromBackupWithOptions(env.get(),
                                         Database::StableName("posixdb"),
                                         Database::LogName("posixdb"),
                                         "posix_bk_c2", registry, restore)
                .status());
      }
      LLB_ASSIGN_OR_RETURN(db, Database::Open(env.get(), "posixdb", copts));
      RegisterAllOps(db->registry());
      LLB_RETURN_IF_ERROR(db->Recover());
      FileStore crebuilt(db.get(), 0, 0, 1, copts.pages_per_partition);
      LLB_ASSIGN_OR_RETURN(std::vector<int64_t> cvalues,
                           crebuilt.ReadValues(3));
      if (cvalues.size() != 2 || cvalues[0] != 5003) {
        return Status::Corruption("compressed restore mismatch");
      }
      printf("posix smoke compressed leg OK: raw=%llu stored=%llu "
             "(%.2fx) pruned=%zu\n",
             static_cast<unsigned long long>(c1.raw_bytes),
             static_cast<unsigned long long>(c1.stored_bytes),
             static_cast<double>(c1.raw_bytes) /
                 static_cast<double>(c1.stored_bytes),
             pruned.size());
    }

    printf("posix smoke OK: root=%s pages_copied=%llu pages_restored=%llu "
           "files=%zu async_backend=%s\n",
           root.c_str(), static_cast<unsigned long long>(stats.pages_copied),
           static_cast<unsigned long long>(restored.pages_restored),
           env->ListFiles().size(),
           UringAvailable() ? "io_uring" : "thread-pool");
    return Status::OK();
  };
  Status s = run();
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------- env-caps ----------

// IO capability probe, machine-parseable (key=value per line). CI keys
// off `io_uring=` to decide whether the uring-backed suites run on this
// kernel or are visibly SKIPPED.
int CmdEnvCaps() {
  printf("io_uring=%s\n", UringAvailable() ? "available" : "unavailable");
  printf("crc32c=%s\n", crc32c::Backend());
  printf("io_alignment=%zu\n", kIoAlignment);
  return 0;
}

// ---------- torture ----------

int Usage();

int RunOneSweep(ScenarioKind kind, uint64_t seed, uint64_t max_points,
                uint64_t nested_points) {
  ScenarioOptions scenario;
  scenario.kind = kind;
  scenario.seed = seed;
  // Resume and scrub sweep the tree path; the rest sweep the general-
  // operation path, log shipping included so the standby replays
  // two-page nodes (torture_test.cc sweeps its tree path in full).
  scenario.graph =
      (kind == ScenarioKind::kResume || kind == ScenarioKind::kScrub)
          ? WriteGraphKind::kTree
          : WriteGraphKind::kGeneral;
  if (kind == ScenarioKind::kBatchedBackup) {
    // Two batches per step so the scripted mid-sweep abort lands between
    // batch writes of one step (see the scenario's countdown math), with
    // the deep-queue async backend underneath (crash points sweep over
    // the in-flight window's durability events).
    scenario.batch_pages = std::max<uint32_t>(
        1, scenario.pages_per_partition / (scenario.backup_steps * 2));
    scenario.queue_depth = 4;
  }
  if (kind == ScenarioKind::kParallelBackup) {
    // Two partitions sharded across two sweep workers; the workload (and
    // the determinism of the event count) lives on partition 0 only.
    scenario.partitions = 2;
    scenario.sweep_threads = 2;
  }
  if (kind == ScenarioKind::kParallelRestore) {
    // Batched restore sharded across two workers over the
    // async deep queue; crash points land mid-parallel-restore and
    // salvage must re-restore.
    scenario.partitions = 2;
    scenario.sweep_threads = 2;
    scenario.batch_pages = std::max<uint32_t>(
        1, scenario.pages_per_partition / (scenario.backup_steps * 2));
    scenario.queue_depth = 4;
  }

  SweepOptions sweep;
  sweep.max_points = max_points;
  sweep.nested_primary_points = nested_points;
  sweep.nested_max_points = nested_points == 0 ? 0 : 8;
  uint64_t lines = 0;
  sweep.progress = [&](const std::string& message) {
    if (lines++ % 16 == 0) {
      printf("  [%s] %s\n", ScenarioKindName(kind), message.c_str());
    }
  };

  printf("sweeping %s scenario (seed=%llu)...\n", ScenarioKindName(kind),
         static_cast<unsigned long long>(seed));
  CrashSweeper sweeper(scenario);
  auto report_or = sweeper.Sweep(sweep);
  if (!report_or.ok()) {
    fprintf(stderr, "%s sweep FAILED: %s\n", ScenarioKindName(kind),
            report_or.status().ToString().c_str());
    return 1;
  }
  printf("%s sweep OK: %s\n", ScenarioKindName(kind),
         report_or->ToString().c_str());
  return 0;
}

int RunConcurrent(uint64_t seed) {
  ConcurrentTortureOptions options;
  options.seed = seed;
  printf("running concurrent torture (seed=%llu)...\n",
         static_cast<unsigned long long>(seed));
  auto report_or = RunConcurrentTorture(options);
  if (!report_or.ok()) {
    fprintf(stderr, "concurrent torture FAILED: %s\n",
            report_or.status().ToString().c_str());
    return 1;
  }
  printf("concurrent torture OK: %s\n", report_or->ToString().c_str());
  return 0;
}

int CmdTorture(const std::string& scenario, uint64_t seed,
               uint64_t max_points, uint64_t nested_points) {
  struct Entry {
    const char* name;
    ScenarioKind kind;
  };
  static const Entry kSweeps[] = {
      {"backup", ScenarioKind::kBackup},
      {"resume", ScenarioKind::kResume},
      {"scrub", ScenarioKind::kScrub},
      {"restore", ScenarioKind::kRestore},
      {"batched", ScenarioKind::kBatchedBackup},
      {"parallel", ScenarioKind::kParallelBackup},
      {"restore-parallel", ScenarioKind::kParallelRestore},
      {"log-shipping", ScenarioKind::kLogShipping},
      {"instant-restore", ScenarioKind::kInstantRestore},
      {"catalog", ScenarioKind::kCatalogPrune},
      {"write-back", ScenarioKind::kWriteBack},
      {"log-truncate", ScenarioKind::kLogTruncate},
  };
  bool matched = false;
  int rc = 0;
  for (const Entry& entry : kSweeps) {
    if (scenario == "all" || scenario == entry.name) {
      matched = true;
      rc |= RunOneSweep(entry.kind, seed, max_points, nested_points);
    }
  }
  if (scenario == "all" || scenario == "concurrent") {
    matched = true;
    rc |= RunConcurrent(seed);
  }
  if (!matched) {
    fprintf(stderr, "unknown torture scenario '%s'\n", scenario.c_str());
    return Usage();
  }
  return rc;
}

int Usage() {
  fprintf(stderr,
          "usage:\n"
          "  llb_dbtool demo [image=demo.img]\n"
          "  llb_dbtool log <image> [log=demo.log]\n"
          "  llb_dbtool log-stats <image> [log=demo.log]\n"
          "  llb_dbtool pages <image> [store=demo.stable] [partition=0]\n"
          "  llb_dbtool manifest <image> [backup=demo_bk]\n"
          "  llb_dbtool verify <image> [db=demo] [partitions=1] [pages=256]\n"
          "  llb_dbtool restore <image> [db=demo] [backup=demo_bk]\n"
          "      [batch=32] [threads=1] [--to-lsn N]\n"
          "      [--instant] [--queue-depth N]\n"
          "      off-line media recovery: wipe-tolerant restore of the\n"
          "      chain with multi-page batched IO and partition-sharded\n"
          "      restore workers; --queue-depth N keeps N runs in flight\n"
          "      through the async Env backend (io_uring or thread-pool\n"
          "      fallback);\n"
          "      --to-lsn N restores to a point in time instead (picks\n"
          "      the newest chain ending at or before N, rolls forward\n"
          "      to exactly N, discards the log suffix; N must not cut\n"
          "      a multi-record atomic group);\n"
          "      --instant opens the database restoring-mode instead:\n"
          "      it serves transactions immediately, restoring faulted\n"
          "      pages' influence closures on demand while a background\n"
          "      sweep (progress printed per step) fills in the rest;\n"
          "      crash-resumable via the durable restored-bitmap\n"
          "  llb_dbtool restore status <image> [db=demo]\n"
          "      progress of an interrupted instant restore, decoded\n"
          "      read-only from the restored-bitmap cell (<db>.rbm)\n"
          "  llb_dbtool ship <image> [db=demo] [standby=<db>_sb]\n"
          "      [partitions=1] [pages=256]\n"
          "      replicate the primary's retained log into a warm\n"
          "      standby inside the image (spool-file channel, durable\n"
          "      ship cursor), verify convergence, rewrite the image\n"
          "  llb_dbtool standby status <image> [db=demo] [standby=<db>_sb]\n"
          "      [partitions=1] [pages=256]\n"
          "      read-only replication-lag report: the standby's applied\n"
          "      LSN vs the primary's durable tail, buffered frames, role\n"
          "  llb_dbtool backups list <image> [db=demo]\n"
          "      the catalog's view of every backup generation: id, name,\n"
          "      state (creating/complete/cancelled/pruned), chain and\n"
          "      dedup edges, validity LSNs, store format, compression\n"
          "      ratio\n"
          "  llb_dbtool backups prune <image> [db=demo] [keep=1]\n"
          "      apply retention: keep the newest <keep> complete full\n"
          "      chains (plus everything they reach through base/dedup\n"
          "      edges), durably mark the rest PRUNED, delete the files\n"
          "      of pruned/cancelled generations, rewrite the image\n"
          "  llb_dbtool verify-backup <image> [backup=demo_bk]\n"
          "      re-read every page of the backup chain, verify checksums\n"
          "      and the manifest chain; read-only, exit 2 on damage\n"
          "  llb_dbtool scrub <image> [backup=demo_bk] [db=demo] "
          "[out=<image>]\n"
          "      verify-backup plus repair: bad pages re-copied from the\n"
          "      stable db (identity-logged) or rebuilt from the log, then\n"
          "      the image is rewritten; exit 2 if any page stays bad\n"
          "  llb_dbtool posix-smoke [root=./posix_smoke] [--compress]\n"
          "      end-to-end smoke over the file-backed PosixEnv: open a\n"
          "      database under <root>, load it, take a parallel batched\n"
          "      backup (2 pool workers), verify the chain, reopen from\n"
          "      the on-disk files, then wipe S and restore it from the\n"
          "      backup (batched, 4 runs in flight, 2 restore workers);\n"
          "      --compress adds a format-v2 leg: two compressed backups\n"
          "      (the second dedup-refs the first), catalog prune, then\n"
          "      wipe + restore through the frame decode path\n"
          "  llb_dbtool env-caps\n"
          "      probe this host's IO capabilities and print them as\n"
          "      key=value lines (io_uring=available|unavailable,\n"
          "      crc32c=<backend>, io_alignment=<bytes>); CI greps the\n"
          "      output to decide whether the uring suites run or are\n"
          "      visibly skipped\n"
          "  llb_dbtool torture [scenario=all] [seed=1] [max-points=0]\n"
          "      [nested-points=0]\n"
          "      crash-point sweep of a pipeline scenario (backup, resume,\n"
          "      scrub, restore, batched, parallel, restore-parallel,\n"
          "      log-shipping, instant-restore, catalog, write-back,\n"
          "      log-truncate, concurrent, or all); catalog sweeps\n"
          "      compressed-backup retention: chain + dedup protection\n"
          "      must survive a crash at every catalog save and\n"
          "      file-deletion event; write-back sweeps the cache's flat\n"
          "      and multi-level eviction batches and multi-var nodes\n"
          "      installed through identity writes; log-truncate\n"
          "      sweeps log rolls, whole-file truncation and the PITR\n"
          "      cut: run once to count durability events, then crash at each\n"
          "      one, recover, and verify db + completed backups against\n"
          "      the oracle; max-points caps the sweep (0 = every event)\n"
          "      and nested-points > 0 also crashes the recovery itself\n");
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  if (cmd == "demo") {
    return CmdDemo(argc > 2 ? argv[2] : "demo.img");
  }
  if (cmd == "posix-smoke") {
    std::string root = "./posix_smoke";
    bool compress = false;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--compress") {
        compress = true;
      } else {
        root = argv[i];
      }
    }
    return CmdPosixSmoke(root, compress);
  }
  if (cmd == "env-caps") {
    return CmdEnvCaps();
  }
  if (cmd == "torture") {
    return CmdTorture(argc > 2 ? argv[2] : "all",
                      argc > 3 ? strtoull(argv[3], nullptr, 10) : 1,
                      argc > 4 ? strtoull(argv[4], nullptr, 10) : 0,
                      argc > 5 ? strtoull(argv[5], nullptr, 10) : 0);
  }
  if (cmd == "restore" && argc > 2 && std::string(argv[2]) == "status") {
    if (argc < 4) return Usage();
    MemEnv env;
    Status s = LoadImage(argv[3], &env);
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    return CmdRestoreStatus(&env, argc > 4 ? argv[4] : "demo");
  }
  if (cmd == "backups") {
    if (argc < 4) return Usage();
    std::string sub = argv[2];
    MemEnv env;
    Status s = LoadImage(argv[3], &env);
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::string db = argc > 4 ? argv[4] : "demo";
    if (sub == "list") {
      return CmdBackupsList(&env, db);
    }
    if (sub == "prune") {
      return CmdBackupsPrune(&env, argv[3], db,
                             argc > 5 ? atoi(argv[5]) : 1);
    }
    return Usage();
  }
  if (cmd == "standby") {
    if (argc < 4 || std::string(argv[2]) != "status") return Usage();
    MemEnv env;
    Status s = LoadImage(argv[3], &env);
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::string db = argc > 4 ? argv[4] : "demo";
    return CmdStandbyStatus(&env, db,
                            argc > 5 ? argv[5] : db + "_sb",
                            argc > 6 ? atoi(argv[6]) : 1,
                            argc > 7 ? atoi(argv[7]) : 256);
  }
  if (argc < 3) return Usage();
  MemEnv env;
  Status s = LoadImage(argv[2], &env);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (cmd == "log") {
    return CmdLog(&env, argc > 3 ? argv[3] : "demo.log");
  }
  if (cmd == "log-stats") {
    return CmdLogStats(&env, argc > 3 ? argv[3] : "demo.log");
  }
  if (cmd == "pages") {
    return CmdPages(&env, argc > 3 ? argv[3] : "demo.stable",
                    argc > 4 ? static_cast<PartitionId>(atoi(argv[4])) : 0);
  }
  if (cmd == "manifest") {
    return CmdManifest(&env, argc > 3 ? argv[3] : "demo_bk");
  }
  if (cmd == "verify") {
    return CmdVerify(&env, argc > 3 ? argv[3] : "demo",
                     argc > 4 ? atoi(argv[4]) : 1,
                     argc > 5 ? atoi(argv[5]) : 256);
  }
  if (cmd == "verify-backup") {
    return CmdVerifyBackup(&env, argc > 3 ? argv[3] : "demo_bk");
  }
  if (cmd == "scrub") {
    return CmdScrub(&env, argc > 3 ? argv[3] : "demo_bk",
                    argc > 4 ? argv[4] : "demo",
                    argc > 5 ? argv[5] : argv[2]);
  }
  if (cmd == "restore") {
    // `--to-lsn N` switches from plain media recovery to point-in-time
    // restore; `--instant` opens the database restoring-mode instead of
    // copying offline; `--queue-depth N` routes the transfer through
    // the async deep-queue backend with N runs in flight. The remaining
    // arguments stay positional.
    std::vector<std::string> positional;
    Lsn to_lsn = kInvalidLsn;
    bool pitr = false;
    bool instant = false;
    uint32_t queue_depth = 0;
    for (int i = 3; i < argc; ++i) {
      if (std::string(argv[i]) == "--to-lsn" && i + 1 < argc) {
        to_lsn = strtoull(argv[++i], nullptr, 10);
        pitr = true;
        continue;
      }
      if (std::string(argv[i]) == "--instant") {
        instant = true;
        continue;
      }
      if (std::string(argv[i]) == "--queue-depth" && i + 1 < argc) {
        queue_depth = static_cast<uint32_t>(atoi(argv[++i]));
        continue;
      }
      positional.emplace_back(argv[i]);
    }
    if (instant && pitr) {
      fprintf(stderr, "--instant cannot be combined with --to-lsn (an "
                      "instant restore always rolls forward to the end of "
                      "the log)\n");
      return 64;
    }
    if (instant) {
      return CmdInstantRestore(
          &env, !positional.empty() ? positional[0] : "demo",
          positional.size() > 1 ? positional[1] : "demo_bk",
          positional.size() > 2 ? atoi(positional[2].c_str()) : 0);
    }
    if (positional.size() > 4) {
      fprintf(stderr, "restore takes at most [db] [backup] [batch] "
                      "[threads]; the runs in flight are set with "
                      "--queue-depth N\n");
      return 64;
    }
    std::string db = !positional.empty() ? positional[0] : "demo";
    std::string backup = positional.size() > 1 ? positional[1] : "demo_bk";
    RestoreOptions options;
    if (positional.size() > 2) {
      options.batch_pages = atoi(positional[2].c_str());
    }
    if (positional.size() > 3) options.threads = atoi(positional[3].c_str());
    options.queue_depth = queue_depth;
    OpRegistry registry;
    RegisterAllOps(&registry);
    auto report_or =
        pitr ? Database::RestoreToLsn(&env, db, to_lsn, registry, options)
             : RestoreFromBackupWithOptions(&env, Database::StableName(db),
                                            Database::LogName(db), backup,
                                            registry, options);
    if (!report_or.ok()) {
      fprintf(stderr, "%s\n", report_or.status().ToString().c_str());
      return 1;
    }
    if (pitr) {
      printf("point-in-time restore to lsn %llu: ",
             static_cast<unsigned long long>(to_lsn));
    }
    printf("restored %llu pages from %u backup(s); %llu ops rolled "
           "forward\n",
           static_cast<unsigned long long>(report_or->pages_restored),
           report_or->backups_applied,
           static_cast<unsigned long long>(report_or->redo.ops_replayed));
    return CmdVerify(&env, db, 1, 256);
  }
  if (cmd == "ship") {
    std::string db = argc > 3 ? argv[3] : "demo";
    return CmdShip(&env, argv[2], db, argc > 4 ? argv[4] : db + "_sb",
                   argc > 5 ? atoi(argv[5]) : 1,
                   argc > 6 ? atoi(argv[6]) : 256);
  }
  return Usage();
}

}  // namespace
}  // namespace llb::dbtool

int main(int argc, char** argv) { return llb::dbtool::Main(argc, argv); }
