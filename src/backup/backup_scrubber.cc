#include "backup/backup_scrubber.h"

#include <algorithm>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/backup_codec.h"
#include "io/transfer_pipeline.h"
#include "ops/operation.h"
#include "recovery/redo.h"
#include "storage/page.h"

namespace llb {

namespace {

/// Pages per bulk repair IO when re-copying from S. Repair runs offline
/// (or quiesced), so this is purely a throughput knob.
constexpr uint32_t kRepairBatchPages = 32;

/// Best-effort removal of a page store's files (the scrub scratch store).
void RemoveStoreFiles(Env* env, const std::string& prefix,
                      uint32_t partitions) {
  for (uint32_t p = 0; p < partitions; ++p) {
    (void)env->DeleteFile(prefix + ".p" + std::to_string(p));
  }
  (void)env->DeleteFile(prefix + ".journal");
}

}  // namespace

Status BackupScrubber::RepairManifest(PageStore* store,
                                      const BackupManifest& manifest,
                                      const std::vector<PageId>& bad,
                                      ScrubReport* report) {
  // Both repair paths log an identity write, so without the log there is
  // nothing sound we can do.
  if (options_.log == nullptr) {
    report->unrepaired += bad.size();
    return Status::OK();
  }
  // Make the log tail durable: the rebuild paths replay only durable
  // records, and the identity writes must not outrank buffered ones.
  LLB_RETURN_IF_ERROR(options_.log->Force());

  // Split the damage by repair source. Source 1 is the live stable
  // database S: probe each page (after installing any newer uninstalled
  // value, so the re-copy captures the page's CURRENT image). Whatever S
  // cannot supply falls to the per-page log rebuild.
  std::vector<PageId> from_stable;
  std::vector<PageId> from_log;
  for (const PageId& id : bad) {
    bool healthy = false;
    if (options_.stable != nullptr) {
      if (options_.install_current) {
        LLB_RETURN_IF_ERROR(options_.install_current(id));
      }
      PageImage probe;
      healthy = options_.stable->ReadPage(id, &probe).ok();
    }
    (healthy ? from_stable : from_log).push_back(id);
  }

  // Re-copy S -> B in bulk runs (adjacent bad pages coalesce; scattered
  // ones become runs of 1). The fence protocol moves to run granularity:
  // per run, every page's identity write W_IP(X) is appended and forced
  // BEFORE the run is installed in B (Iw/oF — log before install), all
  // under the partition's backup latch in share mode so a concurrent
  // sweep's fences cannot move mid-repair.
  if (!from_stable.empty()) {
    TransferOptions transfer;
    transfer.transform = [this](const TransferRun& run,
                                std::vector<PageImage>* images) -> Status {
      std::vector<Lsn> lsns(images->size(), kInvalidLsn);
      for (size_t i = 0; i < images->size(); ++i) {
        PageId id{run.partition, run.first_page + static_cast<uint32_t>(i)};
        LogRecord rec = MakeIdentityWrite(id, (*images)[i]);
        options_.log->Append(&rec);
        lsns[i] = rec.lsn;
      }
      LLB_RETURN_IF_ERROR(options_.log->Force());
      // Redo of W_IP stamps the page with the record's LSN, so stamp
      // (and re-seal — the batched writer installs raw bytes) the copies
      // the same way: B and the healed S must be byte-identical to what
      // any recovery replaying these records produces.
      for (size_t i = 0; i < images->size(); ++i) {
        (*images)[i].set_lsn(lsns[i]);
        (*images)[i].Seal();
      }
      return Status::OK();
    };
    transfer.after_run = [this, report](
                             const TransferRun& run,
                             const std::vector<PageImage>& images) -> Status {
      // Heal S with the repaired images (here: just the advanced LSNs,
      // since S was the source).
      if (options_.stable != nullptr) {
        LLB_RETURN_IF_ERROR(options_.stable->WriteSealedRun(
            run.partition, run.first_page, images));
      }
      report->repaired_from_stable += images.size();
      return Status::OK();
    };
    TransferPipeline pipeline(options_.stable, store, transfer);
    TransferPlan plan;
    plan.AddPages(from_stable, kRepairBatchPages);
    for (const TransferRun& run : plan.runs()) {
      std::shared_lock<std::shared_mutex> latch;
      if (options_.coordinator != nullptr) {
        latch = std::shared_lock<std::shared_mutex>(
            options_.coordinator->Get(run.partition)->latch());
      }
      TransferPlan one;
      one.AddRun(run);
      LLB_RETURN_IF_ERROR(pipeline.Run(one));
    }
  }

  for (const PageId& id : from_log) {
    LLB_RETURN_IF_ERROR(RepairPageFromLog(store, manifest, id, report));
  }
  return Status::OK();
}

Status BackupScrubber::RepairPageFromLog(PageStore* store,
                                         const BackupManifest& manifest,
                                         const PageId& id,
                                         ScrubReport* report) {
  PageImage image;
  bool have_image = false;

  // S is bad too (or absent) — rebuild the page by media-recovery redo:
  // re-execute the partition's log history from LSN 1 onto an empty
  // scratch store. Sound only if the log still reaches back to its first
  // record.
  if (options_.registry != nullptr) {
    Lsn first = kInvalidLsn;
    Status scan = options_.log->Scan(1, [&](const LogRecord& rec) {
      first = rec.lsn;
      // Sentinel abort: one record is all we need.
      return Status::FailedPrecondition("first record found");
    });
    if (!scan.ok() && first == kInvalidLsn) return scan;
    if (first == 1) {
      const std::string scratch_prefix = manifest.name + ".scrub_scratch";
      RemoveStoreFiles(env_, scratch_prefix, manifest.partitions);
      LLB_ASSIGN_OR_RETURN(
          std::unique_ptr<PageStore> scratch,
          PageStore::Open(env_, scratch_prefix, manifest.partitions));
      PartitionId part = id.partition;
      Result<RedoReport> redo =
          RunRedoRange(*options_.log, *options_.registry, scratch.get(),
                       /*start_lsn=*/1, kInvalidLsn, &part,
                       /*use_identity_seeds=*/false);
      Status read;
      if (redo.ok()) read = scratch->ReadPage(id, &image);
      scratch.reset();
      RemoveStoreFiles(env_, scratch_prefix, manifest.partitions);
      if (!redo.ok()) return redo.status();
      if (read.ok()) have_image = true;
    }
  }

  if (!have_image) {
    ++report->unrepaired;
    return Status::OK();
  }

  // Install under the fence protocol: log the identity write W_IP(X)
  // first (Iw/oF ordering — log before install), force it, then write
  // the page into B. Any restore that rolls forward past the record
  // blind-reinstalls this image, so the repair is sound regardless of
  // which chain member held the bad page.
  {
    std::shared_lock<std::shared_mutex> latch;
    if (options_.coordinator != nullptr) {
      latch = std::shared_lock<std::shared_mutex>(
          options_.coordinator->Get(id.partition)->latch());
    }
    LogRecord rec = MakeIdentityWrite(id, image);
    options_.log->Append(&rec);
    LLB_RETURN_IF_ERROR(options_.log->Force());
    // Redo of W_IP stamps the page with the record's LSN, so stamp the
    // installed copies the same way — B (and a healed S) must be
    // byte-identical to what any recovery replaying this record produces.
    image.set_lsn(rec.lsn);
    LLB_RETURN_IF_ERROR(store->WritePage(id, image));
    // Heal S with the rebuilt image.
    if (options_.stable != nullptr) {
      LLB_RETURN_IF_ERROR(options_.stable->WritePage(id, image));
    }
  }
  ++report->repaired_from_log;
  return Status::OK();
}

Result<ScrubReport> BackupScrubber::Scrub(const std::string& backup_name) {
  // Walk the manifest chain newest -> base, then scrub base-first.
  std::vector<BackupManifest> chain;
  std::string cur = backup_name;
  while (true) {
    LLB_ASSIGN_OR_RETURN(BackupManifest m, BackupManifest::Load(env_, cur));
    if (!m.complete) {
      return Status::FailedPrecondition(
          "backup not complete (resume it first): " + cur);
    }
    const bool incremental = m.incremental;
    const std::string base = m.base_name;
    chain.push_back(std::move(m));
    if (!incremental) break;
    if (base.empty()) {
      return Status::Corruption("incremental backup without a base: " + cur);
    }
    cur = base;
  }
  std::reverse(chain.begin(), chain.end());

  for (size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].partitions != chain[0].partitions ||
        chain[i].pages_per_partition != chain[0].pages_per_partition) {
      return Status::Corruption("backup chain geometry mismatch: " +
                                chain[i].name);
    }
  }

  ScrubReport report;
  report.manifests_checked = static_cast<uint32_t>(chain.size());

  // Format-v2 frame pages pass the checksum check (frames are sealed),
  // so scrub also *decodes* every frame: a corrupt RLE body or a dedup
  // ref whose base store lost the page is page damage exactly like a
  // checksum mismatch. Repair then installs the raw rebuilt image — a
  // mixed raw/frame store is valid because format detection is per page.
  codec::FrameDecoder decoder(env_, chain[0].partitions);

  for (const BackupManifest& m : chain) {
    LLB_ASSIGN_OR_RETURN(std::unique_ptr<PageStore> store,
                         PageStore::Open(env_, m.StoreName(), m.partitions));
    // Verify pass first, collecting the damage; repair then moves whole
    // runs of adjacent bad pages at once. The scan stays per-page — its
    // granularity is checksum verification, not bulk movement.
    std::vector<PageId> bad;
    auto check = [&](const PageId& id) -> Status {
      ++report.pages_scanned;
      PageImage image;
      Status s = store->ReadPage(id, &image);
      if (s.ok() && codec::IsFrame(image)) {
        s = decoder.Decode(image, id).status();
      }
      if (s.ok()) return Status::OK();
      // Checksum mismatches, unreadable sectors, and undecodable frames
      // are page damage; anything else (e.g. bad partition id) is a
      // scrub failure.
      if (!s.IsCorruption() && !s.IsIoError() && !s.IsNotFound()) return s;
      ++report.bad_pages;
      if (options_.repair) bad.push_back(id);
      return Status::OK();
    };
    if (m.incremental) {
      for (const PageId& id : m.pages) LLB_RETURN_IF_ERROR(check(id));
    } else {
      for (PartitionId p = 0; p < m.partitions; ++p) {
        for (uint32_t page = 0; page < m.pages_per_partition; ++page) {
          LLB_RETURN_IF_ERROR(check(PageId{p, page}));
        }
      }
    }
    if (!bad.empty()) {
      LLB_RETURN_IF_ERROR(RepairManifest(store.get(), m, bad, &report));
    }
  }
  return report;
}

}  // namespace llb
