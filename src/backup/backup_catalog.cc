#include "backup/backup_catalog.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/coding.h"
#include "io/durable_cursor.h"

namespace llb {

namespace {
constexpr uint32_t kCatalogMagic = 0x4C4C4247u;  // "LLBG"
constexpr uint32_t kCatalogVersion = 1;

/// Chain walks are bounded by the longest legal backup chain; anything
/// longer is a cycle from a corrupted catalog.
constexpr int kMaxChainDepth = 64;
}  // namespace

const char* BackupStateName(BackupState state) {
  switch (state) {
    case BackupState::kCreating:
      return "CREATING";
    case BackupState::kComplete:
      return "COMPLETE";
    case BackupState::kCancelled:
      return "CANCELLED";
    case BackupState::kPruned:
      return "PRUNED";
  }
  return "UNKNOWN";
}

Status BackupCatalog::Save() {
  std::string blob;
  PutFixed32(&blob, kCatalogMagic);
  PutFixed32(&blob, kCatalogVersion);
  PutFixed64(&blob, next_id_);
  PutVarint64(&blob, gens_.size());
  for (const BackupGeneration& g : gens_) {
    PutFixed64(&blob, g.id);
    PutLengthPrefixed(&blob, Slice(g.name));
    blob.push_back(static_cast<char>(g.state));
    blob.push_back(g.incremental ? '\1' : '\0');
    PutFixed64(&blob, g.base_id);
    PutLengthPrefixed(&blob, Slice(g.base_name));
    PutLengthPrefixed(&blob, Slice(g.dedup_base));
    PutFixed64(&blob, g.start_lsn);
    PutFixed64(&blob, g.end_lsn);
    blob.push_back(static_cast<char>(g.format));
    PutFixed64(&blob, g.raw_bytes);
    PutFixed64(&blob, g.stored_bytes);
  }
  return DurableCursor::Save(env_, file_name_, Slice(blob));
}

Result<BackupCatalog> BackupCatalog::Open(Env* env, std::string file_name) {
  BackupCatalog catalog(env, std::move(file_name));
  Result<std::string> cell = DurableCursor::Load(env, catalog.file_name_);
  if (!cell.ok()) {
    if (cell.status().IsNotFound()) return catalog;  // never created
    return cell.status();
  }
  SliceReader reader{Slice(cell.value())};
  uint32_t magic = 0, version = 0;
  uint64_t count = 0;
  if (!reader.ReadFixed32(&magic) || magic != kCatalogMagic ||
      !reader.ReadFixed32(&version) || version != kCatalogVersion ||
      !reader.ReadFixed64(&catalog.next_id_) || !reader.ReadVarint64(&count)) {
    return Status::Corruption("malformed backup catalog");
  }
  catalog.gens_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    BackupGeneration g;
    Slice name, base_name, dedup_base, state, incremental, format;
    if (!reader.ReadFixed64(&g.id) || !reader.ReadLengthPrefixed(&name) ||
        !reader.ReadBytes(1, &state) || !reader.ReadBytes(1, &incremental) ||
        !reader.ReadFixed64(&g.base_id) ||
        !reader.ReadLengthPrefixed(&base_name) ||
        !reader.ReadLengthPrefixed(&dedup_base) ||
        !reader.ReadFixed64(&g.start_lsn) || !reader.ReadFixed64(&g.end_lsn) ||
        !reader.ReadBytes(1, &format) || !reader.ReadFixed64(&g.raw_bytes) ||
        !reader.ReadFixed64(&g.stored_bytes)) {
      return Status::Corruption("malformed backup catalog entry");
    }
    g.name = name.ToString();
    g.state = static_cast<BackupState>(state[0]);
    g.incremental = incremental[0] != '\0';
    g.base_name = base_name.ToString();
    g.dedup_base = dedup_base.ToString();
    g.format = static_cast<uint8_t>(format[0]);
    catalog.gens_.push_back(std::move(g));
  }
  return catalog;
}

const BackupGeneration* BackupCatalog::Find(const std::string& name) const {
  for (const BackupGeneration& g : gens_) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

BackupGeneration* BackupCatalog::FindMutable(const std::string& name) {
  for (BackupGeneration& g : gens_) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const BackupGeneration* BackupCatalog::Latest() const {
  const BackupGeneration* latest = nullptr;
  for (const BackupGeneration& g : gens_) {
    if (g.state != BackupState::kComplete) continue;
    if (latest == nullptr || g.id > latest->id) latest = &g;
  }
  return latest;
}

Result<uint64_t> BackupCatalog::Begin(const std::string& name,
                                      bool incremental,
                                      const std::string& base_name,
                                      const std::string& dedup_base,
                                      Lsn start_lsn, uint8_t format) {
  if (incremental) {
    if (base_name.empty()) {
      return Status::InvalidArgument("incremental generation needs a base");
    }
    // A base the catalog has never heard of is a pre-catalog backup
    // upgrading in place — allowed. A known base must be COMPLETE.
    const BackupGeneration* base = Find(base_name);
    if (base != nullptr && base->state != BackupState::kComplete) {
      return Status::FailedPrecondition(
          "incremental base is not a complete generation: " + base_name);
    }
  }
  // A same-name generation is being overwritten on disk: supersede it.
  gens_.erase(std::remove_if(gens_.begin(), gens_.end(),
                             [&](const BackupGeneration& g) {
                               return g.name == name;
                             }),
              gens_.end());
  BackupGeneration g;
  g.id = next_id_++;
  g.name = name;
  g.state = BackupState::kCreating;
  g.incremental = incremental;
  g.base_name = base_name;
  if (const BackupGeneration* base = Find(base_name)) g.base_id = base->id;
  g.dedup_base = dedup_base;
  g.start_lsn = start_lsn;
  g.format = format;
  gens_.push_back(std::move(g));
  Status saved = Save();
  if (!saved.ok()) {
    gens_.pop_back();
    --next_id_;
    return saved;
  }
  return gens_.back().id;
}

Status BackupCatalog::Complete(const std::string& name, Lsn end_lsn,
                               uint64_t raw_bytes, uint64_t stored_bytes) {
  BackupGeneration* g = FindMutable(name);
  if (g == nullptr) {
    return Status::NotFound("no catalog entry for backup: " + name);
  }
  if (g->state != BackupState::kCreating) {
    return Status::FailedPrecondition("backup not in CREATING state: " + name);
  }
  BackupGeneration before = *g;
  g->state = BackupState::kComplete;
  g->end_lsn = end_lsn;
  g->raw_bytes = raw_bytes;
  g->stored_bytes = stored_bytes;
  Status saved = Save();
  if (!saved.ok()) *g = before;
  return saved;
}

Status BackupCatalog::Cancel(const std::string& name) {
  BackupGeneration* g = FindMutable(name);
  if (g == nullptr) {
    return Status::NotFound("no catalog entry for backup: " + name);
  }
  if (g->state != BackupState::kCreating) {
    return Status::FailedPrecondition("backup not in CREATING state: " + name);
  }
  g->state = BackupState::kCancelled;
  Status saved = Save();
  if (!saved.ok()) g->state = BackupState::kCreating;
  return saved;
}

Result<std::vector<std::string>> BackupCatalog::RestoreChain(
    const std::string& name) const {
  const BackupGeneration* g = name.empty() ? Latest() : Find(name);
  if (g == nullptr) {
    return Status::NotFound("no restorable generation" +
                            (name.empty() ? std::string()
                                          : std::string(": ") + name));
  }
  std::vector<std::string> chain;
  for (int depth = 0; depth < kMaxChainDepth; ++depth) {
    if (g->state != BackupState::kComplete) {
      return Status::FailedPrecondition("chain link " + g->name +
                                        " is not restorable (" +
                                        BackupStateName(g->state) + ")");
    }
    chain.push_back(g->name);
    if (!g->incremental) {
      std::reverse(chain.begin(), chain.end());
      return chain;
    }
    g = Find(g->base_name);
    if (g == nullptr) {
      return Status::Corruption("chain link missing from catalog: " +
                                chain.back());
    }
  }
  return Status::Corruption("backup chain too deep (cycle?)");
}

Result<std::vector<std::string>> BackupCatalog::Prune(
    const BackupRetentionPolicy& policy,
    const std::vector<std::string>& pinned) {
  std::map<std::string, const BackupGeneration*> by_name;
  for (const BackupGeneration& g : gens_) by_name[g.name] = &g;

  // Protection closure: a protected generation protects its chain base
  // and its dedup target, transitively.
  std::set<std::string> keep;
  std::function<void(const std::string&, int)> protect =
      [&](const std::string& name, int depth) {
        if (name.empty() || depth > kMaxChainDepth) return;
        auto it = by_name.find(name);
        if (it == by_name.end()) return;
        if (!keep.insert(name).second) return;
        protect(it->second->base_name, depth + 1);
        protect(it->second->dedup_base, depth + 1);
      };

  // In-flight sweeps and pinned (in-flight restore) generations stay.
  for (const BackupGeneration& g : gens_) {
    if (g.state == BackupState::kCreating) protect(g.name, 0);
  }
  for (const std::string& name : pinned) protect(name, 0);

  // The newest keep_chains complete fulls stay, with every complete
  // incremental whose chain roots at one of them.
  std::vector<const BackupGeneration*> fulls;
  for (const BackupGeneration& g : gens_) {
    if (g.state == BackupState::kComplete && !g.incremental) {
      fulls.push_back(&g);
    }
  }
  std::sort(fulls.begin(), fulls.end(),
            [](const BackupGeneration* a, const BackupGeneration* b) {
              return a->id > b->id;
            });
  std::set<std::string> kept_fulls;
  for (size_t i = 0; i < fulls.size() && i < policy.keep_chains; ++i) {
    kept_fulls.insert(fulls[i]->name);
  }
  for (const BackupGeneration& g : gens_) {
    if (g.state != BackupState::kComplete) continue;
    const BackupGeneration* root = &g;
    for (int depth = 0; root != nullptr && root->incremental &&
                        depth < kMaxChainDepth;
         ++depth) {
      auto it = by_name.find(root->base_name);
      root = it == by_name.end() ? nullptr : it->second;
    }
    if (root != nullptr && kept_fulls.count(root->name) != 0) {
      protect(g.name, 0);
    }
    if (policy.keep_end_lsn_from != kInvalidLsn &&
        g.end_lsn >= policy.keep_end_lsn_from) {
      protect(g.name, 0);
    }
  }

  // Durably mark the victims PRUNED before touching any file: after a
  // crash anywhere past this Save, the deletions below are re-swept by
  // the next Prune; before it, everything is still COMPLETE on disk.
  std::vector<std::string> newly_pruned;
  for (BackupGeneration& g : gens_) {
    if (g.state == BackupState::kComplete && keep.count(g.name) == 0) {
      g.state = BackupState::kPruned;
      newly_pruned.push_back(g.name);
    }
  }
  if (!newly_pruned.empty()) {
    Status saved = Save();
    if (!saved.ok()) {
      for (const std::string& name : newly_pruned) {
        FindMutable(name)->state = BackupState::kComplete;
      }
      return saved;
    }
  }

  // Delete the files of every PRUNED or CANCELLED generation — including
  // tombstones from an earlier crash between mark and delete. Every file
  // of a generation is "<name>."-prefixed (manifest, cursor, pages.pN),
  // and the dot keeps "bk1" from matching "bk10".
  for (const BackupGeneration& g : gens_) {
    if (g.state != BackupState::kPruned && g.state != BackupState::kCancelled) {
      continue;
    }
    if (keep.count(g.name) != 0) continue;  // belt and braces
    const std::string prefix = g.name + ".";
    for (const std::string& file : env_->ListFiles()) {
      if (file.compare(0, prefix.size(), prefix) == 0) {
        LLB_RETURN_IF_ERROR(env_->DeleteFile(file));
      }
    }
  }
  return newly_pruned;
}

}  // namespace llb
