#include "kind_env.h"

#include <utility>

#include "trace.h"

namespace llbench {

namespace {

constexpr const char* kKindNames[kFileKinds] = {
    "log",     "stable", "backup",      "rbm",            "catalog",
    "cursor",  "ship",   "standby_log", "standby_stable", "other",
};

constexpr const char* kSpanNames[kFileKinds] = {
    "io.log",     "io.stable", "io.backup",      "io.rbm",
    "io.catalog", "io.cursor", "io.ship",        "io.standby_log",
    "io.standby_stable",       "io.other",
};

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

const char* FileKindName(FileKind kind) {
  return kKindNames[static_cast<int>(kind)];
}

FileKind ClassifyFile(const std::string& raw_name, const std::string& db,
                      const std::string& standby) {
  std::string name = raw_name;
  if (EndsWith(name, ".tmp")) name.resize(name.size() - 4);

  if (!standby.empty() && StartsWith(name, standby + ".")) {
    if (name == standby + ".log") return FileKind::kStandbyLog;
    if (StartsWith(name, standby + ".stable.")) {
      return FileKind::kStandbyStable;
    }
    return FileKind::kCursor;  // role file
  }
  if (name == db + ".log") return FileKind::kLog;
  if (StartsWith(name, db + ".stable.")) return FileKind::kStable;
  if (name == db + ".rbm") return FileKind::kRbm;
  if (name == db + ".bkcatalog") return FileKind::kCatalog;
  if (name == db + ".shipcursor") return FileKind::kShip;
  if (StartsWith(name, db + ".spool.f")) return FileKind::kShip;
  if (name == db + ".role") return FileKind::kCursor;
  if (EndsWith(name, ".cursor")) return FileKind::kCursor;
  if (name.find(".pages.") != std::string::npos ||
      EndsWith(name, ".manifest") ||
      name.find(".scrub_scratch") != std::string::npos) {
    return FileKind::kBackup;
  }
  return FileKind::kOther;
}

KindCounters& KindCounters::operator-=(const KindCounters& o) {
  ops -= o.ops;
  read_bytes -= o.read_bytes;
  write_bytes -= o.write_bytes;
  syncs -= o.syncs;
  busy_ns -= o.busy_ns;
  return *this;
}

KindSnapshot operator-(KindSnapshot a, const KindSnapshot& b) {
  for (int k = 0; k < kFileKinds; ++k) a[k] -= b[k];
  return a;
}

/// Forwards to the device file, timing and counting each call.
class KindFile : public llb::File {
 public:
  KindFile(KindEnv* env, FileKind kind, std::shared_ptr<llb::File> base)
      : counters_(&env->counters_[static_cast<int>(kind)]),
        span_name_(kSpanNames[static_cast<int>(kind)]),
        base_(std::move(base)) {}

  llb::Status ReadAt(uint64_t offset, size_t n,
                     std::string* out) const override {
    Call call(this, n, 0);
    return base_->ReadAt(offset, n, out);
  }

  llb::Status ReadAtv(uint64_t offset,
                      const std::vector<llb::IoBuffer>& chunks) const override {
    size_t total = 0;
    for (const llb::IoBuffer& chunk : chunks) total += chunk.size;
    Call call(this, total, 0);
    return base_->ReadAtv(offset, chunks);
  }

  llb::Status WriteAt(uint64_t offset, llb::Slice data) override {
    Call call(this, 0, data.size());
    return base_->WriteAt(offset, data);
  }

  llb::Status WriteAtv(uint64_t offset,
                       const std::vector<llb::Slice>& chunks) override {
    size_t total = 0;
    for (const llb::Slice& chunk : chunks) total += chunk.size();
    Call call(this, 0, total);
    return base_->WriteAtv(offset, chunks);
  }

  llb::Status Append(llb::Slice data) override {
    Call call(this, 0, data.size());
    return base_->Append(data);
  }

  llb::Status Sync() override {
    Call call(this, 0, 0, /*sync=*/true);
    return base_->Sync();
  }

  llb::Result<uint64_t> Size() const override { return base_->Size(); }

  llb::Status Truncate(uint64_t size) override { return base_->Truncate(size); }

 private:
  /// Times one forwarded call and records it as an io span.
  class Call {
   public:
    Call(const KindFile* file, uint64_t read_bytes, uint64_t write_bytes,
         bool sync = false)
        : file_(file),
          span_(SpanRecorder::Get().Begin(file->span_name_)),
          start_ns_(NowNs()) {
      auto* c = file_->counters_;
      (sync ? c->syncs : c->ops).fetch_add(1, std::memory_order_relaxed);
      c->read_bytes.fetch_add(read_bytes, std::memory_order_relaxed);
      c->write_bytes.fetch_add(write_bytes, std::memory_order_relaxed);
    }
    ~Call() {
      file_->counters_->busy_ns.fetch_add(
          static_cast<uint64_t>(NowNs() - start_ns_),
          std::memory_order_relaxed);
      SpanRecorder::Get().End(span_);
    }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    const KindFile* file_;
    uint64_t span_;
    int64_t start_ns_;
  };

  KindEnv::AtomicCounters* const counters_;
  const char* const span_name_;
  const std::shared_ptr<llb::File> base_;
};

KindEnv::KindEnv(llb::Env* base, std::string db, std::string standby)
    : base_(base), db_(std::move(db)), standby_(std::move(standby)) {}

llb::Result<std::shared_ptr<llb::File>> KindEnv::OpenFile(
    const std::string& name, bool create) {
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<llb::File> base,
                       base_->OpenFile(name, create));
  FileKind kind = ClassifyFile(name, db_, standby_);
  return std::shared_ptr<llb::File>(
      std::make_shared<KindFile>(this, kind, std::move(base)));
}

llb::Status KindEnv::DeleteFile(const std::string& name) {
  return base_->DeleteFile(name);
}

bool KindEnv::FileExists(const std::string& name) const {
  return base_->FileExists(name);
}

std::vector<std::string> KindEnv::ListFiles() const {
  return base_->ListFiles();
}

llb::Status KindEnv::RenameFile(const std::string& src,
                                const std::string& dst) {
  return base_->RenameFile(src, dst);
}

KindSnapshot KindEnv::Snapshot() const {
  KindSnapshot out;
  for (int k = 0; k < kFileKinds; ++k) {
    const AtomicCounters& c = counters_[k];
    out[k].ops = c.ops.load(std::memory_order_relaxed);
    out[k].read_bytes = c.read_bytes.load(std::memory_order_relaxed);
    out[k].write_bytes = c.write_bytes.load(std::memory_order_relaxed);
    out[k].syncs = c.syncs.load(std::memory_order_relaxed);
    out[k].busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  }
  return out;
}

}  // namespace llbench
