#include "io/mem_env.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

namespace llb {

namespace {

/// A file's bytes in fixed-size blocks. Growing a file never copies what
/// it already holds: one contiguous string re-copies the whole file each
/// time it outgrows its capacity, so an active log file fed large group
/// commits paid a ~16 MiB copy (and as many fresh pages) on the commit
/// that took it past 16 MiB, just before it rolled.
class BlockBytes {
 public:
  static constexpr size_t kBlock = size_t{1} << 20;

  size_t size() const { return size_; }

  /// Grows with zeros or shrinks to n bytes.
  void Resize(size_t n) {
    while (size_ < n) {
      if (blocks_.empty() || blocks_.back().size() == kBlock) {
        blocks_.emplace_back();
      }
      std::string& last = blocks_.back();
      const size_t grow = std::min(kBlock - last.size(), n - size_);
      last.resize(last.size() + grow, '\0');
      size_ += grow;
    }
    while (size_ > n) {
      std::string& last = blocks_.back();
      const size_t cut = std::min(last.size(), size_ - n);
      last.resize(last.size() - cut);
      size_ -= cut;
      if (last.empty()) blocks_.pop_back();
    }
  }

  /// Copies [offset, offset + n), which must lie inside the file, to dst.
  void Read(uint64_t offset, char* dst, size_t n) const {
    ForEachPiece(offset, n, [&](size_t b, size_t at, size_t len) {
      std::memcpy(dst, blocks_[b].data() + at, len);
      dst += len;
    });
  }

  /// Overwrites [offset, offset + n), which must lie inside the file.
  void Write(uint64_t offset, const char* src, size_t n) {
    ForEachPiece(offset, n, [&](size_t b, size_t at, size_t len) {
      std::memcpy(blocks_[b].data() + at, src, len);
      src += len;
    });
  }

  std::string Substr(uint64_t offset, size_t n) const {
    std::string out(n, '\0');
    Read(offset, out.data(), n);
    return out;
  }

  /// Moves every block out, first block first, leaving the file empty.
  std::vector<std::string> TakeBlocks() {
    std::vector<std::string> out = std::move(blocks_);
    blocks_.clear();
    size_ = 0;
    return out;
  }

 private:
  template <typename Fn>
  void ForEachPiece(uint64_t offset, size_t n, Fn&& fn) const {
    while (n > 0) {
      const size_t b = static_cast<size_t>(offset / kBlock);
      const size_t at = static_cast<size_t>(offset % kBlock);
      const size_t len = std::min(n, kBlock - at);
      fn(b, at, len);
      offset += len;
      n -= len;
    }
  }

  std::vector<std::string> blocks_;  // all but the last hold kBlock bytes
  size_t size_ = 0;
};

}  // namespace

/// A file in MemEnv. Thread-safe: the env mutex guards all file state
/// (files are few and operations short; a single lock keeps the crash
/// transition atomic with respect to in-flight IO).
class MemFile : public File {
 public:
  explicit MemFile(MemEnv* env) : env_(env) {}

  Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    if (offset >= data_.size()) return Status::OK();
    size_t avail = std::min<uint64_t>(n, data_.size() - offset);
    const size_t at = out->size();
    out->resize(at + avail);
    data_.Read(offset, out->data() + at, avail);
    return Status::OK();
  }

  Status ReadAtv(uint64_t offset,
                 const std::vector<IoBuffer>& chunks) const override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    for (const IoBuffer& chunk : chunks) {
      size_t avail = offset < data_.size()
                         ? std::min<uint64_t>(chunk.size, data_.size() - offset)
                         : 0;
      if (avail > 0) data_.Read(offset, chunk.data, avail);
      if (avail < chunk.size) {
        std::memset(chunk.data + avail, 0, chunk.size - avail);
      }
      offset += chunk.size;
    }
    return Status::OK();
  }

  Status WriteAt(uint64_t offset, Slice data) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    SaveUndo(offset, data.size());
    if (offset + data.size() > data_.size()) {
      data_.Resize(offset + data.size());
    }
    data_.Write(offset, data.data(), data.size());
    return Status::OK();
  }

  Status WriteAtv(uint64_t offset,
                  const std::vector<Slice>& chunks) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    size_t total = 0;
    for (const Slice& chunk : chunks) total += chunk.size();
    if (total == 0) return Status::OK();
    SaveUndo(offset, total);
    if (offset + total > data_.size()) data_.Resize(offset + total);
    for (const Slice& chunk : chunks) {
      data_.Write(offset, chunk.data(), chunk.size());
      offset += chunk.size();
    }
    return Status::OK();
  }

  Status Append(Slice data) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    const uint64_t offset = data_.size();
    SaveUndo(offset, data.size());
    data_.Resize(offset + data.size());
    data_.Write(offset, data.data(), data.size());
    return Status::OK();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    uint64_t delta =
        data_.size() >= durable_size_ ? data_.size() - durable_size_ : 0;
    if (!env_->BeginDurableEvent(delta)) {
      return Status::IoError("simulated device failure at sync");
    }
    // The volatile contents become the durable ones: drop the undo images.
    durable_size_ = data_.size();
    undo_.clear();
    return Status::OK();
  }

  Result<uint64_t> Size() const override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    return uint64_t{data_.size()};
  }

  Status Truncate(uint64_t size) override {
    std::lock_guard<std::mutex> lock(env_->mu_);
    if (!env_->IoAllowed()) return Status::IoError("simulated device failure");
    if (size == 0) {
      // Truncating to empty (a wiped partition, a log file cut back to
      // nothing): move the durable bytes into undo images instead of
      // copying them.
      data_.Resize(std::min<uint64_t>(data_.size(), durable_size_));
      uint64_t offset = 0;
      for (std::string& block : data_.TakeBlocks()) {
        const uint64_t length = block.size();
        undo_.push_back(Undo{offset, std::move(block)});
        offset += length;
      }
      return Status::OK();
    }
    if (size < data_.size()) SaveUndo(size, data_.size() - size);
    data_.Resize(size);
    return Status::OK();
  }

 private:
  friend class MemEnv;

  // mu_ held by callers. Before bytes [offset, offset + length) change,
  // saves those of them that lie below the durable size and are still in
  // data_ (durable bytes past data_.size() were cut by a Truncate, which
  // saved them then). The oldest image of a byte holds its durable value.
  void SaveUndo(uint64_t offset, uint64_t length) {
    const uint64_t end = std::min<uint64_t>(
        offset + length, std::min<uint64_t>(durable_size_, data_.size()));
    if (offset >= end) return;
    undo_.push_back(Undo{offset, data_.Substr(offset, end - offset)});
  }

  void OnCrashRestart() {
    // Undo images restored newest first leave every durable byte as the
    // last sync saw it; anything past the durable size was never synced.
    data_.Resize(std::max<uint64_t>(data_.size(), durable_size_));
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      data_.Write(it->offset, it->bytes.data(), it->bytes.size());
    }
    data_.Resize(durable_size_);
    undo_.clear();
  }

  // The file holds one copy of its contents: the durable state is
  // data_'s first durable_size_ bytes with the undo images laid back over
  // them, newest last. Appends past the durable size need no image.
  struct Undo {
    uint64_t offset;
    std::string bytes;  // durable contents before an unsynced change
  };
  MemEnv* const env_;
  BlockBytes data_;            // volatile contents
  uint64_t durable_size_ = 0;  // file size at the last sync
  std::vector<Undo> undo_;     // since the last sync, oldest first
};

Result<std::shared_ptr<File>> MemEnv::OpenFile(const std::string& name,
                                               bool create) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it != files_.end()) return std::shared_ptr<File>(it->second);
  if (!create) return Status::NotFound("no such file: " + name);
  auto file = std::make_shared<MemFile>(this);
  files_[name] = file;
  return std::shared_ptr<File>(file);
}

Status MemEnv::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  files_.erase(it);
  return Status::OK();
}

Status MemEnv::RenameFile(const std::string& src, const std::string& dst) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!IoAllowed()) return Status::IoError("simulated device failure");
  auto it = files_.find(src);
  if (it == files_.end()) return Status::NotFound("no such file: " + src);
  files_[dst] = it->second;
  files_.erase(src);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(name) > 0;
}

std::vector<std::string> MemEnv::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) names.push_back(name);
  return names;
}

void MemEnv::SetFaultInjector(FaultInjector* injector) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_ = injector;
}

void MemEnv::CrashAndRestart() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, file] : files_) {
    file->OnCrashRestart();
  }
  blocked_ = false;
  injector_ = nullptr;
}

uint64_t MemEnv::durable_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_events_;
}

uint64_t MemEnv::bytes_synced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_synced_;
}

bool MemEnv::io_blocked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocked_;
}

bool MemEnv::BeginDurableEvent(uint64_t bytes) {
  // mu_ held by caller (file method).
  if (injector_ != nullptr && !injector_->AllowDurableEvent()) {
    blocked_ = true;
    return false;
  }
  ++durable_events_;
  bytes_synced_ += bytes;
  return true;
}

bool MemEnv::IoAllowed() const { return !blocked_; }

}  // namespace llb
