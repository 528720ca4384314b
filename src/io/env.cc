#include "io/env.h"

#include <algorithm>
#include <cstring>

#include "io/sweep_pool.h"
#include "io/uring_env.h"

namespace llb {

namespace {
/// Thread cap for an env's shared fallback pool: beyond this, extra
/// queue depth (or streams) just queues inside the pool instead of
/// adding threads.
constexpr uint32_t kMaxFallbackAsyncThreads = 16;
}  // namespace

File::~File() = default;

Status File::ReadAtv(uint64_t offset,
                     const std::vector<IoBuffer>& chunks) const {
  for (const IoBuffer& chunk : chunks) {
    if (chunk.size == 0) continue;
    std::string tmp;
    tmp.reserve(chunk.size);
    LLB_RETURN_IF_ERROR(ReadAt(offset, chunk.size, &tmp));
    std::memcpy(chunk.data, tmp.data(), tmp.size());
    if (tmp.size() < chunk.size) {
      std::memset(chunk.data + tmp.size(), 0, chunk.size - tmp.size());
    }
    offset += chunk.size;
  }
  return Status::OK();
}

Status File::WriteAtv(uint64_t offset, const std::vector<Slice>& chunks) {
  for (const Slice& chunk : chunks) {
    LLB_RETURN_IF_ERROR(WriteAt(offset, chunk));
    offset += chunk.size();
  }
  return Status::OK();
}
FaultInjector::~FaultInjector() = default;
Env::~Env() = default;

Result<std::shared_ptr<AsyncFile>> Env::OpenAsync(const std::string& name,
                                                  bool create,
                                                  const AsyncIoOptions& options) {
  uint32_t depth = std::max<uint32_t>(1, options.queue_depth);
  uint32_t streams = std::max<uint32_t>(1, options.streams);
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> file, OpenFile(name, create));
  // Depth 1 has nothing to overlap: no pool, ops complete inline.
  return {NewThreadPoolAsyncFile(
      std::move(file), depth,
      depth > 1 ? FallbackAsyncPool(depth * streams) : nullptr)};
}

std::shared_ptr<SweepThreadPool> Env::FallbackAsyncPool(uint32_t threads) {
  std::lock_guard<std::mutex> lock(async_pool_mu_);
  if (async_pool_ == nullptr) {
    async_pool_ = std::make_shared<SweepThreadPool>();
  }
  async_pool_->Grow(
      std::min<uint32_t>(std::max<uint32_t>(1, threads),
                         kMaxFallbackAsyncThreads));
  return async_pool_;
}

Status Env::RenameFile(const std::string& src, const std::string& dst) {
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> from,
                       OpenFile(src, /*create=*/false));
  LLB_ASSIGN_OR_RETURN(uint64_t size, from->Size());
  std::string contents;
  LLB_RETURN_IF_ERROR(from->ReadAt(0, size, &contents));
  LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> to,
                       OpenFile(dst, /*create=*/true));
  LLB_RETURN_IF_ERROR(to->Truncate(0));
  LLB_RETURN_IF_ERROR(to->WriteAt(0, Slice(contents)));
  LLB_RETURN_IF_ERROR(to->Sync());
  return DeleteFile(src);
}

}  // namespace llb
