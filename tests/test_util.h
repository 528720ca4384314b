#ifndef LLB_TESTS_TEST_UTIL_H_
#define LLB_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "io/env.h"
#include "sim/oracle.h"

#define ASSERT_OK(expr)                                     \
  do {                                                      \
    ::llb::Status _s = (expr);                              \
    ASSERT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

#define EXPECT_OK(expr)                                     \
  do {                                                      \
    ::llb::Status _s = (expr);                              \
    EXPECT_TRUE(_s.ok()) << _s.ToString();                  \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, expr)                     \
  auto LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__) = (expr);    \
  ASSERT_TRUE(LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__).ok()) \
      << LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__).status().ToString(); \
  lhs = std::move(LLB_ASSIGN_OR_RETURN_NAME(_r, __LINE__)).value()

// Oracle helpers (BuildOracle / DiffStores) live in sim/oracle.h so the
// benchmarks can use them without a gtest dependency.

namespace llb {

/// An env over `base` whose file named `gated` parks the first Sync after
/// Arm() until Open(), with no lock held, so other threads' IO on the
/// same file (later syncs included) runs meanwhile.
class SyncGateEnv : public Env {
 public:
  SyncGateEnv(Env* base, std::string gated)
      : base_(base), gated_(std::move(gated)) {}

  Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override {
    LLB_ASSIGN_OR_RETURN(std::shared_ptr<File> file,
                         base_->OpenFile(name, create));
    if (name != gated_) return file;
    return std::shared_ptr<File>(std::make_shared<GatedFile>(this, file));
  }
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }
  std::vector<std::string> ListFiles() const override {
    return base_->ListFiles();
  }

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
    open_ = false;
  }
  void WaitParked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return parked_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = false;
    open_ = true;
    cv_.notify_all();
  }

 private:
  class GatedFile : public File {
   public:
    GatedFile(SyncGateEnv* env, std::shared_ptr<File> base)
        : env_(env), base_(std::move(base)) {}
    Status ReadAt(uint64_t offset, size_t n, std::string* out) const override {
      return base_->ReadAt(offset, n, out);
    }
    Status ReadAtv(uint64_t offset,
                   const std::vector<IoBuffer>& chunks) const override {
      return base_->ReadAtv(offset, chunks);
    }
    Status WriteAt(uint64_t offset, Slice data) override {
      return base_->WriteAt(offset, data);
    }
    Status WriteAtv(uint64_t offset,
                    const std::vector<Slice>& chunks) override {
      return base_->WriteAtv(offset, chunks);
    }
    Status Append(Slice data) override { return base_->Append(data); }
    Status Sync() override {
      {
        std::unique_lock<std::mutex> lock(env_->mu_);
        if (env_->armed_) {
          env_->armed_ = false;
          env_->parked_ = true;
          env_->cv_.notify_all();
          env_->cv_.wait(lock, [this] { return env_->open_; });
        }
      }
      return base_->Sync();
    }
    Result<uint64_t> Size() const override { return base_->Size(); }
    Status Truncate(uint64_t size) override { return base_->Truncate(size); }

   private:
    SyncGateEnv* const env_;
    const std::shared_ptr<File> base_;
  };

  Env* const base_;
  const std::string gated_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;  // the next Sync parks
  bool open_ = false;
  bool parked_ = false;
};

}  // namespace llb

#endif  // LLB_TESTS_TEST_UTIL_H_
