#ifndef LLB_BENCH_BENCH_UTIL_H_
#define LLB_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "filestore/filestore.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "sim/harness.h"

namespace llb::benchutil {

/// Benchmarks abort on unexpected engine errors.
inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    fprintf(stderr, "FATAL (%s): %s\n", what, status.ToString().c_str());
    abort();
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  if (!result.ok()) {
    fprintf(stderr, "FATAL (%s): %s\n", what,
            result.status().ToString().c_str());
    abort();
  }
  return std::move(result).value();
}

inline void PrintHeader(const std::string& title) {
  printf("\n== %s ==\n", title.c_str());
}

/// The benches' engine: database `name` opened over `base` (a fresh
/// MemEnv unless given), every domain's ops registered, crash recovery
/// run, and seeded: partition p is one FileStore of one-page files, one
/// per page, file f holding {p * 1000 + f, 1}, then flushed and
/// checkpointed. With a `profile`, env() is a LatencyEnv over the base.
/// The seed still runs on the base env, since loading thousands of
/// pages through a simulated device would dominate setup, and setup is
/// not the measurement; Reopen() moves the database onto env().
class BenchEngine {
 public:
  BenchEngine(std::string name, const DbOptions& options,
              std::optional<LatencyProfile> profile = std::nullopt,
              std::unique_ptr<Env> base = std::make_unique<MemEnv>())
      : name_(std::move(name)), options_(options), base_(std::move(base)) {
    if (profile) latency_.emplace(base_.get(), *profile);
    Open(base_.get());
    for (PartitionId p = 0; p < options_.partitions; ++p) {
      for (uint32_t f = 0; f < options_.pages_per_partition; ++f) {
        Check(files_[p]->WriteValues(
                  f, {static_cast<int64_t>(p) * 1000 + f, 1}),
              "seed");
      }
    }
    Check(db_->FlushAll(), "flush");
    Check(db_->Checkpoint(), "checkpoint");
  }

  BenchEngine(const BenchEngine&) = delete;
  BenchEngine& operator=(const BenchEngine&) = delete;

  Env* base() { return base_.get(); }
  /// The LatencyEnv over base() when a profile was given, else base().
  Env* env() { return latency_ ? &*latency_ : base_.get(); }
  LatencyEnv* latency() { return latency_ ? &*latency_ : nullptr; }
  Database* db() { return db_.get(); }
  FileStore* files(PartitionId p) { return files_[p].get(); }

  /// Closes the database and opens it again over env().
  void Reopen() {
    Close();
    Open(env());
  }

  /// Closes the database, e.g. before an off-line restore.
  void Close() {
    files_.clear();
    db_.reset();
  }

  /// Wipes every partition of S through base(): the media failure the
  /// restore benches recover from.
  void WipeStable() {
    std::unique_ptr<PageStore> stable =
        CheckResult(PageStore::Open(base(), Database::StableName(name_),
                                    options_.partitions),
                    "open S");
    for (PartitionId p = 0; p < options_.partitions; ++p) {
      Check(stable->WipePartition(p), "wipe");
    }
  }

 private:
  void Open(Env* env) {
    db_ = CheckResult(Database::Open(env, name_, options_), "open");
    RegisterAllOps(db_->registry());
    Check(db_->Recover(), "recover");
    for (PartitionId p = 0; p < options_.partitions; ++p) {
      files_.push_back(std::make_unique<FileStore>(
          db_.get(), p, /*base_page=*/0, /*pages_per_file=*/1,
          /*num_files=*/options_.pages_per_partition));
    }
  }

  const std::string name_;
  const DbOptions options_;
  std::unique_ptr<Env> base_;
  std::optional<LatencyEnv> latency_;
  std::unique_ptr<Database> db_;
  std::vector<std::unique_ptr<FileStore>> files_;
};

}  // namespace llb::benchutil

#endif  // LLB_BENCH_BENCH_UTIL_H_
