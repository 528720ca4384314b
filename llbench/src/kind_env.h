#ifndef LLBENCH_KIND_ENV_H_
#define LLBENCH_KIND_ENV_H_

// An Env decorator owned by the benchmark. It sits between the engine and
// the LatencyEnv device and classifies every File call by the kind of
// file it touches (log, stable store, backup store, ...), counting ops,
// bytes, syncs and the time spent inside the call (simulated device time
// included). While the span recorder is enabled, every File call is also
// recorded as an "io.<kind>" span.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/env.h"

namespace llbench {

enum class FileKind : int {
  kLog = 0,
  kStable,
  kBackup,
  kRbm,
  kCatalog,
  kCursor,
  kShip,
  kStandbyLog,
  kStandbyStable,
  kOther,
};
inline constexpr int kFileKinds = 10;

/// "log", "stable", ..., "standby_stable", "other".
const char* FileKindName(FileKind kind);

/// Maps an engine file name to its kind. `db` is the primary database's
/// name, `standby` the standby's (empty when there is none). Names the
/// engine derives from those (see Database::*Name, PageStore, BackupStore,
/// DurableCursor, LogShipper, FileShipChannel) are recognised by suffix;
/// DurableCursor's ".tmp" staging copy counts as the file it publishes.
FileKind ClassifyFile(const std::string& name, const std::string& db,
                      const std::string& standby);

struct KindCounters {
  uint64_t ops = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;
  uint64_t syncs = 0;
  uint64_t busy_ns = 0;

  KindCounters& operator-=(const KindCounters& o);
};

using KindSnapshot = std::array<KindCounters, kFileKinds>;

KindSnapshot operator-(KindSnapshot a, const KindSnapshot& b);

class KindEnv : public llb::Env {
 public:
  /// Does not take ownership of `base`, which must outlive this env.
  KindEnv(llb::Env* base, std::string db, std::string standby);

  llb::Result<std::shared_ptr<llb::File>> OpenFile(const std::string& name,
                                                   bool create) override;
  llb::Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) const override;
  std::vector<std::string> ListFiles() const override;
  llb::Status RenameFile(const std::string& src,
                         const std::string& dst) override;

  KindSnapshot Snapshot() const;

 private:
  friend class KindFile;

  struct AtomicCounters {
    std::atomic<uint64_t> ops{0};
    std::atomic<uint64_t> read_bytes{0};
    std::atomic<uint64_t> write_bytes{0};
    std::atomic<uint64_t> syncs{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  llb::Env* const base_;
  const std::string db_;
  const std::string standby_;
  std::array<AtomicCounters, kFileKinds> counters_;
};

}  // namespace llbench

#endif  // LLBENCH_KIND_ENV_H_
