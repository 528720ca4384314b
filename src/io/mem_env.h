#ifndef LLB_IO_MEM_ENV_H_
#define LLB_IO_MEM_ENV_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.h"

namespace llb {

class MemFile;

/// In-memory environment with an explicit durable/volatile split and
/// deterministic crash simulation:
///
///  * each file keeps one copy of its volatile contents plus undo images
///    of the durable bytes changed since the last sync (appends past the
///    synced size need none), so a sync only drops the images and a
///    file costs its size in memory, not twice it. The contents sit in
///    1 MiB blocks, so a growing file never re-copies what it holds;
///  * `CrashAndRestart()` reverts every file to its durable snapshot,
///    simulating loss of all unflushed state;
///  * an optional FaultInjector can veto durability events, after which
///    the whole env rejects IO until CrashAndRestart — this is how the
///    recovery property tests sweep "crash after the k-th stable write".
class MemEnv : public Env {
 public:
  MemEnv() = default;

  Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override;
  Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) const override;
  std::vector<std::string> ListFiles() const override;

  /// Atomic namespace move. Like DeleteFile, the namespace change itself
  /// is immediate and survives CrashAndRestart (the map is the durable
  /// directory); the file's durable/volatile content split moves with it.
  /// Not a durability event — it consumes no sync — but a blocked env
  /// (triggered fault) refuses it, so a crash scheduled at the tmp-file
  /// sync also kills the rename that would have published it.
  Status RenameFile(const std::string& src, const std::string& dst) override;

  /// Installs a fault injector consulted on every Sync. Not owned.
  /// Pass nullptr to clear.
  void SetFaultInjector(FaultInjector* injector);

  /// Simulates a crash: all volatile data is lost, files revert to their
  /// durable snapshots, any triggered fault is cleared, IO is re-enabled.
  void CrashAndRestart();

  /// Total successful durability events (syncs) so far. One page write in
  /// the page store and one log force each count as one event.
  uint64_t durable_events() const;

  /// Total bytes made durable by syncs (volume actually persisted).
  uint64_t bytes_synced() const;

  /// True once a fault has been triggered (IO is failing).
  bool io_blocked() const;

 private:
  friend class MemFile;

  // Called by files before persisting. Returns false (and blocks future
  // IO) if the injector vetoes the event.
  bool BeginDurableEvent(uint64_t bytes);
  bool IoAllowed() const;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<MemFile>> files_;
  FaultInjector* injector_ = nullptr;
  bool blocked_ = false;
  uint64_t durable_events_ = 0;
  uint64_t bytes_synced_ = 0;
};

}  // namespace llb

#endif  // LLB_IO_MEM_ENV_H_
