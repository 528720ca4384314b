#ifndef LLB_IO_FAULTY_ENV_H_
#define LLB_IO_FAULTY_ENV_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "io/env.h"

namespace llb {

/// Counts durability events without ever failing one. Crash-sweep property
/// tests first run a scenario under a RecordingInjector to learn how many
/// stable writes it performs, then re-run it once per k in [1, total] under
/// a CountdownFaultInjector(k) to crash at every possible point.
class RecordingInjector : public FaultInjector {
 public:
  bool AllowDurableEvent() override {
    ++count_;
    return true;
  }
  uint64_t count() const { return count_; }

 private:
  uint64_t count_ = 0;
};

/// Fails exactly the n-th durability event (1-based) and every one after,
/// i.e. the system crashes *during* that stable write. n == 0 is clamped
/// to 1 (crash at the very first event): the naive `n - 1` would wrap to
/// UINT64_MAX and the injector would effectively never fire.
class CrashAtEventInjector : public CountdownFaultInjector {
 public:
  explicit CrashAtEventInjector(uint64_t n)
      : CountdownFaultInjector(n == 0 ? 0 : n - 1) {}
};

/// The file operations a FaultPolicy can target. Sync faults model a
/// device that fails a flush; read/write/append faults model transient
/// controller or path errors that succeed on retry.
enum class FaultOp {
  kReadAt,
  kWriteAt,
  kAppend,
  kSync,
};

/// What to do to one intercepted operation.
enum class FaultAction {
  kNone,     // let the operation through untouched
  kFail,     // fail it with IoError (transient: later ops may succeed)
  kCorrupt,  // let it through but flip one bit of its data (silent rot)
};

/// Decides, per intercepted operation, whether to inject a fault.
/// Unlike FaultInjector (a crash: the env fails forever after the veto),
/// a FaultPolicy injects *transient* faults — each decision is
/// independent, and the environment keeps working afterwards.
class FaultPolicy {
 public:
  virtual ~FaultPolicy();

  /// Called once per intercepted operation, before it executes.
  virtual FaultAction OnOp(FaultOp op, const std::string& file) = 0;
};

/// One scripted fault: fires on the `countdown`-th matching operation
/// (1-based) on files whose name contains `file_substring` (empty
/// matches every file), then disarms. Scripts are how tests place a
/// single deterministic fault at an exact point of a backup sweep.
struct FaultPoint {
  FaultOp op = FaultOp::kSync;
  std::string file_substring;
  uint64_t countdown = 1;
  FaultAction action = FaultAction::kFail;
};

/// Fires each FaultPoint exactly once at its scripted position.
class ScriptedFaultPolicy : public FaultPolicy {
 public:
  ScriptedFaultPolicy() = default;
  explicit ScriptedFaultPolicy(std::vector<FaultPoint> points)
      : points_(std::move(points)) {}

  void Add(FaultPoint point) { points_.push_back(point); }

  FaultAction OnOp(FaultOp op, const std::string& file) override;

  /// Number of scripted points that have fired.
  uint64_t fired() const { return fired_; }

 private:
  std::vector<FaultPoint> points_;
  uint64_t fired_ = 0;
};

/// Injects faults at random with per-operation probabilities, scoped to
/// files whose name contains `file_substring`. Deterministic for a given
/// seed and operation sequence.
class RandomFaultPolicy : public FaultPolicy {
 public:
  struct Probabilities {
    double read_error = 0;
    double write_error = 0;
    double append_error = 0;
    double sync_error = 0;
    double read_corrupt = 0;  // silent bit-flip on reads
  };

  RandomFaultPolicy(uint64_t seed, Probabilities p,
                    std::string file_substring = "")
      : rng_(seed), p_(p), file_substring_(std::move(file_substring)) {}

  FaultAction OnOp(FaultOp op, const std::string& file) override;

 private:
  Random rng_;
  const Probabilities p_;
  const std::string file_substring_;
};

/// Counts of injected faults, by kind.
struct FaultyEnvStats {
  uint64_t read_faults = 0;
  uint64_t write_faults = 0;
  uint64_t append_faults = 0;
  uint64_t sync_faults = 0;
  uint64_t corruptions = 0;

  uint64_t total_failures() const {
    return read_faults + write_faults + append_faults + sync_faults;
  }
};

/// An Env decorator that injects transient faults decided by a
/// FaultPolicy into every file operation, composable over any base Env
/// (MemEnv keeps its own crash-style FaultInjector; the two layers are
/// independent). With no policy installed it is a transparent
/// pass-through, so an engine can run over a FaultyEnv permanently and
/// have faults switched on only for a test window.
class FaultyEnv : public Env {
 public:
  explicit FaultyEnv(Env* base) : base_(base) {}

  Result<std::shared_ptr<File>> OpenFile(const std::string& name,
                                         bool create) override;
  Status DeleteFile(const std::string& name) override;
  bool FileExists(const std::string& name) const override;
  std::vector<std::string> ListFiles() const override;

  /// Renames pass through un-faulted: the write-tmp/sync/rename pattern
  /// already exposes its fault surface through the tmp file's WriteAt and
  /// Sync, which the policy does intercept.
  Status RenameFile(const std::string& src, const std::string& dst) override {
    return base_->RenameFile(src, dst);
  }

  /// Installs the fault policy consulted on every file operation. Not
  /// owned; pass nullptr to return to pass-through behavior.
  void SetPolicy(FaultPolicy* policy);

  FaultyEnvStats stats() const;

 private:
  friend class FaultyFile;

  /// Consults the policy and updates stats. Thread-safe.
  FaultAction Decide(FaultOp op, const std::string& file);

  Env* const base_;
  mutable std::mutex mu_;
  FaultPolicy* policy_ = nullptr;
  FaultyEnvStats stats_;
};

}  // namespace llb

#endif  // LLB_IO_FAULTY_ENV_H_
