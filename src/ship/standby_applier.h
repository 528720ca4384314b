#ifndef LLB_SHIP_STANDBY_APPLIER_H_
#define LLB_SHIP_STANDBY_APPLIER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/database.h"
#include "recovery/log_applier.h"
#include "ship/ship_channel.h"

namespace llb {

struct StandbyApplierStats {
  uint64_t frames_received = 0;   // frames returned by Poll
  uint64_t frames_applied = 0;    // frames appended + redone + flushed
  uint64_t frames_duplicate = 0;  // wholly below the applied LSN
  uint64_t frames_corrupt = 0;    // rejected by segment validation
  uint64_t records_applied = 0;
  uint64_t bytes_applied = 0;
  // Pages of multi-var nodes the replay staged on the standby's own log
  // before writing them (LogApplier::Flush).
  uint64_t pages_staged = 0;
};

/// Replication lag as seen from the standby. `primary_durable_lsn` is
/// whatever the caller sampled from the primary (kInvalidLsn when the
/// primary is unreachable — lag fields then fall back to what is visible
/// in the channel).
struct StandbyStatus {
  Lsn applied_lsn = 0;
  Lsn primary_durable_lsn = kInvalidLsn;
  uint64_t segments_behind = 0;  // frames buffered, not yet applied
  uint64_t lsns_behind = 0;
  uint64_t bytes_behind = 0;  // bytes buffered, not yet applied
  bool promoted = false;

  std::string ToString() const;
};

/// Drives continuous redo on a standby Database from shipped log frames.
///
/// Per in-order frame: records are appended to the standby's own log
/// (LogManager::AppendSealed, preserving primary LSNs), forced durable
/// (WAL: log before page writes), then replayed onto the standby's stable
/// store through the shared LogApplier and flushed. The invariant this
/// maintains: the standby's stable store always equals the in-order
/// re-execution of the standby's own log — which is exactly what
/// Database::Recover() rebuilds after a standby crash, so crash recovery
/// and steady-state apply converge on the same state.
///
/// Out-of-order frames are buffered until the gap fills; frames at or
/// below the applied LSN are dropped as duplicates; frames that fail
/// validation (rot in transit) are counted, discarded, and recovered via
/// LogShipper re-send or resync.
///
/// Single-threaded: one thread calls Drain()/GatherStatus(). (The
/// Database underneath stays internally locked; this class adds no locks
/// of its own.)
class StandbyApplier {
 public:
  /// `standby` must be open in standby mode and recovered.
  StandbyApplier(Database* standby, ShipChannel* channel);

  StandbyApplier(const StandbyApplier&) = delete;
  StandbyApplier& operator=(const StandbyApplier&) = delete;

  /// Adopts the standby's recovered local log as the applied position
  /// (stable == redo(log) holds after Database::Recover). Call once after
  /// opening, before the first Drain.
  Status CatchUpFromLocalLog();

  /// Polls the channel and applies every frame that is contiguous with
  /// the standby log, then trims consumed frames from the channel.
  /// Transient channel/IO errors propagate; calling Drain again resumes
  /// exactly where it stopped (an appended-but-unapplied frame is
  /// completed first).
  Status Drain();

  /// Applied through this LSN (standby stable and log agree up to here).
  Lsn applied_lsn() const { return applied_lsn_; }

  StandbyStatus GatherStatus(Lsn primary_durable_lsn = kInvalidLsn) const;

  const StandbyApplierStats& stats() const { return stats_; }

 private:
  /// Completes a frame whose records were appended to the log but not yet
  /// forced/applied (Drain was interrupted after AppendSealed).
  Status FinishInflight();

  void MarkConsumed(uint64_t seq);

  Database* const db_;
  ShipChannel* const channel_;
  LogApplier applier_;

  Lsn applied_lsn_ = 0;
  uint64_t consumed_seq_ = 0;  // channel frames <= this are consumed
  /// Buffered out-of-order frames, keyed by first_lsn (the larger
  /// last_lsn wins on collision).
  std::map<Lsn, ShipFrame> pending_;
  std::vector<LogRecord> inflight_records_;
  Lsn inflight_last_lsn_ = kInvalidLsn;
  uint64_t inflight_seq_ = 0;
  uint64_t inflight_bytes_ = 0;
  StandbyApplierStats stats_;
};

}  // namespace llb

#endif  // LLB_SHIP_STANDBY_APPLIER_H_
