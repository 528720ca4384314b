#ifndef LLB_WAL_LOG_CHANNEL_H_
#define LLB_WAL_LOG_CHANNEL_H_

#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace llb {

/// One per-thread WAL append channel (the limestone `log_channel` shape).
/// Appenders encode records into the channel's staging buffer under the
/// channel mutex — held across LSN/epoch issuance AND buffering, so that
/// once an epoch is closed, every record issued in it is either fully
/// buffered or its appender still holds the channel mutex. The group
/// commit drains each channel in turn and therefore never observes a
/// half-buffered epoch.
class LogChannel {
 public:
  /// A drained prefix of the channel: its framed records back to back in
  /// LSN order (an appender holds the channel mutex across issuance, so
  /// a channel's LSNs only grow), with each record's LSN and size.
  struct Run {
    std::string bytes;
    std::vector<Lsn> lsns;
    std::vector<size_t> sizes;
  };

  /// Records and framed bytes appended through this channel, counted at
  /// append time (stats must not wait for a seal), identity writes split
  /// out.
  struct Counters {
    uint64_t records = 0;
    uint64_t bytes = 0;
    uint64_t identity_records = 0;
    uint64_t identity_bytes = 0;
  };

  std::mutex& mu() { return mu_; }

  /// Buffers an already-LSN-stamped record under `epoch`. mu_ held by
  /// the caller (the LogManager's append path).
  void AddLocked(Epoch epoch, const LogRecord& record) {
    size_t before = bytes_.size();
    record.EncodeTo(&bytes_);
    size_t size = bytes_.size() - before;
    slots_.push_back(Slot{epoch, record.lsn, size});
    ++counters_.records;
    counters_.bytes += size;
    if (record.IsIdentityWrite()) {
      ++counters_.identity_records;
      counters_.identity_bytes += size;
    }
  }

  /// Snapshot of the append counters; with `reset` they restart at zero.
  /// Takes mu_ internally.
  Counters ReadCounters(bool reset) {
    std::lock_guard<std::mutex> lock(mu_);
    Counters out = counters_;
    if (reset) counters_ = Counters{};
    return out;
  }

  /// Replaces *out with every buffered record with epoch <= up_to, moved
  /// out of the channel. Epochs are issued monotonically per channel, so
  /// the eligible records form a prefix of the queue. A caller that
  /// reuses *out across drains keeps its buffers' capacity. Takes mu_
  /// internally; the caller (group commit) must NOT hold any other
  /// LogManager lock while calling.
  void Drain(Epoch up_to, Run* out) {
    out->bytes.clear();
    out->lsns.clear();
    out->sizes.clear();
    std::lock_guard<std::mutex> lock(mu_);
    size_t drained = 0;
    while (!slots_.empty() && slots_.front().epoch <= up_to) {
      out->lsns.push_back(slots_.front().lsn);
      out->sizes.push_back(slots_.front().size);
      drained += slots_.front().size;
      slots_.pop_front();
    }
    if (drained == bytes_.size()) {
      out->bytes.swap(bytes_);
    } else {
      out->bytes.assign(bytes_, 0, drained);
      bytes_.erase(0, drained);
    }
  }

 private:
  struct Slot {
    Epoch epoch;
    Lsn lsn;
    size_t size;
  };

  std::mutex mu_;
  std::string bytes_;        // framed records of slots_, back to back
  std::deque<Slot> slots_;
  Counters counters_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_CHANNEL_H_
