#include "ship/standby_applier.h"

#include <algorithm>
#include <utility>

namespace llb {

std::string StandbyStatus::ToString() const {
  std::string out = "standby applied_lsn=" + std::to_string(applied_lsn);
  if (primary_durable_lsn != kInvalidLsn) {
    out += " primary_durable_lsn=" + std::to_string(primary_durable_lsn);
  }
  out += " lag{segments=" + std::to_string(segments_behind) +
         " lsns=" + std::to_string(lsns_behind) +
         " bytes=" + std::to_string(bytes_behind) + "}";
  out += promoted ? " role=primary(promoted)" : " role=standby";
  return out;
}

StandbyApplier::StandbyApplier(Database* standby, ShipChannel* channel)
    : db_(standby),
      channel_(channel),
      applier_(*standby->registry(), standby->stable(), standby->log()) {}

Status StandbyApplier::CatchUpFromLocalLog() {
  // Database::Recover made stable == redo(local log); everything durable
  // in the local log is therefore applied.
  applied_lsn_ = db_->log()->durable_lsn();
  return Status::OK();
}

void StandbyApplier::MarkConsumed(uint64_t seq) {
  consumed_seq_ = std::max(consumed_seq_, seq);
}

Status StandbyApplier::FinishInflight() {
  if (inflight_records_.empty()) return Status::OK();
  // WAL: the frame's records must be durable in the standby log before
  // any of their page writes land in the stable store.
  LLB_RETURN_IF_ERROR(db_->ForceLog());
  for (const LogRecord& rec : inflight_records_) {
    LLB_RETURN_IF_ERROR(applier_.Apply(rec));
  }
  LLB_RETURN_IF_ERROR(applier_.Flush());
  stats_.pages_staged = applier_.stats().pages_staged;
  applied_lsn_ = inflight_last_lsn_;
  MarkConsumed(inflight_seq_);
  ++stats_.frames_applied;
  stats_.records_applied += inflight_records_.size();
  stats_.bytes_applied += inflight_bytes_;
  inflight_records_.clear();
  inflight_last_lsn_ = kInvalidLsn;
  inflight_bytes_ = 0;
  return Status::OK();
}

Status StandbyApplier::Drain() {
  LLB_RETURN_IF_ERROR(FinishInflight());

  std::vector<ShipFrame> polled;
  LLB_RETURN_IF_ERROR(channel_->Poll(consumed_seq_ + 1, &polled));
  stats_.frames_received += polled.size();
  for (ShipFrame& frame : polled) {
    if (frame.last_lsn <= applied_lsn_) {
      ++stats_.frames_duplicate;
      MarkConsumed(frame.seq);
      continue;
    }
    auto it = pending_.find(frame.first_lsn);
    if (it == pending_.end() || frame.last_lsn > it->second.last_lsn) {
      pending_[frame.first_lsn] = std::move(frame);
    } else {
      MarkConsumed(frame.seq);  // narrower duplicate of a buffered frame
    }
  }

  while (true) {
    const Lsn next = applied_lsn_ + 1;
    // Find a buffered frame covering `next`; discard those wholly behind.
    auto chosen = pending_.end();
    for (auto it = pending_.begin();
         it != pending_.end() && it->first <= next;) {
      if (it->second.last_lsn < next) {
        ++stats_.frames_duplicate;
        MarkConsumed(it->second.seq);
        it = pending_.erase(it);
        continue;
      }
      chosen = it;
      ++it;
    }
    if (chosen == pending_.end()) break;  // gap: wait for more frames

    ShipFrame frame = std::move(chosen->second);
    pending_.erase(chosen);

    // Re-shipped frames may overlap the applied prefix (shipper crash
    // between Send and cursor save; catch-up frames). Trim the leading
    // records so the segment starts exactly at the standby's next LSN.
    SealedSegment segment;
    segment.first_lsn = next;
    segment.last_lsn = frame.last_lsn;
    bool bad = false;
    if (frame.first_lsn == next) {
      segment.bytes = std::move(frame.bytes);
    } else {
      Slice cursor(frame.bytes);
      LogRecord rec;
      while (!cursor.empty()) {
        if (!LogRecord::DecodeFrom(&cursor, &rec).ok()) {
          bad = true;
          break;
        }
        if (rec.lsn >= next) rec.EncodeTo(&segment.bytes);
      }
    }

    std::vector<LogRecord> records;
    Status appended = bad ? Status::Corruption("torn shipped frame")
                          : db_->log()->AppendSealed(segment, &records);
    if (appended.IsCorruption()) {
      // Rot in transit. Drop the frame — the shipper re-sends or resyncs
      // this range; nothing was buffered in the standby log.
      ++stats_.frames_corrupt;
      MarkConsumed(frame.seq);
      continue;
    }
    LLB_RETURN_IF_ERROR(appended);

    inflight_records_ = std::move(records);
    inflight_last_lsn_ = segment.last_lsn;
    inflight_seq_ = frame.seq;
    inflight_bytes_ = segment.bytes.size();
    LLB_RETURN_IF_ERROR(FinishInflight());
  }

  return channel_->Trim(consumed_seq_);
}

StandbyStatus StandbyApplier::GatherStatus(Lsn primary_durable_lsn) const {
  StandbyStatus status;
  status.applied_lsn = applied_lsn_;
  status.primary_durable_lsn = primary_durable_lsn;
  status.promoted = !db_->standby();
  status.segments_behind = pending_.size();
  for (const auto& [first, frame] : pending_) {
    status.bytes_behind += frame.bytes.size();
  }
  if (primary_durable_lsn != kInvalidLsn &&
      primary_durable_lsn > applied_lsn_) {
    status.lsns_behind = primary_durable_lsn - applied_lsn_;
  } else if (!pending_.empty()) {
    Lsn top = 0;
    for (const auto& [first, frame] : pending_) {
      top = std::max(top, frame.last_lsn);
    }
    if (top > applied_lsn_) status.lsns_behind = top - applied_lsn_;
  }
  return status;
}

}  // namespace llb
