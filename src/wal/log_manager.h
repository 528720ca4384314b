#ifndef LLB_WAL_LOG_MANAGER_H_
#define LLB_WAL_LOG_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "wal/log_reader.h"
#include "wal/log_record.h"
#include "wal/log_writer.h"

namespace llb {

/// Per-operation-class logging statistics, used by the benchmarks to
/// measure the extra logging the backup protocol induces (paper section 5).
/// Record and byte counts are taken at append time.
struct LogStats {
  uint64_t records = 0;
  uint64_t identity_records = 0;  // W_IP records: the Iw/oF "extra logging"
  uint64_t bytes = 0;
  uint64_t identity_bytes = 0;
  uint64_t forces = 0;
  uint64_t group_commits = 0;  // epoch seals that wrote + synced the log
};

/// One ship frame: the contiguous run of framed records a single
/// successful Force() made durable. It is a byte range at the end of the
/// active log file, not a log file of its own (see LogFileInfo); seq
/// numbers seals densely within one LogManager session (they restart at 1
/// after reopen — cross-session continuity is the ship cursor's job,
/// keyed by LSN).
struct SealedSegment {
  uint64_t seq = 0;
  /// The group-commit epoch this seal published (kInvalidEpoch when
  /// unstamped). Informational for observers; the shipping path keys on
  /// LSN only.
  Epoch epoch = kInvalidEpoch;
  Lsn first_lsn = kInvalidLsn;
  Lsn last_lsn = kInvalidLsn;
  std::string bytes;  // framed records, appendable to another log verbatim
};

/// The active log file is sealed (renamed to its first LSN) and a fresh
/// one started once a group commit leaves it at least this large.
inline constexpr uint64_t kLogRollBytes = uint64_t{16} << 20;

/// One file of the log. The active file is `<log>`; a roll renames it to
/// `<log>.<first_lsn, 20 digits>`, after which it never changes again
/// except by a point-in-time cut. An empty sealed file is an anchor: a
/// truncation that dropped every record leaves one so a reopen still
/// knows the next LSN (its first_lsn).
struct LogFileInfo {
  std::string name;
  /// LSN of the file's first record; for an empty file, the LSN its
  /// first record will get.
  Lsn first_lsn = kInvalidLsn;
  uint64_t bytes = 0;
  bool sealed = false;
};

/// Owns the recovery log: assigns LSNs, appends records, forces them
/// durable (WAL), and scans them for redo. The same log serves crash
/// recovery and media recovery ("maintaining the media recovery log is
/// conventional", paper section 1); media recovery simply scans from the
/// start point recorded when its backup began.
///
/// The log is a run of files (LogFileInfo): sealed files named by their
/// first LSN, then the active file the group commit appends to. A group
/// commit that leaves the active file at kLogRollBytes or more rolls it:
/// rename to its sealed name, then create a fresh active file. Readers
/// snapshot the file list and skip whole files below their start, and
/// truncation unlinks whole files, so neither costs more than the files
/// it touches.
///
/// Appends form one totally ordered stream: an appender takes the LSN and
/// the open epoch and encodes its record into one buffer under one mutex,
/// so the buffer is always in LSN order. A group commit closes the open
/// epoch E and cuts the buffer at its current end, writes that prefix to
/// the active log file, syncs once, and publishes durable_epoch = E — the
/// commit point. The fence protocol's "identity write durable before
/// flush to S" becomes "the epoch containing the Iw record has been
/// published".
class LogManager {
 public:
  /// Observes segment seals. Invoked after the seal is durable (the
  /// force's sync succeeded), under the log mutex: observers must be
  /// quick and must not call back into the LogManager (enqueue and
  /// return — the shipper's pattern).
  using SealObserver = std::function<void(const SealedSegment&)>;

  /// Runs inside every group commit, after the commit closes its epoch
  /// and before any of that epoch's records are written: a record
  /// issued before the close reaches the log file only once the barrier
  /// returned OK. A failing barrier fails the commit, which then writes
  /// nothing and leaves the watermark where it was; the records stay
  /// buffered for the next commit, which runs the barrier again.
  /// Called with commit_mu_ held: the barrier must not call back into
  /// the LogManager.
  using CommitBarrier = std::function<Status()>;

  /// Opens (creating if needed) the log. Finds its files by name and
  /// reads only the active file to learn the next LSN to assign — plus
  /// the newest sealed file when the active one is empty (a fresh roll,
  /// or a crash between a roll's rename and its create).
  static Result<std::unique_ptr<LogManager>> Open(Env* env,
                                                  const std::string& name);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Assigns the next LSN to *record, buffers it, and returns the LSN.
  /// If epoch_out is non-null it receives the open epoch the record was
  /// issued in: the record is durable once durable_epoch() >= *epoch_out.
  Lsn Append(LogRecord* record, Epoch* epoch_out = nullptr);

  /// Makes all appended records durable: a full group commit (closes the
  /// open epoch, writes what was buffered before the close, publishes the
  /// watermark). If the seal covered records, the seal observer (if any)
  /// fires before Force returns.
  Status Force();

  /// Blocks until durable_epoch() >= epoch (i.e. every record issued in
  /// `epoch` is durable). The first waiter leads a group commit under the
  /// commit lock and concurrent waiters piggyback on its one sync.
  Status WaitEpochDurable(Epoch epoch);

  /// The epoch any subsequent Append() would be issued in. Waiting for
  /// this epoch makes everything appended so far durable (epoch barrier).
  Epoch CurrentEpoch() const;

  /// Blocks until the record at `lsn` is durable. Returns at once, with
  /// no lock taken, when durable_lsn() already covers it; otherwise waits
  /// for CurrentEpoch() (the WAL rule for a page whose LSN is `lsn`).
  Status WaitLsnDurable(Lsn lsn);

  /// Highest published (group-committed) epoch.
  Epoch durable_epoch() const {
    return durable_epoch_.load(std::memory_order_acquire);
  }

  /// Installs the commit barrier (nullptr clears). Waits out a commit in
  /// flight, so a cleared barrier is never run again once this returns.
  /// Instant restore installs one to make restored bits durable before
  /// the records that touch their pages.
  void SetCommitBarrier(CommitBarrier barrier);

  /// Installs the seal observer (nullptr clears). Seals that happened
  /// before installation are not replayed — a late-attaching shipper
  /// catches up by Scan()ning from its durable cursor instead.
  void SetSealObserver(SealObserver observer);

  /// Atomically installs the seal observer and returns the durable LSN
  /// at the moment of installation, under the seal lock: every seal up
  /// to the returned LSN happened strictly before installation, every
  /// later seal fires the new observer. This closes the attach race a
  /// shipper would otherwise have between its catch-up scan and the
  /// observer install.
  Lsn InstallSealObserver(SealObserver observer);

  /// Appends an already-sealed segment replicated from a primary log,
  /// preserving its LSNs (standby side). The segment must be contiguous
  /// with this log: first_lsn == next_lsn(); its bytes are validated
  /// (framing, CRC, dense LSNs matching [first_lsn, last_lsn]). On
  /// success the decoded records are appended to *records_out (if non
  /// -null) and the segment is buffered — call Force() to make it
  /// durable before applying it to the standby's stable store (WAL rule).
  ///
  /// Epoch-stamped segments (epoch != kInvalidEpoch) additionally keep
  /// the media-recovery merge keyed by (epoch, LSN) sane:
  ///  - an empty segment (no bytes, first_lsn == kInvalidLsn) with a new
  ///    epoch just advances the ingested-epoch bookkeeping (an idle
  ///    epoch published with no records);
  ///  - replaying an epoch <= the last ingested one is an idempotent
  ///    no-op iff its records are already ingested (last_lsn < next_lsn),
  ///    and InvalidArgument otherwise (a stale epoch cannot introduce
  ///    unseen records).
  Status AppendSealed(const SealedSegment& segment,
                      std::vector<LogRecord>* records_out);

  /// Highest epoch accepted through AppendSealed (kInvalidEpoch if only
  /// unstamped segments were ingested).
  Epoch last_ingested_epoch() const;

  /// LSN that will be assigned to the next record.
  Lsn next_lsn() const;

  /// Highest LSN known durable (<= last appended). Lock-free: a group
  /// commit holds mu_ across its device write and sync, and installers
  /// check this before deciding whether to wait at all.
  Lsn durable_lsn() const {
    return durable_lsn_.load(std::memory_order_acquire);
  }

  /// Scans durable records with lsn >= start_lsn in order, over a
  /// snapshot of the file list that skips files wholly below start_lsn.
  /// A concurrent roll or truncation cannot pull a snapshotted file away.
  /// The callback may return non-OK to abort the scan.
  Status Scan(Lsn start_lsn,
              const std::function<Status(const LogRecord&)>& fn) const;

  LogStats stats() const;

  /// Resets the identity-record counters (benchmarks sample deltas).
  void ResetStats();

  /// The log's files, oldest first; the active file is last.
  std::vector<LogFileInfo> Files() const;

  /// Discards the log below keep_from in whole files. Group-commits and
  /// rolls first, so the active file starts empty and holds everything
  /// logged from here on; then unlinks, oldest first and outside both log
  /// mutexes, every sealed file whose successor starts at or below
  /// keep_from. No log byte is read or written, and a crash part-way
  /// leaves a contiguous suffix of files. When every sealed file goes, an
  /// anchor named after the next LSN is created first. Records below
  /// keep_from that share a file with records at or above it stay.
  /// Callers must ensure
  /// no recovery path still needs the prefix: keep_from must not exceed
  /// the crash-redo scan start NOR the start_lsn of any backup that may
  /// still be restored (identity-write records "permit the truncation of
  /// the log in the same way that flushing does", paper 3.2).
  Status TruncatePrefix(Lsn keep_from);

  /// Discards every record after `last` and makes the cut durable, so the
  /// next record gets LSN last + 1 again: a point-in-time restore's
  /// excluded suffix, or a replay's staged identity writes
  /// (LogApplier::Flush) once the pages they cover are on the target.
  /// The cut may span files: sealed files wholly after it are unlinked
  /// (the log's oldest file is emptied instead, an anchor), newest first,
  /// so a crash part-way leaves a contiguous run of files that a rerun
  /// cuts. Every record after `last` must be durable; the caller makes
  /// sure no one appends, forces or ships meanwhile.
  Status TruncateAfter(Lsn last);

 private:
  /// A LogFileInfo plus the handle readers snapshot.
  struct LogFile : LogFileInfo {
    std::shared_ptr<File> file;
  };

  LogManager(Env* env, std::string name, std::vector<LogFile> files,
             Lsn next_lsn);

  /// Forces the writer and, if records were sealed, fires the observer.
  /// First creates the active file if a roll's create failed. mu_ held by
  /// caller.
  Status SealLocked(Epoch sealed_epoch);

  /// Closes the open epoch and cuts the append buffer at its end, runs
  /// the commit barrier, hands the buffer's prefix up to the cut to the
  /// writer, seals, rolls the active file when it reached kLogRollBytes
  /// (or, with `roll`, whenever it is not empty), and publishes the
  /// watermark. commit_mu_ held by the caller; takes append_mu_ twice and
  /// then mu_. A failing barrier fails the commit before
  /// anything leaves the buffer, so the next commit writes those records.
  /// On IO failure the bytes stay in the writer buffer and the watermark
  /// does not advance — the next commit retries them (classic LogWriter
  /// retry semantics).
  Status GroupCommitLocked(bool roll = false);

  /// Seals the active file: renames it to its sealed name and starts a
  /// fresh one. commit_mu_ and mu_ held, nothing buffered unsynced.
  Status RollLocked();

  /// Creates the fresh active file and points the writer at it. mu_
  /// held. Retried by the next seal if a roll's create failed.
  Status OpenActiveLocked();

  Env* const env_;
  const std::string name_;

  // Lock order: commit_mu_ first; mu_ and append_mu_ are never held
  // together. The commit barrier runs under commit_mu_ alone and takes
  // its owner's locks: with instant restore the engine-wide order is
  // cache -> commit_mu_ -> restorer (a cache eviction forces the log
  // under the cache mutex; the restorer never calls into the cache or
  // the log while holding its own mutex).
  mutable std::mutex mu_;
  // Oldest first; back() is the active file the writer appends to (it is
  // sealed only while a failed roll awaits its create).
  std::vector<LogFile> files_;
  LogWriter writer_;
  // Written under mu_ once the sync covering it succeeded; read anywhere.
  std::atomic<Lsn> durable_lsn_;
  Lsn last_appended_ = kInvalidLsn;
  uint64_t group_commits_ = 0;
  SealObserver seal_observer_;
  uint64_t seal_seq_ = 0;
  Lsn seal_first_lsn_ = kInvalidLsn;  // first LSN buffered since last seal

  // The append stream: LSN and epoch issuance, the framed records not yet
  // handed to the writer (in LSN order, AppendSealed's included), the
  // append-time counters and the ingested-epoch bookkeeping.
  mutable std::mutex append_mu_;
  Lsn next_lsn_;
  Epoch open_epoch_ = 1;
  std::string buffer_;
  LogStats appended_;  // records and bytes only
  Epoch last_ingested_epoch_ = kInvalidEpoch;

  // Group commit: serializes epoch closes; piggybacking waiters queue
  // on commit_mu_ and re-check the watermark once the leader publishes.
  std::mutex commit_mu_;
  CommitBarrier commit_barrier_;  // guarded by commit_mu_
  std::string commit_bytes_;      // the commit's cut prefix, reused
  std::atomic<Epoch> durable_epoch_{kInvalidEpoch};
};

}  // namespace llb

#endif  // LLB_WAL_LOG_MANAGER_H_
