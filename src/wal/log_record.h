#ifndef LLB_WAL_LOG_RECORD_H_
#define LLB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/types.h"

namespace llb {

/// Operation codes. The engine core interprets 1 to 5; all other codes
/// are domain operations dispatched through the OpRegistry.
enum OpCode : uint16_t {
  kOpInvalid = 0,

  // --- engine core ---
  /// Physical blind write W_P(X, log(v)): payload is the full page image.
  kOpPhysicalWrite = 1,
  /// Cache-manager identity write W_IP(X, log(X)): payload is the full
  /// current page image. Semantically a physical write, but distinguished
  /// because (a) it is the extra logging the paper's backup protocol
  /// charges for, and (b) redo may *seed* pages from identity values
  /// (install-without-flush; see recovery/redo.h).
  kOpIdentityWrite = 2,
  /// Checkpoint record: payload carries the crash-redo scan start LSN.
  kOpCheckpoint = 3,
  /// Cache-manager identity write of a var of a node with several vars,
  /// which installs the node without an atomic multi-page write (paper
  /// 2.5). Applied like kOpIdentityWrite, but only crash redo over the
  /// stable database whose cache logged it may seed from it: its
  /// operations' predecessors were installed in that store, not in a
  /// backup or a standby.
  kOpInstallIdentity = 4,
  /// A replayed page staged by redo (LogApplier::Flush) while a node with
  /// several vars is written to the target: payload is the full page
  /// image, with the LSN of the last record that wrote it. Redo over that
  /// same target seeds the page from it at that LSN; everything else
  /// skips it. The log is cut back before it once the pages are on the
  /// target, so it only outlives the replay across a crash.
  kOpReplayIdentity = 5,

  // --- B-tree domain (tree operations) ---
  kOpBtreeInsert = 16,       // physiological: insert record into a leaf
  kOpBtreeDelete = 17,       // physiological: delete record from a leaf
  kOpBtreeMovRec = 19,       // logical W_L(old, new): move high records
  kOpBtreeRmvRec = 20,       // physiological: remove high records from old
  kOpBtreeInsertIndex = 21,  // physiological: insert separator into inner
  kOpBtreeSetMeta = 22,      // blind write of the tree meta page

  // --- file-store domain (general logical operations) ---
  kOpFileCopy = 32,         // logical: copy file X to file Y (multi-page)
  kOpFileSort = 33,         // logical: sort file X into file Y
  kOpFileWrite = 34,        // physical write of one file page
  kOpFileTransform = 35,    // physiological multi-page in-place transform

  // --- application-recovery domain ---
  kOpAppExec = 48,          // Ex(A): physiological on the app state page
  kOpAppRead = 49,          // R(X, A): reads X and A, writes A
  kOpAppWrite = 50,         // W_L(A, X): reads A, writes X
};

/// A logged operation: LSN, code, the read and write sets (object ids),
/// and an opaque payload interpreted by the op's replay function.
///
/// This is the paper's operation model (Table 1): an operation reads
/// readset(Op) and writes writeset(Op); logical operations log operand
/// *identifiers* plus a small descriptor instead of data values.
struct LogRecord {
  /// Group flags: a multi-record atomic group (e.g. a logical B-tree
  /// split: MovRec / SetMeta / InsertIndex / RmvRec) marks its first
  /// record kGroupBegin and its last kGroupEnd. Point-in-time restore
  /// refuses cut points with an open group — stopping between Begin and
  /// End would leave a half-applied structure modification (the split's
  /// records are only atomic as a unit). Single-record operations carry
  /// no flags.
  static constexpr uint8_t kGroupBegin = 0x1;
  static constexpr uint8_t kGroupEnd = 0x2;

  Lsn lsn = kInvalidLsn;
  uint16_t op_code = kOpInvalid;
  uint8_t flags = 0;
  std::vector<PageId> readset;
  std::vector<PageId> writeset;
  std::string payload;

  bool IsGroupBegin() const { return (flags & kGroupBegin) != 0; }
  bool IsGroupEnd() const { return (flags & kGroupEnd) != 0; }
  bool IsIdentityWrite() const { return op_code == kOpIdentityWrite; }
  bool IsBlindWrite() const {
    return op_code == kOpPhysicalWrite || op_code == kOpIdentityWrite;
  }
  bool IsCheckpoint() const { return op_code == kOpCheckpoint; }
  bool IsInstallIdentity() const { return op_code == kOpInstallIdentity; }
  bool IsReplayIdentity() const { return op_code == kOpReplayIdentity; }

  /// Serialized size on disk including framing.
  size_t EncodedSize() const;

  /// Appends the framed encoding ([len][crc][body]) to *dst.
  void EncodeTo(std::string* dst) const;

  /// Decodes one framed record from the front of *input, advancing it.
  /// Returns Corruption on CRC/format mismatch and NotFound when input is
  /// an incomplete tail (normal end of a crashed log).
  static Status DecodeFrom(Slice* input, LogRecord* out);
};

}  // namespace llb

#endif  // LLB_WAL_LOG_RECORD_H_
