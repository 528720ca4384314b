#ifndef LLB_WAL_LOG_WRITER_H_
#define LLB_WAL_LOG_WRITER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "io/env.h"
#include "wal/log_record.h"

namespace llb {

/// Appends framed log records to a file. Records are buffered in memory
/// until Force() (the WAL force) appends and syncs them; this matches the
/// usual group-commit structure and lets fault injection distinguish
/// volatile appends from durable forces.
class LogWriter {
 public:
  /// `file_bytes` is the size `file` already has.
  explicit LogWriter(std::shared_ptr<File> file, uint64_t file_bytes = 0)
      : file_(std::move(file)), file_bytes_(file_bytes) {}

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  /// Buffers a record for the next Force().
  Status Add(const LogRecord& record);

  /// Buffers already-framed record bytes (a sealed segment replicated
  /// from another log) for the next Force().
  Status AddRaw(Slice framed);

  /// Same, taking the bytes from *framed (left empty): when nothing is
  /// buffered yet they are moved in without a copy.
  Status AddRaw(std::string* framed);

  /// Appends all buffered records and syncs the file. When `sealed` is
  /// non-null it receives the byte range this force made durable (empty
  /// if nothing was buffered) — the "sealed segment" the log shipper
  /// streams to a standby.
  Status Force(std::string* sealed = nullptr);

  /// Points the writer at a file holding `file_bytes` bytes: a fresh,
  /// empty one after a log roll, or the active one after a tail cut.
  /// Bytes still buffered go to that file at the next Force().
  void SetFile(std::shared_ptr<File> file, uint64_t file_bytes = 0) {
    file_ = std::move(file);
    file_bytes_ = file_bytes;
  }

  /// Bytes appended to the current file, including those it already had.
  uint64_t file_bytes() const { return file_bytes_; }

 private:
  std::shared_ptr<File> file_;
  std::string buffer_;
  uint64_t file_bytes_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_WRITER_H_
