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
  explicit LogWriter(std::shared_ptr<File> file) : file_(std::move(file)) {}

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

  /// Bytes appended + buffered since construction (logging-volume metric).
  uint64_t bytes_logged() const { return bytes_logged_; }

 private:
  std::shared_ptr<File> file_;
  std::string buffer_;
  uint64_t bytes_logged_ = 0;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_WRITER_H_
