#ifndef LLB_WAL_LOG_READER_H_
#define LLB_WAL_LOG_READER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "io/env.h"
#include "wal/log_record.h"

namespace llb {

/// Sequentially decodes records from a run of log files, oldest first,
/// holding one file's contents in memory at a time. Stops cleanly at the
/// first incomplete or corrupt record (data that never made it to a
/// successful force before a crash); nothing after it is read, so a
/// damaged file never lets the scan skip ahead over an LSN gap.
class LogReader {
 public:
  explicit LogReader(std::shared_ptr<File> file);
  explicit LogReader(std::vector<std::shared_ptr<File>> files);

  LogReader(const LogReader&) = delete;
  LogReader& operator=(const LogReader&) = delete;

  /// Loads the first file. Must be called before Next().
  Status Init();

  /// Reads the next record, loading the next file when one runs out.
  /// Returns false at the end of the (valid) log or when loading a later
  /// file failed; status() tells the two apart.
  bool Next(LogRecord* record);

  /// OK unless loading a file failed.
  const Status& status() const { return status_; }

  /// Bytes of the current file up to the end of the last record read.
  size_t valid_bytes() const { return valid_bytes_; }

 private:
  /// Loads files_[next_file_++] into contents_.
  Status LoadNext();

  std::vector<std::shared_ptr<File>> files_;
  size_t next_file_ = 0;
  std::string contents_;
  Slice cursor_;
  size_t valid_bytes_ = 0;
  Status status_;
};

}  // namespace llb

#endif  // LLB_WAL_LOG_READER_H_
