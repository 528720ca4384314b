#include "wal/log_reader.h"

namespace llb {

LogReader::LogReader(std::shared_ptr<File> file) {
  files_.push_back(std::move(file));
}

LogReader::LogReader(std::vector<std::shared_ptr<File>> files)
    : files_(std::move(files)) {}

Status LogReader::Init() {
  if (!files_.empty()) status_ = LoadNext();
  return status_;
}

Status LogReader::LoadNext() {
  const File& file = *files_[next_file_++];
  LLB_ASSIGN_OR_RETURN(uint64_t size, file.Size());
  contents_.clear();
  LLB_RETURN_IF_ERROR(file.ReadAt(0, size, &contents_));
  cursor_ = Slice(contents_);
  valid_bytes_ = 0;
  return Status::OK();
}

bool LogReader::Next(LogRecord* record) {
  while (cursor_.empty()) {
    if (!status_.ok() || next_file_ == files_.size()) return false;
    status_ = LoadNext();
  }
  Status s = LogRecord::DecodeFrom(&cursor_, record);
  if (!s.ok()) {
    // Incomplete or corrupt tail: the log ends here. (A corrupt record
    // mid-log would also stop the scan; with force-before-use WAL
    // discipline the tail is the only place this occurs.)
    cursor_ = Slice();
    next_file_ = files_.size();
    return false;
  }
  valid_bytes_ = contents_.size() - cursor_.size();
  return true;
}

}  // namespace llb
