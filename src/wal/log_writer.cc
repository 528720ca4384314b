#include "wal/log_writer.h"

namespace llb {

Status LogWriter::Add(const LogRecord& record) {
  record.EncodeTo(&buffer_);
  return Status::OK();
}

Status LogWriter::AddRaw(Slice framed) {
  buffer_.append(framed.data(), framed.size());
  return Status::OK();
}

Status LogWriter::AddRaw(std::string* framed) {
  if (buffer_.empty()) {
    buffer_.swap(*framed);
  } else {
    buffer_.append(*framed);
  }
  framed->clear();
  return Status::OK();
}

Status LogWriter::Force(std::string* sealed) {
  if (!buffer_.empty()) {
    LLB_RETURN_IF_ERROR(file_->Append(Slice(buffer_)));
    file_bytes_ += buffer_.size();
    if (sealed != nullptr) {
      *sealed = std::move(buffer_);
    }
    buffer_.clear();
  } else if (sealed != nullptr) {
    sealed->clear();
  }
  return file_->Sync();
}

}  // namespace llb
