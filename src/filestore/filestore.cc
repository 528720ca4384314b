#include "filestore/filestore.h"

#include <algorithm>

namespace llb {

FileStore::FileStore(Database* db, PartitionId partition, uint32_t base_page,
                     uint32_t pages_per_file, uint32_t num_files)
    : db_(db),
      partition_(partition),
      base_page_(base_page),
      pages_per_file_(pages_per_file),
      num_files_(num_files) {}

std::vector<PageId> FileStore::PagesOf(uint32_t file_id) const {
  std::vector<PageId> pages;
  pages.reserve(pages_per_file_);
  uint32_t start = base_page_ + file_id * pages_per_file_;
  for (uint32_t i = 0; i < pages_per_file_; ++i) {
    pages.push_back(PageId{partition_, start + i});
  }
  return pages;
}

Status FileStore::WriteValues(uint32_t file_id,
                              const std::vector<int64_t>& values) {
  if (file_id >= num_files_) return Status::InvalidArgument("bad file id");
  if (values.size() > capacity_per_file()) {
    return Status::InvalidArgument("file too large");
  }
  std::vector<PageId> pages = PagesOf(file_id);
  size_t offset = 0;
  for (const PageId& id : pages) {
    size_t n = std::min(file_page::kRecordsPerPage, values.size() - offset);
    LogRecord rec = MakeFileWrite(id, values.data() + offset, n);
    offset += n;
    LLB_RETURN_IF_ERROR(db_->Execute(&rec));
  }
  return Status::OK();
}

Result<std::vector<int64_t>> FileStore::ReadValues(uint32_t file_id) {
  if (file_id >= num_files_) return Status::InvalidArgument("bad file id");
  std::vector<int64_t> values;
  for (const PageId& id : PagesOf(file_id)) {
    PageImage image;
    LLB_RETURN_IF_ERROR(db_->ReadPage(id, &image));
    uint32_t n = file_page::Count(image);
    for (uint32_t i = 0; i < n; ++i) {
      values.push_back(file_page::ValueAt(image, i));
    }
  }
  return values;
}

Status FileStore::Copy(uint32_t src, uint32_t dst) {
  if (src >= num_files_ || dst >= num_files_ || src == dst) {
    return Status::InvalidArgument("bad copy operands");
  }
  LogRecord rec = MakeFileCopy(PagesOf(src), PagesOf(dst));
  return db_->Execute(&rec);
}

Status FileStore::SortInto(uint32_t src, uint32_t dst) {
  if (src >= num_files_ || dst >= num_files_ || src == dst) {
    return Status::InvalidArgument("bad sort operands");
  }
  LogRecord rec = MakeFileSort(PagesOf(src), PagesOf(dst));
  return db_->Execute(&rec);
}

Status FileStore::Transform(uint32_t file_id, uint64_t seed) {
  if (file_id >= num_files_) return Status::InvalidArgument("bad file id");
  LogRecord rec = MakeFileTransform(PagesOf(file_id), seed);
  return db_->Execute(&rec);
}

}  // namespace llb
