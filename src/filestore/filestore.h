#ifndef LLB_FILESTORE_FILESTORE_H_
#define LLB_FILESTORE_FILESTORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/database.h"
#include "filestore/file_ops.h"

namespace llb {

/// A recoverable store of fixed-size "files" (arrays of int64 records
/// spanning several pages) — the paper's file-system recovery example
/// domain (section 1.1). Copy and Sort are *general logical operations*:
/// they read multiple pages and write multiple pages, logging only
/// operand identifiers. Use with WriteGraphKind::kGeneral.
class FileStore {
 public:
  /// Files occupy pages [base_page + i*pages_per_file, ...) of the
  /// partition, for i in [0, num_files).
  FileStore(Database* db, PartitionId partition, uint32_t base_page,
            uint32_t pages_per_file, uint32_t num_files);

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  /// Replaces the file's contents: one FileWrite record per page, each
  /// logging that page's values (a page past the end logs none), never a
  /// page image.
  Status WriteValues(uint32_t file_id, const std::vector<int64_t>& values);

  Result<std::vector<int64_t>> ReadValues(uint32_t file_id);

  /// Logical copy of file src into file dst.
  Status Copy(uint32_t src, uint32_t dst);

  /// Logical sort of file src into file dst.
  Status SortInto(uint32_t src, uint32_t dst);

  /// In-place deterministic transform of a file (physiological,
  /// multi-page write set).
  Status Transform(uint32_t file_id, uint64_t seed);

  std::vector<PageId> PagesOf(uint32_t file_id) const;
  uint32_t pages_per_file() const { return pages_per_file_; }
  uint32_t num_files() const { return num_files_; }
  size_t capacity_per_file() const {
    return size_t{pages_per_file_} * file_page::kRecordsPerPage;
  }

 private:
  Database* const db_;
  const PartitionId partition_;
  const uint32_t base_page_;
  const uint32_t pages_per_file_;
  const uint32_t num_files_;
};

}  // namespace llb

#endif  // LLB_FILESTORE_FILESTORE_H_
