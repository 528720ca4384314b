#ifndef LLB_FILESTORE_FILE_OPS_H_
#define LLB_FILESTORE_FILE_OPS_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "ops/op_registry.h"
#include "wal/log_record.h"

namespace llb {

/// Registers the file-store operation apply functions.
void RegisterFileOps(OpRegistry* registry);

/// File pages hold sorted/unsorted int64 records:
///   payload[0..4)  record count (u32)
///   payload[4..)   records (i64 each)
namespace file_page {
inline constexpr size_t kRecordsPerPage = 500;
uint32_t Count(const PageImage& page);
int64_t ValueAt(const PageImage& page, size_t i);
void SetValues(PageImage* page, const int64_t* values, size_t n);
}  // namespace file_page

/// FileWrite(X, values): blind write of one file page, logging only its
/// `n` values (8 bytes each, n <= kRecordsPerPage), not the 4 KiB image.
/// Replay rebuilds the page WriteValues built, byte for byte.
LogRecord MakeFileWrite(const PageId& id, const int64_t* values, size_t n);

/// Copy(X, Y): general logical operation reading every page of X and
/// writing every page of Y — "only source and target file identifiers are
/// logged" (paper 1.1).
LogRecord MakeFileCopy(const std::vector<PageId>& src,
                       const std::vector<PageId>& dst);

/// Sort(X, Y): reads X's records, writes them sorted into Y. "This same
/// operation form describes a sort" (paper 1.1).
LogRecord MakeFileSort(const std::vector<PageId>& src,
                       const std::vector<PageId>& dst);

/// Transform(X, seed): physiological multi-page operation rewriting X's
/// records in place (deterministic mix with seed). Exercises write-graph
/// nodes with |vars| > 1 and atomic multi-page flushes.
LogRecord MakeFileTransform(const std::vector<PageId>& pages, uint64_t seed);

}  // namespace llb

#endif  // LLB_FILESTORE_FILE_OPS_H_
