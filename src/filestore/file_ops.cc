#include "filestore/file_ops.h"

#include <algorithm>
#include <vector>

#include "common/coding.h"

namespace llb {

namespace file_page {

uint32_t Count(const PageImage& page) {
  uint32_t n = DecodeFixed32(page.payload().data());
  return std::min<uint32_t>(n, kRecordsPerPage);  // defensive clamp
}

int64_t ValueAt(const PageImage& page, size_t i) {
  return static_cast<int64_t>(DecodeFixed64(page.payload().data() + 4 + 8 * i));
}

void SetValues(PageImage* page, const int64_t* values, size_t n) {
  n = std::min(n, kRecordsPerPage);
  char* p = page->mutable_payload();
  EncodeFixed32(p, static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    EncodeFixed64(p + 4 + 8 * i, static_cast<uint64_t>(values[i]));
  }
  page->set_type(PageType::kFile);
}

}  // namespace file_page

namespace {

uint64_t Mix(uint64_t value, uint64_t seed) {
  uint64_t z = value + seed + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<int64_t> GatherValues(OpContext& ctx,
                                  const std::vector<PageId>& pages,
                                  Status* status) {
  std::vector<int64_t> values;
  for (const PageId& id : pages) {
    PageImage page;
    *status = ctx.Read(id, &page);
    if (!status->ok()) return values;
    uint32_t n = file_page::Count(page);
    for (uint32_t i = 0; i < n; ++i) {
      values.push_back(file_page::ValueAt(page, i));
    }
  }
  return values;
}

Status ScatterValues(OpContext& ctx, const std::vector<PageId>& pages,
                     const std::vector<int64_t>& values) {
  size_t offset = 0;
  for (const PageId& id : pages) {
    size_t n = std::min(file_page::kRecordsPerPage, values.size() - offset);
    PageImage page;
    file_page::SetValues(&page, values.data() + offset, n);
    offset += n;
    LLB_RETURN_IF_ERROR(ctx.Write(id, page));
  }
  return Status::OK();
}

// A blind write of one file page: the payload is the page's values, 8
// bytes each, and the page is rebuilt from them exactly as WriteValues
// built it. A record of any other shape is refused before its payload is
// read.
Status ApplyFileWrite(OpContext& ctx, const LogRecord& rec) {
  if (!rec.readset.empty() || rec.writeset.size() != 1) {
    return Status::Corruption("file write must blind-write one page");
  }
  if (rec.payload.size() % 8 != 0 ||
      rec.payload.size() / 8 > file_page::kRecordsPerPage) {
    return Status::Corruption("file write payload is not one page's values");
  }
  std::vector<int64_t> values(rec.payload.size() / 8);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] =
        static_cast<int64_t>(DecodeFixed64(rec.payload.data() + 8 * i));
  }
  PageImage page;
  file_page::SetValues(&page, values.data(), values.size());
  return ctx.Write(rec.writeset[0], page);
}

Status ApplyCopy(OpContext& ctx, const LogRecord& rec) {
  // Page-wise copy: readset[i] -> writeset[i]. Tolerates a size mismatch
  // (defensive) by copying the overlapping prefix and zero-filling.
  for (size_t i = 0; i < rec.writeset.size(); ++i) {
    PageImage out;
    if (i < rec.readset.size()) {
      LLB_RETURN_IF_ERROR(ctx.Read(rec.readset[i], &out));
      out.set_lsn(0);  // engine stamps the record LSN on commit
      out.set_type(PageType::kFile);
    }
    LLB_RETURN_IF_ERROR(ctx.Write(rec.writeset[i], out));
  }
  return Status::OK();
}

Status ApplySort(OpContext& ctx, const LogRecord& rec) {
  Status status = Status::OK();
  std::vector<int64_t> values = GatherValues(ctx, rec.readset, &status);
  LLB_RETURN_IF_ERROR(status);
  std::sort(values.begin(), values.end());
  values.resize(
      std::min(values.size(),
               rec.writeset.size() * file_page::kRecordsPerPage));
  return ScatterValues(ctx, rec.writeset, values);
}

Status ApplyTransform(OpContext& ctx, const LogRecord& rec) {
  SliceReader reader{Slice(rec.payload)};
  uint64_t seed = 0;
  if (!reader.ReadFixed64(&seed)) seed = 0;
  for (const PageId& id : rec.writeset) {
    PageImage page;
    LLB_RETURN_IF_ERROR(ctx.Read(id, &page));
    uint32_t n = file_page::Count(page);
    std::vector<int64_t> values(n);
    for (uint32_t i = 0; i < n; ++i) {
      values[i] =
          static_cast<int64_t>(Mix(
              static_cast<uint64_t>(file_page::ValueAt(page, i)), seed));
    }
    file_page::SetValues(&page, values.data(), values.size());
    LLB_RETURN_IF_ERROR(ctx.Write(id, page));
  }
  return Status::OK();
}

}  // namespace

void RegisterFileOps(OpRegistry* registry) {
  registry->Register(kOpFileCopy, ApplyCopy);
  registry->Register(kOpFileSort, ApplySort);
  registry->Register(kOpFileWrite, ApplyFileWrite);
  registry->Register(kOpFileTransform, ApplyTransform);
}

LogRecord MakeFileWrite(const PageId& id, const int64_t* values, size_t n) {
  LogRecord rec;
  rec.op_code = kOpFileWrite;
  rec.writeset = {id};
  rec.payload.reserve(8 * n);
  for (size_t i = 0; i < n; ++i) {
    PutFixed64(&rec.payload, static_cast<uint64_t>(values[i]));
  }
  return rec;
}

LogRecord MakeFileCopy(const std::vector<PageId>& src,
                       const std::vector<PageId>& dst) {
  LogRecord rec;
  rec.op_code = kOpFileCopy;
  rec.readset = src;
  rec.writeset = dst;
  return rec;
}

LogRecord MakeFileSort(const std::vector<PageId>& src,
                       const std::vector<PageId>& dst) {
  LogRecord rec;
  rec.op_code = kOpFileSort;
  rec.readset = src;
  rec.writeset = dst;
  return rec;
}

LogRecord MakeFileTransform(const std::vector<PageId>& pages, uint64_t seed) {
  LogRecord rec;
  rec.op_code = kOpFileTransform;
  rec.readset = pages;
  rec.writeset = pages;
  PutFixed64(&rec.payload, seed);
  return rec;
}

}  // namespace llb
