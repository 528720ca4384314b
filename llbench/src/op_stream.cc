#include "op_stream.h"

namespace llbench {

namespace {

constexpr uint64_t kHotPercent = 80;

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

uint32_t PickFile(uint64_t draw, uint64_t hot_draw, const StreamShape& shape) {
  if (hot_draw % 100 < kHotPercent && shape.hot_files > 0) {
    uint32_t stride = shape.files / shape.hot_files;
    if (stride == 0) stride = 1;
    return static_cast<uint32_t>((draw % shape.hot_files) * stride) %
           shape.files;
  }
  return static_cast<uint32_t>(draw % shape.files);
}

}  // namespace

ClientOp MakeOp(uint64_t seed, uint32_t client, uint64_t index,
                const StreamShape& shape) {
  uint64_t h = Mix(Mix(Mix(seed) ^ client) ^ index);
  const uint64_t kind_draw = h % 100;
  h = Mix(h);
  const uint64_t hot_draw = h;
  h = Mix(h);
  const uint64_t file_draw = h;

  ClientOp op;
  op.partition = shape.own_partition;
  op.file = PickFile(file_draw, hot_draw, shape);
  if (kind_draw < 60) {
    op.type = OpType::kWrite;
    h = Mix(h);
    op.value = static_cast<int64_t>(h >> 2);
  } else if (kind_draw < 85) {
    op.type = OpType::kCopy;
    h = Mix(h);
    const uint64_t src_hot = h;
    h = Mix(h);
    op.src = PickFile(h, src_hot, shape);
    if (op.src == op.file) op.file = (op.file + 1) % shape.files;
  } else {
    op.type = OpType::kRead;
    const bool cold = hot_draw % 100 >= kHotPercent;
    if (cold && !shape.cold_read_partitions.empty()) {
      h = Mix(h);
      const uint64_t choices = shape.cold_read_partitions.size() + 1;
      const uint64_t pick = h % choices;
      if (pick > 0) op.partition = shape.cold_read_partitions[pick - 1];
    }
  }
  return op;
}

std::vector<int64_t> WriteValuesFor(const ClientOp& op) {
  return {op.value, op.value ^ 0x5555, op.value / 3 + 1, op.value % 1000};
}

std::vector<int64_t> InitialValues(uint32_t partition, uint32_t file) {
  return {static_cast<int64_t>(partition) * 100000 + file, 0};
}

}  // namespace llbench
