#ifndef LLBENCH_OP_STREAM_H_
#define LLBENCH_OP_STREAM_H_

// Client operation streams. Op number `index` of client `client` is a
// pure function of (seed, client, index, shape): no generator state is
// carried from one op to the next, so any op of any run can be rebuilt.

#include <cstdint>
#include <vector>

namespace llbench {

enum class OpType : uint8_t { kWrite, kCopy, kRead };

struct ClientOp {
  OpType type = OpType::kRead;
  uint32_t partition = 0;
  uint32_t file = 0;  // written file (copy destination) or read file
  uint32_t src = 0;   // copy source (same partition)
  int64_t value = 0;  // seeds the written values
};

/// Where a client's ops land. Writes and copies stay in `own_partition`;
/// cold reads may also hit `cold_read_partitions`, which no client writes.
struct StreamShape {
  uint32_t own_partition = 0;
  uint32_t files = 1024;    // one-page files per partition
  uint32_t hot_files = 128;  // spread evenly over the partition; 80% of ops
  std::vector<uint32_t> cold_read_partitions;
};

/// The op mix: 60% WriteValues, 25% Copy, 15% ReadValues.
ClientOp MakeOp(uint64_t seed, uint32_t client, uint64_t index,
                const StreamShape& shape);

/// The values a write op stores.
std::vector<int64_t> WriteValuesFor(const ClientOp& op);

/// The values every file holds after set-up.
std::vector<int64_t> InitialValues(uint32_t partition, uint32_t file);

}  // namespace llbench

#endif  // LLBENCH_OP_STREAM_H_
