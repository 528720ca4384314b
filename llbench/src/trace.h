#ifndef LLBENCH_TRACE_H_
#define LLBENCH_TRACE_H_

// Span recorder for the traced benchmark run. Spans are recorded from the
// benchmark's own code, around calls into the engine's public API and
// around every File call the KindEnv decorator forwards; nothing inside
// src/ is instrumented.
//
// Each thread keeps a stack of its open spans, so a span opened while
// another is open on the same thread becomes its child. Work the engine
// hands to its own pool threads (async IO) opens spans on a thread with an
// empty stack: those spans are roots ("parentless cross-thread spans") and
// are never subtracted from the caller's self time.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace llbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: root
  /// Static string "<layer>.<what>", e.g. "filestore.write", "io.log".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;
};

/// Process-wide recorder. Disabled by default; Begin/End are then a
/// relaxed atomic load each.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Opens a span on the calling thread (child of the innermost open
  /// span there). Returns 0 when disabled.
  uint64_t Begin(const char* name);
  /// Closes the innermost open span of the calling thread, which must be
  /// `id` (no-op for 0).
  void End(uint64_t id);

  /// All closed spans recorded so far, from every thread.
  std::vector<Span> Collect() const;
  void Clear();

 private:
  struct ThreadBuffer {
    std::mutex mu;
    std::vector<Span> spans;
  };
  ThreadBuffer* LocalBuffer();

  mutable std::mutex mu_;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(SpanRecorder::Get().Begin(name)) {}
  ~ScopedSpan() { SpanRecorder::Get().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  uint64_t id_;
};

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its direct children's intervals, clipped to its own interval.
/// A span whose parent is not in `spans` counts as a root.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

struct LayerTime {
  uint64_t spans = 0;
  int64_t self_ns = 0;
};

/// Counts spans and sums their self time per layer, the layer being the
/// name up to its first dot ("filestore.write" -> "filestore").
std::map<std::string, LayerTime> ReduceByLayer(const std::vector<Span>& spans);

}  // namespace llbench

#endif  // LLBENCH_TRACE_H_
