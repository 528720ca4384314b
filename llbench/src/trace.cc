#include "trace.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

namespace llbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{1};

struct OpenSpan {
  uint64_t id;
  const char* name;
  int64_t start_ns;
};

thread_local std::vector<OpenSpan> t_stack;
thread_local uint32_t t_thread = 0;

std::string LayerOf(const char* name) {
  std::string full(name);
  size_t dot = full.find('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

SpanRecorder::ThreadBuffer* SpanRecorder::LocalBuffer() {
  // The recorder is never destroyed, so the raw pointer stays valid.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_shared<ThreadBuffer>();
    buffer = owned.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(owned));
  }
  return buffer;
}

uint64_t SpanRecorder::Begin(const char* name) {
  if (!enabled()) return 0;
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  uint64_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  t_stack.push_back(OpenSpan{id, name, NowNs()});
  return id;
}

void SpanRecorder::End(uint64_t id) {
  if (id == 0 || t_stack.empty() || t_stack.back().id != id) return;
  OpenSpan open = t_stack.back();
  t_stack.pop_back();
  Span span;
  span.id = open.id;
  span.parent = t_stack.empty() ? 0 : t_stack.back().id;
  span.name = open.name;
  span.start_ns = open.start_ns;
  span.end_ns = NowNs();
  span.thread = t_thread;
  ThreadBuffer* buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(span);
}

std::vector<Span> SpanRecorder::Collect() const {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
  }
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }

  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (size_t c : children[i]) {
      int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : covered) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) union_ns += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) union_ns += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

std::map<std::string, LayerTime> ReduceByLayer(const std::vector<Span>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, LayerTime> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = out[LayerOf(spans[i].name)];
    ++layer.spans;
    layer.self_ns += self[i];
  }
  return out;
}

}  // namespace llbench
