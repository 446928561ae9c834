#include "spans.h"

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <stdexcept>

namespace e2e {

// Cache-line aligned: threads write their own buffers concurrently.
struct alignas(64) Buffer {
  std::vector<Span> spans;
  std::int32_t open = -1;  ///< innermost open span, -1 when none
};

namespace {

struct NameInfo {
  const char* name;
  const char* layer;
};

constexpr std::array<NameInfo, static_cast<std::size_t>(SpanName::kCount)>
    kNames = {{
        {"workload", "unaccounted"},
        {"minimpi.run", "minimpi"},
        {"tool.hook", "tool"},
        {"tool.select", "tool"},
        // on_window/finalize self time is the recorder's chunk building;
        // the sink and store calls below them are their own spans.
        {"tool.window", "record"},
        {"tool.finalize", "record"},
        {"compress.encode", "compress"},
        {"store.append", "store"},
        {"store.sync", "store"},
        {"store.seal", "store"},
        {"store.open", "store"},
        {"store.read", "store"},
        {"store.server_append", "store"},
        {"store.server_sync", "store"},
        {"net.connect", "net"},
        {"net.put", "net"},
        {"net.seal", "net"},
        {"net.window_fetch", "net"},
        {"oracle.check", "oracle"},
    }};

std::atomic<bool> g_enabled{false};

struct Registry {
  std::mutex mu;  ///< guards `buffers` (registration and take only)
  std::vector<std::unique_ptr<Buffer>> buffers;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The layer a span's self time is charged to in the split.
const char* span_layer(SpanName name) noexcept {
  return kNames[static_cast<std::size_t>(name)].layer;
}

Buffer* this_thread_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    Registry& r = registry();
    const std::lock_guard lock(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    buffer = r.buffers.back().get();
    buffer->spans.reserve(std::size_t{1} << 20);
  }
  return buffer;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* span_name(SpanName name) noexcept {
  return kNames[static_cast<std::size_t>(name)].name;
}

void SpanRecorder::set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool SpanRecorder::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::vector<ThreadSpans> SpanRecorder::take() {
  Registry& r = registry();
  const std::lock_guard lock(r.mu);
  std::vector<ThreadSpans> out;
  for (const auto& buffer : r.buffers) {
    if (buffer->open != -1)
      throw std::logic_error("SpanRecorder::take with a span still open");
    if (buffer->spans.empty()) continue;
    out.push_back({std::move(buffer->spans)});
    buffer->spans.clear();
  }
  return out;
}

Scope::Scope(SpanName name) noexcept {
  if (!SpanRecorder::enabled()) return;
  buffer_ = this_thread_buffer();
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->spans.push_back({now_ns(), 0, buffer_->open, name});
  buffer_->open = index_;
}

Scope::~Scope() {
  if (buffer_ == nullptr) return;
  Span& span = buffer_->spans[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  buffer_->open = span.parent;
}

TraceSummary summarise(const std::vector<ThreadSpans>& threads) {
  TraceSummary summary;
  const ThreadSpans* root_thread = nullptr;
  std::size_t root_index = 0;
  for (const ThreadSpans& t : threads) {
    // Child durations per span, for self time (children nest in parents).
    std::vector<std::uint64_t> child_ns(t.spans.size(), 0);
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
      if (s.name == SpanName::kWorkload) {
        if (root_thread != nullptr)
          throw std::logic_error("more than one workload span");
        root_thread = &t;
        root_index = i;
      }
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      SpanTotals& totals = summary.all_threads[s.name];
      ++totals.count;
      totals.total_ns += s.end_ns - s.start_ns;
      totals.self_ns += s.end_ns - s.start_ns - child_ns[i];
    }
    if (&t != root_thread) continue;
    // The split: self time of the root and of every span beneath it on
    // this thread. Nested self times sum to the root's duration exactly.
    const Span& root = t.spans[root_index];
    summary.wall_ns = root.end_ns - root.start_ns;
    std::vector<bool> under_root(t.spans.size(), false);
    for (std::size_t i = root_index; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      under_root[i] =
          i == root_index ||
          (s.parent >= 0 && under_root[static_cast<std::size_t>(s.parent)]);
      if (under_root[i])
        summary.split_ns[span_layer(s.name)] +=
            s.end_ns - s.start_ns - child_ns[i];
    }
  }
  if (root_thread == nullptr) throw std::logic_error("no workload span");
  return summary;
}

}  // namespace e2e
