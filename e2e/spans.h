// Span recorder for the benchmark's traced run.
//
// A span is one call into a layer, timed from the benchmark's side: a
// name, a start, an end and the span that was open on the same thread
// when it began (its parent). Each thread appends to its own buffer, so
// the concurrent ToolHooks calls of the parallel executor take no shared
// lock; a thread registers its buffer once, on its first span. Buffers
// are handed over with take() after the run, when every thread that
// recorded has finished or is idle.
//
// With the recorder disabled (the untraced run) a Scope reads one atomic
// flag and touches no clock.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds (std::chrono::steady_clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Span names. Each belongs to one layer of the program; `kWorkload` is
/// the root of one timed workload iteration.
enum class SpanName : std::uint16_t {
  kWorkload,
  kMinimpiRun,
  kToolHook,
  kToolSelect,
  kToolWindow,
  kToolFinalize,
  kCompressEncode,
  kStoreAppend,
  kStoreSync,
  kStoreSeal,
  kStoreOpen,
  kStoreRead,
  kStoreServerAppend,
  kStoreServerSync,
  kNetConnect,
  kNetPut,
  kNetSeal,
  kNetWindowFetch,
  kOracleCheck,
  kCount,
};

[[nodiscard]] const char* span_name(SpanName name) noexcept;

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index in the same thread's buffer; -1 = none
  SpanName name = SpanName::kWorkload;
};

/// One thread's spans, in start order.
struct ThreadSpans {
  std::vector<Span> spans;
};

/// Process-wide switch and hand-over point of the per-thread buffers.
class SpanRecorder {
 public:
  static void set_enabled(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept;
  /// Moves every thread's spans out and empties the buffers. Call only
  /// while no thread is inside a Scope.
  [[nodiscard]] static std::vector<ThreadSpans> take();
};

/// RAII span: opens on construction, closes on destruction, on the
/// calling thread. Scopes on one thread must nest (they do, being RAII).
class Scope {
 public:
  explicit Scope(SpanName name) noexcept;
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  struct Buffer* buffer_ = nullptr;
  std::int32_t index_ = -1;
};

/// Totals of one span name over a set of spans.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< inclusive durations, summed
  std::uint64_t self_ns = 0;   ///< durations minus same-thread child spans
};

/// What one traced iteration's spans say.
struct TraceSummary {
  /// Per span name, over every thread (busy time: concurrent spans add up).
  std::map<SpanName, SpanTotals> all_threads;
  /// The root span's thread only, restricted to the root's interval: the
  /// self times there partition the root's wall time exactly. Keyed by
  /// layer: "minimpi", "tool", "record", "compress", "store", "net", or
  /// "unaccounted" for the root's own self time.
  std::map<std::string, std::uint64_t> split_ns;
  std::uint64_t wall_ns = 0;  ///< duration of the root span
};

/// Summarises spans taken after one iteration. Exactly one kWorkload span
/// must exist; its thread is the critical thread whose timeline is split.
[[nodiscard]] TraceSummary summarise(const std::vector<ThreadSpans>& threads);

}  // namespace e2e
