// Self-test of the benchmark's instruments: the timing wrappers must be
// transparent, and the traced split must add up to the wall time.
//
// Records a small MCB run on the parallel executor with and without the
// wrappers (tracing on), then replays it fully and through an epoch
// window both ways, and requires byte-identical sealed containers, equal
// order digests and equal per-stream traces. Exits 0 when every check
// holds; prints each failed check and exits 1 otherwise.
//
//   e2e_selftest [scratch-dir]     (default: the current directory)
#include <cstdio>
#include <filesystem>
#include <string>

#include "scenario.h"
#include "spans.h"
#include "store/container_store.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool traces_equal(const cdc::support::Trace& a, const cdc::support::Trace& b) {
  const cdc::support::OracleReport report =
      cdc::support::check_equivalence(a, b);
  if (!report.ok) std::printf("  %s\n", report.summary().c_str());
  return report.ok && report.events_compared > 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace e2e;
  const std::filesystem::path dir =
      std::filesystem::path(argc > 1 ? argv[1] : ".") / "e2e_selftest.tmp";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string plain_path = (dir / "plain.cdcc").string();
  const std::string timed_path = (dir / "timed.cdcc").string();

  const Shape shape = mcb_shape(64, 20, 16);
  constexpr int kWorkers = 2;
  constexpr std::uint64_t kSeed = 11;

  cdc::support::Trace plain_trace;
  cdc::support::Trace timed_trace;
  const RecordRun plain = record_mcb(shape, kWorkers, kSeed, plain_path,
                                     /*traced=*/false, &plain_trace);
  SpanRecorder::set_enabled(true);
  std::vector<CapturingSink::Captured> captured;
  RecordRun timed;
  {
    const Scope root(SpanName::kWorkload);
    timed = record_mcb(shape, kWorkers, kSeed, timed_path, /*traced=*/true,
                       &timed_trace, &captured);
  }
  const TraceSummary summary = summarise(SpanRecorder::take());
  SpanRecorder::set_enabled(false);

  const auto plain_bytes = file_bytes(plain_path);
  expect(!plain_bytes.empty(), "record: container written");
  expect(plain_bytes == file_bytes(timed_path),
         "record: wrapped run seals a byte-identical container");
  expect(plain.digest == timed.digest, "record: order digests equal");
  expect(traces_equal(plain_trace, timed_trace), "record: traces equal");
  expect(captured.size() == timed.totals.chunks,
         "record: one captured job per chunk");
  expect(timed.raw_bytes > 0 && timed.appended_bytes > 0,
         "record: wrappers counted bytes");

  std::uint64_t split_sum = 0;
  for (const auto& [layer, ns] : summary.split_ns) split_sum += ns;
  expect(summary.wall_ns > 0 && split_sum == summary.wall_ns,
         "split: self times plus unaccounted equal wall time");
  expect(summary.all_threads.count(SpanName::kToolWindow) == 1 &&
             summary.all_threads.count(SpanName::kStoreAppend) == 1,
         "split: window and append spans recorded");

  const auto store = cdc::store::ContainerStore::open(plain_path);
  for (const bool windowed : {false, true}) {
    const auto window =
        windowed ? std::optional<std::pair<std::uint64_t, std::uint64_t>>(
                       std::pair<std::uint64_t, std::uint64_t>{1, 2})
                 : std::nullopt;
    const ReplayRun a = replay_mcb(shape, store.get(), kSeed + 1, window,
                                   /*traced=*/false, /*probe=*/true);
    SpanRecorder::set_enabled(true);
    const ReplayRun b = replay_mcb(shape, store.get(), kSeed + 1, window,
                                   /*traced=*/true, /*probe=*/true);
    SpanRecorder::set_enabled(false);
    (void)SpanRecorder::take();
    const char* kind = windowed ? "window replay" : "full replay";
    std::printf("%s: %zu streams\n", kind, a.trace.size());
    expect(traces_equal(a.trace, b.trace), "replay: traces equal");
    expect(a.digest == b.digest, "replay: order digests equal");
    bool same_slices = a.slices.size() == b.slices.size();
    for (const auto& [key, slice] : a.slices) {
      const auto it = b.slices.find(key);
      same_slices = same_slices && it != b.slices.end() &&
                    it->second.begin == slice.begin &&
                    it->second.end == slice.end;
    }
    expect(same_slices, "replay: same window slices");
    expect(b.read_bytes > 0, "replay: wrapper counted read bytes");
    if (!windowed) {
      expect(a.fully_replayed && b.fully_replayed, "replay: fully replayed");
      expect(a.digest == plain.digest, "replay: digest matches record");
      expect(traces_equal(plain_trace, b.trace),
             "replay: wrapped replay matches the recorded trace");
    }
  }

  std::filesystem::remove_all(dir);
  std::printf("%s (%d failed checks)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
