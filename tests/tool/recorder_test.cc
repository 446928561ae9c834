// Recorder staging under the parallel executor: worker threads build the
// chunks of their own ranks' streams in on_deliver, and on_window alone
// hands the staged frames to the sink, in StreamKey order.
#include "tool/recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "minimpi/types.h"
#include "runtime/storage.h"
#include "tool/frame_sink.h"

namespace cdc::tool {
namespace {

constexpr int kRanks = 8;
constexpr int kThreads = 4;
constexpr int kDeliveries = 14;

/// Records every submitted frame; submit() must only ever run on the
/// thread that drives on_window/finalize.
class CapturingSink final : public FrameSink {
 public:
  void submit(const runtime::StreamKey& key, FrameJob job) override {
    frames.emplace_back(key, std::move(job));
  }
  std::vector<std::pair<runtime::StreamKey, FrameJob>> frames;
};

ToolOptions staging_options() {
  ToolOptions options;
  options.chunk_target = 4;
  return options;
}

/// Feeds one rank's deliveries: callsites 2 and 0 from the start, callsite
/// 1 only late, so a rank's row gains a stream while another of its
/// streams already holds staged frames.
void deliver_rank(Recorder& recorder, minimpi::Rank rank) {
  std::uint64_t clock = 1;
  for (int i = 0; i < kDeliveries; ++i) {
    for (const minimpi::CallsiteId callsite : {2, 0, 1}) {
      if (callsite == 1 && i < kDeliveries / 2) continue;
      std::vector<minimpi::Completion> events(1 + (i % 3 == 0));
      for (std::size_t e = 0; e < events.size(); ++e) {
        events[e].source = (rank + 1 + i + static_cast<int>(e)) % kRanks;
        events[e].piggyback = clock++;
      }
      recorder.on_deliver(rank, callsite, minimpi::MFKind::kWaitsome,
                          events);
    }
  }
}

void expect_same_frames(
    const std::vector<std::pair<runtime::StreamKey, FrameJob>>& got,
    const std::vector<std::pair<runtime::StreamKey, FrameJob>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "frame " << i;
    EXPECT_EQ(got[i].second.payload, want[i].second.payload) << "frame " << i;
    ASSERT_TRUE(got[i].second.epoch.has_value());
    ASSERT_TRUE(want[i].second.epoch.has_value());
    EXPECT_EQ(got[i].second.epoch->matched, want[i].second.epoch->matched);
  }
}

/// The single-threaded run's frames, stably sorted into key order (each
/// stream keeps its own frame order).
std::vector<std::pair<runtime::StreamKey, FrameJob>> by_key(
    std::vector<std::pair<runtime::StreamKey, FrameJob>> frames) {
  std::stable_sort(frames.begin(), frames.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return frames;
}

TEST(RecorderStaging, WindowSubmitsWorkerBuiltFramesInKeyOrder) {
  // Reference: the sequential path submits each frame as it is cut.
  runtime::MemoryStore seq_store;
  CapturingSink seq_sink;
  Recorder sequential(kRanks, &seq_store, staging_options(), &seq_sink);
  for (minimpi::Rank r = 0; r < kRanks; ++r) deliver_rank(sequential, r);
  const auto seq_window = by_key(seq_sink.frames);
  ASSERT_FALSE(seq_window.empty());
  seq_sink.frames.clear();
  sequential.finalize();
  const auto seq_final = by_key(seq_sink.frames);

  // Staged: threads own disjoint ranks, as the executor's workers do.
  runtime::MemoryStore par_store;
  CapturingSink par_sink;
  Recorder staged(kRanks, &par_store, staging_options(), &par_sink);
  staged.on_parallel_start(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&staged, t] {
      for (minimpi::Rank r = t; r < kRanks; r += kThreads)
        deliver_rank(staged, r);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(par_sink.frames.empty()) << "frames must wait for on_window";

  staged.on_window(1.0);
  expect_same_frames(par_sink.frames, seq_window);
  par_sink.frames.clear();

  staged.on_window(2.0);  // nothing staged since: nothing submitted
  EXPECT_TRUE(par_sink.frames.empty());

  staged.finalize();
  expect_same_frames(par_sink.frames, seq_final);
  EXPECT_EQ(staged.totals().chunks, sequential.totals().chunks);
  EXPECT_EQ(staged.order_digest(), sequential.order_digest());
  EXPECT_EQ(staged.permutation_percentages(),
            sequential.permutation_percentages());
}

TEST(RecorderStaging, FinalizeSubmitsFramesStagedAfterTheLastWindow) {
  runtime::MemoryStore seq_store;
  CapturingSink seq_sink;
  Recorder sequential(kRanks, &seq_store, staging_options(), &seq_sink);
  deliver_rank(sequential, 3);
  auto want = by_key(seq_sink.frames);
  seq_sink.frames.clear();
  sequential.finalize();
  for (auto& frame : by_key(seq_sink.frames)) want.push_back(frame);

  runtime::MemoryStore store;
  CapturingSink sink;
  Recorder staged(kRanks, &store, staging_options(), &sink);
  staged.on_parallel_start(1);
  deliver_rank(staged, 3);
  EXPECT_TRUE(sink.frames.empty());
  staged.finalize();  // no on_window: the staged frames still come first
  expect_same_frames(sink.frames, want);
}

}  // namespace
}  // namespace cdc::tool
