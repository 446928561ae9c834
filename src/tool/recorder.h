// The record-mode tool session (Figure 2, left; Figure 11 record path).
//
// Implements MiniMPI's interposition hooks: piggybacks Lamport clocks on
// sends, observes every application-level receive event, and feeds the
// per-(rank, callsite) stream recorders. Matching behaviour is passed
// through unchanged — recording never alters the run.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "clock/lamport.h"
#include "minimpi/hooks.h"
#include "runtime/storage.h"
#include "tool/frame_sink.h"
#include "tool/options.h"
#include "tool/stream_recorder.h"

namespace cdc::tool {

class Recorder : public minimpi::ToolHooks {
 public:
  /// `sink` routes sealed chunks to their encoder: null means encode
  /// inline into `store` (the seed path); pass an AsyncFrameSink to run
  /// the entropy stage on a store::CompressionService worker pool. The
  /// sink must outlive the recorder and commit into `store`.
  Recorder(int num_ranks, runtime::RecordStore* store,
           const ToolOptions& options = {}, FrameSink* sink = nullptr);

  // --- ToolHooks
  std::uint64_t on_send(minimpi::Rank sender) override;
  minimpi::SelectResult select(minimpi::Rank rank,
                               minimpi::CallsiteId callsite,
                               minimpi::MFKind kind,
                               std::span<const minimpi::Candidate> candidates,
                               std::size_t total_requests,
                               bool blocking) override;
  void on_unmatched_test(minimpi::Rank rank,
                         minimpi::CallsiteId callsite) override;
  void on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                  minimpi::MFKind kind,
                  std::span<const minimpi::Completion> events) override;
  /// Parallel executor attached. Per-rank state (clocks, digests, streams)
  /// is owner-serialized by the one-task-per-rank-per-window rule, so
  /// lookups take no lock. on_deliver still builds chunks, on the rank's
  /// worker, but stages the frames on their stream for on_window.
  void on_parallel_start(int workers) override;
  /// Window quiesce point: submits the staged frames in canonical key
  /// order (so the container is the same for every worker count), then
  /// checkpoints.
  void on_window(double horizon) override;

  /// Submits any staged frames, then flushes every stream; call once after
  /// Simulator::run() returns.
  void finalize();

  /// Checkpoint syncs that threw IoError (see ToolOptions::
  /// checkpoint_interval; 0 with a retrying or fault-free store).
  [[nodiscard]] std::uint64_t checkpoint_failures() const noexcept {
    return checkpoint_failures_;
  }

  // --- Introspection for the evaluation harnesses.
  /// Every stream's StreamRecorder::Stats, summed.
  using Totals = StreamRecorder::Stats;
  [[nodiscard]] Totals totals() const;

  /// Np / N per rank (Figure 14).
  [[nodiscard]] std::vector<double> permutation_percentages() const;

  /// Received-clock series of the clock_trace_rank (Figure 1).
  [[nodiscard]] const std::vector<std::uint64_t>& clock_trace() const {
    return clock_trace_;
  }

  /// Order-sensitive digest of every rank's receive-event stream, combined
  /// across ranks order-insensitively (per-rank order is the replayed
  /// property; cross-rank interleaving is not).
  [[nodiscard]] std::uint64_t order_digest() const;

 private:
  /// One (rank, callsite) stream. As a FrameSink it stages the frames its
  /// recorder builds in parallel mode until the next window barrier.
  struct Stream final : FrameSink {
    Stream(const runtime::StreamKey& key, const ToolOptions& options)
        : rec(key, options) {}
    void submit(const runtime::StreamKey& /*key*/, FrameJob job) override {
      staged.push_back(std::move(job));
    }
    StreamRecorder rec;
    std::vector<FrameJob> staged;
  };

  Stream& stream(minimpi::Rank rank, minimpi::CallsiteId callsite);
  /// Hands every due stream's staged frames to the sink in key order;
  /// returns how many frames it submitted.
  std::uint64_t submit_due();
  /// Issues a store durability barrier once enough chunks have flushed.
  void checkpoint(std::uint64_t new_chunks);

  ToolOptions options_;
  runtime::RecordStore* store_;
  InlineFrameSink inline_sink_;
  FrameSink* sink_;  ///< &inline_sink_ unless the caller provided one
  /// Set by on_parallel_start: built frames are staged until on_window.
  bool staged_ = false;
  std::vector<clock::LamportClock> clocks_;
  /// Per rank, that rank's streams sorted by callsite. Only the rank's
  /// owning worker touches its row; the pointers stay put for due_.
  std::vector<std::vector<std::unique_ptr<Stream>>> streams_;
  std::mutex due_mu_;         ///< guards due_ only
  std::vector<Stream*> due_;  ///< streams whose staged list is non-empty
  std::vector<std::uint64_t> clock_trace_;
  std::vector<std::uint64_t> digests_;
  std::uint64_t chunks_since_checkpoint_ = 0;
  std::uint64_t checkpoint_failures_ = 0;
};

}  // namespace cdc::tool
