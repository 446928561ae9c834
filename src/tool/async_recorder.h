// Asynchronous recording runtime (§4.2, Figure 11).
//
// The paper moves encoding and file I/O off the application's critical
// path: the main thread enqueues receive events into a bounded lock-free
// SPSC ring; a dedicated CDC thread dequeues, encodes (the full CDC
// pipeline) and writes to storage. The ring blocks the producer only when
// full — which §6.2 argues never happens in practice because the consumer
// drains far faster (331K events/s) than the application produces
// (258 events/s). This class realises that design with a real OS thread;
// bench/queue_rates measures both rates.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>

#include "record/event.h"
#include "runtime/spsc_queue.h"
#include "runtime/storage.h"
#include "store/compression_service.h"
#include "tool/frame_sink.h"
#include "tool/stream_recorder.h"

namespace cdc::tool {

class AsyncRecorder {
 public:
  struct Config {
    runtime::StreamKey key;
    ToolOptions options;
    std::size_t queue_capacity = 1 << 16;
    /// 0 = the seed's inline path (the worker thread DEFLATEs each chunk
    /// itself). >= 1 spins up a store::CompressionService with that many
    /// workers; the recorder worker only seals chunks and the service
    /// commits identical bytes to the store in order.
    std::size_t compression_workers = 0;
    std::size_t compression_queue_capacity = 128;
  };

  AsyncRecorder(const Config& config, runtime::RecordStore* store);

  /// Stops the worker (draining the queue) and flushes the stream.
  ~AsyncRecorder();

  AsyncRecorder(const AsyncRecorder&) = delete;
  AsyncRecorder& operator=(const AsyncRecorder&) = delete;

  /// Producer side (application thread). Spins with backoff when the ring
  /// is full — the paper's "blocks the main thread when the queue is
  /// filled up".
  void enqueue(const record::ReceiveEvent& event);

  /// Non-blocking producer variant; false when the ring is full.
  bool try_enqueue(const record::ReceiveEvent& event);

  /// Drains the queue and flushes all buffered chunks. Safe to call from
  /// the producer thread; returns once the consumer has caught up.
  void finalize();

  struct Counters {
    std::uint64_t enqueued = 0;
    std::uint64_t dequeued = 0;
    std::uint64_t producer_stalls = 0;  ///< full-ring backoff episodes
  };
  [[nodiscard]] Counters counters() const noexcept {
    return Counters{enqueued_.load(std::memory_order_relaxed),
                    dequeued_.load(std::memory_order_relaxed),
                    stalls_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const StreamRecorder::Stats& stream_stats() const noexcept {
    return recorder_.stats();
  }

 private:
  void worker_loop(std::stop_token stop);

  StreamRecorder recorder_;  ///< touched only by the worker thread
  std::unique_ptr<store::CompressionService> service_;  ///< may be null
  std::unique_ptr<FrameSink> sink_;
  runtime::SpscQueue<record::ReceiveEvent> queue_;
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dequeued_{0};
  std::atomic<std::uint64_t> stalls_{0};
  std::atomic<bool> finalized_{false};
  std::jthread worker_;
};

}  // namespace cdc::tool
