#include "tool/async_recorder.h"

#include <chrono>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cdc::tool {

namespace {

std::unique_ptr<store::CompressionService> make_service(
    const AsyncRecorder::Config& config, runtime::RecordStore* store) {
  if (config.compression_workers == 0) return nullptr;
  store::CompressionService::Config service_config;
  service_config.workers = config.compression_workers;
  service_config.queue_capacity = config.compression_queue_capacity;
  // One source of truth for the level: jobs are stamped from the same
  // ToolOptions, so inline and service paths stay bit-identical.
  service_config.level = config.options.level;
  return std::make_unique<store::CompressionService>(store, service_config);
}

}  // namespace

AsyncRecorder::AsyncRecorder(const Config& config,
                             runtime::RecordStore* store)
    : recorder_(config.key, config.options),
      service_(make_service(config, store)),
      sink_(service_ != nullptr
                ? static_cast<std::unique_ptr<FrameSink>>(
                      std::make_unique<AsyncFrameSink>(service_.get()))
                : std::make_unique<InlineFrameSink>(store)),
      queue_(config.queue_capacity),
      worker_([this](std::stop_token stop) { worker_loop(stop); }) {
  CDC_CHECK(store != nullptr);
}

AsyncRecorder::~AsyncRecorder() { finalize(); }

bool AsyncRecorder::try_enqueue(const record::ReceiveEvent& event) {
  CDC_CHECK_MSG(!finalized_.load(std::memory_order_relaxed),
                "enqueue after finalize");
  if (!queue_.try_push(event)) return false;
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& obs_enqueued = obs::counter("tool.async.enqueued");
  obs_enqueued.add(1);
  return true;
}

void AsyncRecorder::enqueue(const record::ReceiveEvent& event) {
  if (try_enqueue(event)) return;
  stalls_.fetch_add(1, std::memory_order_relaxed);
  static obs::Counter& obs_stalls =
      obs::counter("tool.async.producer_stalls");
  obs_stalls.add(1);
  // Bounded-queue back-pressure: spin with progressive backoff.
  int spins = 0;
  while (!try_enqueue(event)) {
    if (++spins > 64) {
      std::this_thread::yield();
    }
  }
}

void AsyncRecorder::worker_loop(std::stop_token stop) {
  static obs::Counter& obs_dequeued = obs::counter("tool.async.dequeued");
  record::ReceiveEvent event;
  for (;;) {
    bool drained_any = false;
    while (queue_.try_pop(event)) {
      drained_any = true;
      dequeued_.fetch_add(1, std::memory_order_relaxed);
      obs_dequeued.add(1);
      if (event.flag) {
        recorder_.on_delivered(event);
      } else {
        recorder_.on_unmatched_test();
      }
      recorder_.flush_if_due(*sink_);
    }
    if (!drained_any) {
      if (stop.stop_requested()) return;
      std::this_thread::yield();
    }
  }
}

void AsyncRecorder::finalize() {
  if (finalized_.exchange(true)) return;
  obs::TraceSpan drain_span("async.finalize_drain");
  // Wait until the consumer has drained everything we enqueued.
  while (dequeued_.load(std::memory_order_acquire) <
         enqueued_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  worker_.request_stop();
  worker_.join();
  recorder_.finalize(*sink_);
  // Everything is submitted; wait for the service workers to commit.
  if (service_ != nullptr) service_->drain();
}

}  // namespace cdc::tool
