#include "store/compression_service.h"

#include "obs/metrics.h"
#include "support/check.h"

namespace cdc::store {

CompressionService::CompressionService(runtime::RecordStore* store)
    : CompressionService(store, Config{}) {}

CompressionService::CompressionService(runtime::RecordStore* store,
                                       const Config& config)
    : store_(store),
      queue_(config.queue_capacity),
      level_(config.level),
      pool_(config.pool_buffers) {
  CDC_CHECK(store != nullptr);
  CDC_CHECK_MSG(config.workers >= 1,
                "compression service needs at least one worker");
  workers_.reserve(config.workers);
  for (std::size_t i = 0; i < config.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

CompressionService::~CompressionService() {
  queue_.close();
  workers_.clear();  // joins
}

void CompressionService::submit(const runtime::StreamKey& key,
                                std::size_t raw_size_hint, Encoder encode,
                                std::optional<runtime::EpochMeta> epoch) {
  submit_job(key, raw_size_hint,
             [encode = std::move(encode)](std::vector<std::uint8_t>) {
               return encode();
             },
             epoch);
}

void CompressionService::submit(const runtime::StreamKey& key,
                                std::size_t raw_size_hint,
                                EncoderInto encode,
                                std::optional<runtime::EpochMeta> epoch) {
  submit_job(key, raw_size_hint, std::move(encode), epoch);
}

void CompressionService::submit_job(const runtime::StreamKey& key,
                                    std::size_t raw_size_hint,
                                    EncoderInto encode,
                                    std::optional<runtime::EpochMeta> epoch) {
  // submit_mutex_ makes ticket order equal queue order, which in-order
  // commit relies on: FIFO pops then guarantee the lowest outstanding
  // ticket is always held by some worker, never stranded behind blocked
  // ones. It must NOT be the commit mutex — push() blocks on a full
  // queue, and workers need the commit mutex to drain it.
  static obs::Counter& obs_jobs = obs::counter("store.service.jobs");
  static obs::Counter& obs_raw = obs::counter("store.service.raw_bytes");
  static obs::Counter& obs_stalls =
      obs::counter("store.service.submit_stalls");
  static obs::Histogram& obs_depth =
      obs::histogram("store.service.queue_depth");
  if (failed_.load()) std::rethrow_exception(error_);
  const std::lock_guard<std::mutex> lock(submit_mutex_);
  if (obs::enabled()) {
    // A full queue means this push is about to block on back-pressure.
    if (queue_.size() >= queue_.capacity()) obs_stalls.add(1);
  }
  Job job;
  job.key = key;
  job.raw_size = raw_size_hint;
  job.encode = std::move(encode);
  job.epoch = epoch;
  job.ticket = next_ticket_;
  const bool pushed = queue_.push(std::move(job));
  CDC_CHECK_MSG(pushed, "submit after the compression service stopped");
  ++next_ticket_;
  raw_bytes_ += raw_size_hint;
  obs_jobs.add(1);
  obs_raw.add(raw_size_hint);
  if (obs::enabled()) obs_depth.record(queue_.size());
}

void CompressionService::worker_loop() {
  static obs::Histogram& obs_encode_ns =
      obs::histogram("store.service.encode_ns");
  static obs::Counter& obs_pool_hits = obs::counter("store.pool.hits");
  static obs::Counter& obs_pool_misses = obs::counter("store.pool.misses");
  static obs::Counter& obs_pool_recycled =
      obs::counter("store.pool.recycled_bytes");
  Job job;
  std::vector<std::uint8_t> buf;
  while (queue_.pop(job)) {
    if (pool_.acquire(buf)) {
      obs_pool_hits.add(1);
      obs_pool_recycled.add(buf.capacity());
    } else {
      obs_pool_misses.add(1);
    }
    const obs::Stopwatch sw;
    std::vector<std::uint8_t> encoded;
    std::exception_ptr encode_error;
    try {
      encoded = job.encode(std::move(buf));
    } catch (...) {
      encode_error = std::current_exception();
    }
    obs_encode_ns.record(sw.ns());
    commit_in_order(job, encoded, encode_error);
    // The store copied the bytes; the capacity goes back to the pool.
    pool_.release(std::move(encoded));
  }
}

void CompressionService::commit_in_order(
    const Job& job, const std::vector<std::uint8_t>& encoded,
    std::exception_ptr encode_error) {
  static obs::Histogram& obs_wait_ns =
      obs::histogram("store.service.commit_wait_ns");
  static obs::Counter& obs_encoded =
      obs::counter("store.service.encoded_bytes");
  const obs::Stopwatch sw;
  std::unique_lock<std::mutex> lock(commit_mutex_);
  commit_cv_.wait(lock, [&] { return next_commit_ == job.ticket; });
  obs_wait_ns.record(sw.ns());
  // After the first error the ticket still advances, so drain() and the
  // destructor never wait on a job that will not be appended.
  if (error_ == nullptr) {
    try {
      if (encode_error != nullptr) std::rethrow_exception(encode_error);
      if (job.epoch.has_value())
        store_->append_epoch(job.key, encoded, *job.epoch);
      else
        store_->append(job.key, encoded);
      encoded_bytes_ += encoded.size();
      obs_encoded.add(encoded.size());
    } catch (...) {
      error_ = std::current_exception();
      failed_.store(true);
    }
  }
  ++next_commit_;
  commit_cv_.notify_all();
}

void CompressionService::drain() {
  std::uint64_t submitted = 0;
  {
    const std::lock_guard<std::mutex> lock(submit_mutex_);
    submitted = next_ticket_;
  }
  std::unique_lock<std::mutex> lock(commit_mutex_);
  commit_cv_.wait(lock, [&] { return next_commit_ >= submitted; });
  if (error_ != nullptr) std::rethrow_exception(error_);
}

CompressionService::Stats CompressionService::stats() const {
  Stats stats;
  {
    const std::lock_guard<std::mutex> lock(submit_mutex_);
    stats.raw_bytes = raw_bytes_;
  }
  {
    const std::lock_guard<std::mutex> lock(commit_mutex_);
    stats.jobs = next_commit_;
    stats.encoded_bytes = encoded_bytes_;
  }
  stats.workers = workers_.size();
  stats.pool = pool_.stats();
  return stats;
}

}  // namespace cdc::store
