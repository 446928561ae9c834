#include "tool/frame_sink.h"

#include "obs/metrics.h"
#include "store/compression_service.h"
#include "support/check.h"

namespace cdc::tool {

namespace {

/// Encodes `job` into `scratch`'s recycled capacity and appends the frame
/// to `store`. Counts the scratch reuse under the same obs names the
/// CompressionService pool uses, so record_inspector --stats sees one
/// consolidated pool hit-rate regardless of which path encoded.
void encode_and_append(runtime::RecordStore& store,
                       const runtime::StreamKey& key, const FrameJob& job,
                       std::vector<std::uint8_t>& scratch) {
  static obs::Counter& pool_hits = obs::counter("store.pool.hits");
  static obs::Counter& pool_misses = obs::counter("store.pool.misses");
  static obs::Counter& pool_recycled =
      obs::counter("store.pool.recycled_bytes");
  if (scratch.capacity() > 0) {
    pool_hits.add(1);
    pool_recycled.add(scratch.capacity());
  } else {
    pool_misses.add(1);
  }
  std::vector<std::uint8_t> encoded =
      encode_frame_into(job, std::move(scratch));
  if (job.epoch.has_value())
    store.append_epoch(key, encoded, *job.epoch);
  else
    store.append(key, encoded);
  scratch = std::move(encoded);  // the store copied; keep the capacity
}

}  // namespace

InlineFrameSink::InlineFrameSink(runtime::RecordStore* store)
    : store_(store) {
  CDC_CHECK(store != nullptr);
}

void InlineFrameSink::submit(const runtime::StreamKey& key, FrameJob job) {
  encode_and_append(*store_, key, job, scratch_);
}

AsyncFrameSink::AsyncFrameSink(store::CompressionService* service)
    : service_(service) {
  CDC_CHECK(service != nullptr);
}

void AsyncFrameSink::submit(const runtime::StreamKey& key, FrameJob job) {
  const std::size_t raw_size = job.payload.size();
  const std::optional<runtime::EpochMeta> epoch = job.epoch;
  service_->submit(
      key, raw_size,
      store::CompressionService::EncoderInto(
          [job = std::move(job)](std::vector<std::uint8_t> reuse) {
            return encode_frame_into(job, std::move(reuse));
          }),
      epoch);
}

RetryingFrameSink::RetryingFrameSink(runtime::RecordStore* store,
                                     const store::RetryPolicy& policy,
                                     std::string quarantine_path)
    : retrying_(store, policy, std::move(quarantine_path)) {}

void RetryingFrameSink::submit(const runtime::StreamKey& key, FrameJob job) {
  encode_and_append(retrying_, key, job, scratch_);  // or quarantined
}

}  // namespace cdc::tool
