#include "store/compression_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>

#include "runtime/storage.h"
#include "store/quota.h"
#include "tool/frame.h"
#include "tool/frame_sink.h"

namespace cdc::store {
namespace {

runtime::StreamKey key(std::int32_t rank, std::uint32_t callsite = 0) {
  return runtime::StreamKey{rank, callsite};
}

/// Submits a job queued after a failing one. submit() rethrows a failure
/// a worker has already recorded, so depending on timing the job is
/// refused here or dropped later; drain() reports the failure either way.
template <typename Error, typename Encode>
void submit_after_failure(CompressionService& service, std::size_t raw_size,
                          Encode encode) {
  try {
    service.submit(key(0), raw_size, std::move(encode));
  } catch (const Error&) {
  }
}

TEST(CompressionService, CommitsInSubmissionOrderDespiteSlowEarlyJobs) {
  runtime::MemoryStore store;
  CompressionService::Config config;
  config.workers = 4;
  CompressionService service(&store, config);
  // Early jobs sleep, later ones finish instantly: a service that
  // committed on completion order would interleave them.
  for (std::uint8_t i = 0; i < 32; ++i) {
    service.submit(key(0), 1, [i] {
      if (i % 4 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return std::vector<std::uint8_t>{i};
    });
  }
  service.drain();
  const auto stream = store.read(key(0));
  ASSERT_EQ(stream.size(), 32u);
  for (std::uint8_t i = 0; i < 32; ++i) EXPECT_EQ(stream[i], i);
}

TEST(CompressionService, DrainThenSubmitMoreKeepsWorking) {
  runtime::MemoryStore store;
  CompressionService service(&store);
  service.submit(key(1), 1, [] { return std::vector<std::uint8_t>{1}; });
  service.drain();
  EXPECT_EQ(store.read(key(1)).size(), 1u);
  service.submit(key(1), 1, [] { return std::vector<std::uint8_t>{2}; });
  service.drain();
  EXPECT_EQ(store.read(key(1)), (std::vector<std::uint8_t>{1, 2}));
}

TEST(CompressionService, DestructorDrainsOutstandingJobs) {
  runtime::MemoryStore store;
  {
    CompressionService::Config config;
    config.workers = 2;
    config.queue_capacity = 4;
    CompressionService service(&store, config);
    for (int i = 0; i < 16; ++i)
      service.submit(key(0), 1, [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return std::vector<std::uint8_t>{7};
      });
  }
  EXPECT_EQ(store.read(key(0)).size(), 16u);
}

TEST(CompressionService, StatsAccounting) {
  runtime::MemoryStore store;
  CompressionService::Config config;
  config.workers = 3;
  CompressionService service(&store, config);
  for (int i = 0; i < 10; ++i)
    service.submit(key(i % 2), 100,
                   [] { return std::vector<std::uint8_t>(40, 0); });
  service.drain();
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs, 10u);
  EXPECT_EQ(stats.raw_bytes, 1000u);
  EXPECT_EQ(stats.encoded_bytes, 400u);
  EXPECT_EQ(stats.workers, 3u);
}

TEST(CompressionService, BoundedQueueBackPressuresSubmitters) {
  runtime::MemoryStore store;
  CompressionService::Config config;
  config.workers = 1;
  config.queue_capacity = 2;
  CompressionService service(&store, config);
  // 50 slow jobs through a 2-deep queue: submit must block, not drop.
  for (int i = 0; i < 50; ++i)
    service.submit(key(0), 1, [] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return std::vector<std::uint8_t>{1};
    });
  service.drain();
  EXPECT_EQ(store.read(key(0)).size(), 50u);
}

TEST(CompressionService, StoreErrorFailsTheServiceNotTheProcess) {
  // A store that throws on a worker must not reach std::terminate: the
  // first error is kept, later jobs are dropped, and drain() and submit()
  // rethrow it. The destructor must not hang on the dropped tickets.
  runtime::MemoryStore memory;
  QuotaStore quota(&memory, 100);
  {
    CompressionService::Config config;
    config.workers = 3;
    CompressionService service(&quota, config);
    for (std::uint8_t i = 0; i < 5; ++i)
      service.submit(key(0), 20,
                     [i] { return std::vector<std::uint8_t>(20, i); });
    for (std::uint8_t i = 5; i < 10; ++i)
      submit_after_failure<QuotaExceeded>(
          service, 20, [i] { return std::vector<std::uint8_t>(20, i); });
    EXPECT_THROW(service.drain(), QuotaExceeded);
    // The failure is sticky: drain() keeps reporting it, submit() refuses.
    EXPECT_THROW(service.drain(), QuotaExceeded);
    EXPECT_THROW(service.submit(key(0), 1,
                                [] { return std::vector<std::uint8_t>{1}; }),
                 QuotaExceeded);
  }
  // What did land is the in-order prefix that fit the budget.
  const auto stream = memory.read(key(0));
  ASSERT_EQ(stream.size(), 100u);
  for (std::size_t b = 0; b < stream.size(); ++b)
    EXPECT_EQ(stream[b], b / 20) << "byte " << b;
}

TEST(CompressionService, EncoderErrorFailsTheService) {
  runtime::MemoryStore store;
  CompressionService service(&store);
  service.submit(key(0), 1, [] { return std::vector<std::uint8_t>{1}; });
  service.submit(key(0), 1, []() -> std::vector<std::uint8_t> {
    throw std::runtime_error("encoder failed");
  });
  submit_after_failure<std::runtime_error>(
      service, 1, [] { return std::vector<std::uint8_t>{3}; });
  EXPECT_THROW(service.drain(), std::runtime_error);
  EXPECT_EQ(store.read(key(0)), (std::vector<std::uint8_t>{1}));
}

TEST(AsyncFrameSink, ProducesBitIdenticalStreamsToInline) {
  // The headline property: the parallel path stores the same bytes.
  std::vector<tool::FrameJob> jobs;
  for (int i = 0; i < 24; ++i) {
    tool::FrameJob job;
    job.codec = static_cast<std::uint8_t>(i % 4);
    job.meta = static_cast<std::uint64_t>(i);
    job.compress = i % 4 != 0;
    std::vector<std::uint8_t> payload(256 + i * 17);
    for (std::size_t b = 0; b < payload.size(); ++b)
      payload[b] = static_cast<std::uint8_t>((b * (i + 1)) % 7);
    job.payload = std::move(payload);
    jobs.push_back(std::move(job));
  }

  runtime::MemoryStore inline_store;
  tool::InlineFrameSink inline_sink(&inline_store);
  for (const auto& job : jobs) inline_sink.submit(key(0), job);

  runtime::MemoryStore parallel_store;
  CompressionService::Config config;
  config.workers = 4;
  CompressionService service(&parallel_store, config);
  tool::AsyncFrameSink async_sink(&service);
  for (const auto& job : jobs) async_sink.submit(key(0), job);
  service.drain();

  EXPECT_EQ(inline_store.read(key(0)), parallel_store.read(key(0)));
  EXPECT_EQ(service.stats().encoded_bytes, inline_store.total_bytes());
}

TEST(CompressionService, PoolMakesSteadyStateFrameEncodingAllocationFree) {
  // 1000 small frames through the worker pool: after each worker's first
  // job allocates an output buffer, every later encode must reuse pooled
  // capacity — the pool counters are the allocation audit. A regression
  // that drops buffers instead of recycling them shows up as misses.
  runtime::MemoryStore store;
  CompressionService::Config config;
  config.workers = 4;
  CompressionService service(&store, config);
  tool::AsyncFrameSink sink(&service);

  constexpr std::uint64_t kJobs = 1000;
  for (std::uint64_t i = 0; i < kJobs; ++i) {
    tool::FrameJob job;
    job.meta = i;
    job.payload.assign(96, static_cast<std::uint8_t>(i % 5));
    sink.submit(key(0), std::move(job));
  }
  service.drain();

  const auto pool = service.stats().pool;
  EXPECT_EQ(pool.hits + pool.misses, kJobs);
  // Each worker holds at most one buffer at a time and the pool retains
  // more buffers than there are workers, so only a worker's very first
  // acquire can find the freelist empty.
  EXPECT_LE(pool.misses, static_cast<std::uint64_t>(config.workers));
  EXPECT_GE(pool.hits, kJobs - config.workers);
  EXPECT_GT(pool.recycled_bytes, 0u);
  EXPECT_EQ(pool.dropped, 0u);
}

}  // namespace
}  // namespace cdc::store
