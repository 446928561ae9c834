#include "timed.h"

namespace e2e {

namespace mpi = cdc::minimpi;
namespace rt = cdc::runtime;

std::uint64_t TimedHooks::on_send(mpi::Rank sender) {
  const Scope span(SpanName::kToolHook);
  return inner_->on_send(sender);
}

mpi::SelectResult TimedHooks::select(mpi::Rank rank, mpi::CallsiteId callsite,
                                     mpi::MFKind kind,
                                     std::span<const mpi::Candidate> candidates,
                                     std::size_t total_requests,
                                     bool blocking) {
  const Scope span(SpanName::kToolSelect);
  return inner_->select(rank, callsite, kind, candidates, total_requests,
                        blocking);
}

void TimedHooks::on_unmatched_test(mpi::Rank rank, mpi::CallsiteId callsite) {
  const Scope span(SpanName::kToolHook);
  inner_->on_unmatched_test(rank, callsite);
}

void TimedHooks::on_deliver(mpi::Rank rank, mpi::CallsiteId callsite,
                            mpi::MFKind kind,
                            std::span<const mpi::Completion> events) {
  const Scope span(SpanName::kToolHook);
  inner_->on_deliver(rank, callsite, kind, events);
}

void TimedHooks::on_deadlock() { inner_->on_deadlock(); }

bool TimedHooks::on_stall() { return inner_->on_stall(); }

void TimedHooks::on_fault(mpi::FaultKind kind, mpi::Rank rank) {
  inner_->on_fault(kind, rank);
}

void TimedHooks::on_parallel_start(int workers) {
  inner_->on_parallel_start(workers);
}

void TimedHooks::on_window(double horizon) {
  const Scope span(SpanName::kToolWindow);
  inner_->on_window(horizon);
}

void TimedSink::submit(const rt::StreamKey& key, cdc::tool::FrameJob job) {
  const Scope span(SpanName::kCompressEncode);
  raw_bytes_ += job.payload.size();
  inner_->submit(key, std::move(job));
}

void CapturingSink::submit(const rt::StreamKey& key,
                           cdc::tool::FrameJob job) {
  captured_.push_back({key, job});
  inner_->submit(key, std::move(job));
}

void TimedStore::append(const rt::StreamKey& key,
                        std::span<const std::uint8_t> bytes) {
  const Scope span(append_span());
  bytes_->appended.fetch_add(bytes.size(), std::memory_order_relaxed);
  inner_->append(key, bytes);
}

void TimedStore::append_epoch(const rt::StreamKey& key,
                              std::span<const std::uint8_t> bytes,
                              const rt::EpochMeta& meta) {
  const Scope span(append_span());
  bytes_->appended.fetch_add(bytes.size(), std::memory_order_relaxed);
  inner_->append_epoch(key, bytes, meta);
}

std::vector<std::uint8_t> TimedStore::read(const rt::StreamKey& key) const {
  const Scope span(SpanName::kStoreRead);
  std::vector<std::uint8_t> bytes = inner_->read(key);
  bytes_->read.fetch_add(bytes.size(), std::memory_order_relaxed);
  return bytes;
}

std::vector<std::uint8_t> TimedStore::read_prefix(
    const rt::StreamKey& key, std::uint64_t epoch_hi) const {
  const Scope span(SpanName::kStoreRead);
  std::vector<std::uint8_t> bytes = inner_->read_prefix(key, epoch_hi);
  bytes_->read.fetch_add(bytes.size(), std::memory_order_relaxed);
  return bytes;
}

std::vector<rt::StreamKey> TimedStore::keys() const { return inner_->keys(); }

std::uint64_t TimedStore::total_bytes() const { return inner_->total_bytes(); }

std::uint64_t TimedStore::rank_bytes(mpi::Rank rank) const {
  return inner_->rank_bytes(rank);
}

void TimedStore::sync() {
  const Scope span(server_ ? SpanName::kStoreServerSync
                           : SpanName::kStoreSync);
  inner_->sync();
}

}  // namespace e2e
