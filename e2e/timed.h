// Forwarding wrappers that time the calls the program makes into each
// layer, for the traced run. Each one is invisible to the layers on both
// sides: every call passes through unchanged, in the same order, with the
// same arguments and results, so a run through the wrappers seals the same
// bytes as one without them (selftest.cc checks this).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "minimpi/hooks.h"
#include "runtime/storage.h"
#include "spans.h"
#include "tool/frame_sink.h"

namespace e2e {

/// Times every ToolHooks call: select as tool.select, on_window as
/// tool.window, the per-event hooks as tool.hook.
class TimedHooks final : public cdc::minimpi::ToolHooks {
 public:
  explicit TimedHooks(cdc::minimpi::ToolHooks* inner) : inner_(inner) {}

  std::uint64_t on_send(cdc::minimpi::Rank sender) override;
  cdc::minimpi::SelectResult select(
      cdc::minimpi::Rank rank, cdc::minimpi::CallsiteId callsite,
      cdc::minimpi::MFKind kind,
      std::span<const cdc::minimpi::Candidate> candidates,
      std::size_t total_requests, bool blocking) override;
  void on_unmatched_test(cdc::minimpi::Rank rank,
                         cdc::minimpi::CallsiteId callsite) override;
  void on_deliver(cdc::minimpi::Rank rank, cdc::minimpi::CallsiteId callsite,
                  cdc::minimpi::MFKind kind,
                  std::span<const cdc::minimpi::Completion> events) override;
  void on_deadlock() override;
  bool on_stall() override;
  void on_fault(cdc::minimpi::FaultKind kind,
                cdc::minimpi::Rank rank) override;
  void on_parallel_start(int workers) override;
  void on_window(double horizon) override;

 private:
  cdc::minimpi::ToolHooks* inner_;
};

/// Times FrameSink::submit as compress.encode and counts the raw payload
/// bytes handed to the encoder. Used from one flushing thread.
class TimedSink final : public cdc::tool::FrameSink {
 public:
  explicit TimedSink(cdc::tool::FrameSink* inner) : inner_(inner) {}
  void submit(const cdc::runtime::StreamKey& key,
              cdc::tool::FrameJob job) override;

  [[nodiscard]] std::uint64_t raw_bytes() const noexcept { return raw_bytes_; }

 private:
  cdc::tool::FrameSink* inner_;
  std::uint64_t raw_bytes_ = 0;
};

/// Keeps a copy of every job it forwards, in submission order: the real
/// frames of a recorded run, for the service workload to upload.
class CapturingSink final : public cdc::tool::FrameSink {
 public:
  struct Captured {
    cdc::runtime::StreamKey key;
    cdc::tool::FrameJob job;
  };

  explicit CapturingSink(cdc::tool::FrameSink* inner) : inner_(inner) {}
  void submit(const cdc::runtime::StreamKey& key,
              cdc::tool::FrameJob job) override;

  [[nodiscard]] std::vector<Captured> take() { return std::move(captured_); }

 private:
  cdc::tool::FrameSink* inner_;
  std::vector<Captured> captured_;
};

/// Byte tallies of TimedStore. One tally may serve several wrappers (the
/// service creates one store per ingest session) and outlive them.
struct StoreBytes {
  std::atomic<std::uint64_t> appended{0};  ///< encoded frame bytes appended
  std::atomic<std::uint64_t> read{0};      ///< bytes returned by reads
};

/// Times every RecordStore call. Appends and syncs are charged to
/// store.append / store.sync, or to store.server_append /
/// store.server_sync for a store behind the service (`server` = true);
/// read and read_prefix to store.read. Thread-safe as far as `inner` is.
class TimedStore final : public cdc::runtime::RecordStore {
 public:
  TimedStore(cdc::runtime::RecordStore* inner, StoreBytes* bytes,
             bool server = false)
      : inner_(inner), bytes_(bytes), server_(server) {}

  void append(const cdc::runtime::StreamKey& key,
              std::span<const std::uint8_t> bytes) override;
  void append_epoch(const cdc::runtime::StreamKey& key,
                    std::span<const std::uint8_t> bytes,
                    const cdc::runtime::EpochMeta& meta) override;
  [[nodiscard]] std::vector<std::uint8_t> read(
      const cdc::runtime::StreamKey& key) const override;
  [[nodiscard]] std::vector<std::uint8_t> read_prefix(
      const cdc::runtime::StreamKey& key,
      std::uint64_t epoch_hi) const override;
  [[nodiscard]] std::vector<cdc::runtime::StreamKey> keys() const override;
  [[nodiscard]] std::uint64_t total_bytes() const override;
  [[nodiscard]] std::uint64_t rank_bytes(
      cdc::minimpi::Rank rank) const override;
  void sync() override;

 private:
  [[nodiscard]] SpanName append_span() const noexcept {
    return server_ ? SpanName::kStoreServerAppend : SpanName::kStoreAppend;
  }

  cdc::runtime::RecordStore* inner_;
  StoreBytes* bytes_;
  bool server_;
};

}  // namespace e2e
