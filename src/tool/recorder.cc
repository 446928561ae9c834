#include "tool/recorder.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/check.h"

namespace cdc::tool {

Recorder::Recorder(int num_ranks, runtime::RecordStore* store,
                   const ToolOptions& options, FrameSink* sink)
    : options_(options),
      store_(store),
      inline_sink_(store),
      sink_(sink != nullptr ? sink : &inline_sink_),
      clocks_(static_cast<std::size_t>(num_ranks)),
      streams_(static_cast<std::size_t>(num_ranks)),
      digests_(static_cast<std::size_t>(num_ranks),
               0xcbf29ce484222325ull) {
  CDC_CHECK(store != nullptr && num_ranks >= 1);
}

namespace {
std::uint64_t fnv_mix(std::uint64_t digest, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ull;
  }
  return digest;
}
}  // namespace

std::uint64_t Recorder::order_digest() const {
  std::uint64_t combined = 0;
  for (const std::uint64_t d : digests_) combined ^= d;
  return combined;
}

Recorder::Stream& Recorder::stream(minimpi::Rank rank,
                                   minimpi::CallsiteId callsite) {
  if (!options_.identify_callsites) callsite = 0;
  auto& row = streams_[static_cast<std::size_t>(rank)];
  auto it = std::find_if(row.begin(), row.end(), [callsite](const auto& s) {
    return s->rec.key().callsite >= callsite;
  });
  if (it == row.end() || (*it)->rec.key().callsite != callsite)
    it = row.insert(it, std::make_unique<Stream>(
                            runtime::StreamKey{rank, callsite}, options_));
  return **it;
}

std::uint64_t Recorder::on_send(minimpi::Rank sender) {
  return clocks_[static_cast<std::size_t>(sender)].on_send();
}

minimpi::SelectResult Recorder::select(
    minimpi::Rank rank, minimpi::CallsiteId callsite, minimpi::MFKind kind,
    std::span<const minimpi::Candidate> candidates,
    std::size_t total_requests, bool blocking) {
  // Record mode: sight candidates for epoch enforcement, then pass the
  // matching decision through unchanged.
  StreamRecorder& rec = stream(rank, callsite).rec;
  for (const minimpi::Candidate& c : candidates)
    if (c.fresh) rec.on_candidate(clock::MessageId{c.source, c.piggyback});
  return ToolHooks::select(rank, callsite, kind, candidates, total_requests,
                           blocking);
}

void Recorder::on_unmatched_test(minimpi::Rank rank,
                                 minimpi::CallsiteId callsite) {
  if (options_.tick_on_unmatched_test)
    clocks_[static_cast<std::size_t>(rank)].tick();
  stream(rank, callsite).rec.on_unmatched_test();
}

void Recorder::on_deliver(minimpi::Rank rank, minimpi::CallsiteId callsite,
                          minimpi::MFKind /*kind*/,
                          std::span<const minimpi::Completion> events) {
  Stream& s = stream(rank, callsite);
  StreamRecorder& rec = s.rec;
  auto& clock = clocks_[static_cast<std::size_t>(rank)];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const minimpi::Completion& e = events[i];
    clock.on_receive(e.piggyback);
    record::ReceiveEvent event;
    event.flag = true;
    event.with_next = i + 1 < events.size();
    event.rank = e.source;
    event.clock = e.piggyback;
    rec.on_delivered(event);
    auto& digest = digests_[static_cast<std::size_t>(rank)];
    digest = fnv_mix(digest, callsite);
    digest = fnv_mix(digest, static_cast<std::uint64_t>(e.source));
    digest = fnv_mix(digest, e.piggyback);
    if (rank == options_.clock_trace_rank)
      clock_trace_.push_back(e.piggyback);
  }
  if (staged_) {  // build on the rank's own worker; on_window appends
    const bool was_empty = s.staged.empty();
    rec.flush_if_due(s);
    if (was_empty && !s.staged.empty()) {
      const std::lock_guard<std::mutex> lock(due_mu_);
      due_.push_back(&s);
    }
    return;
  }
  const std::uint64_t chunks_before = rec.stats().chunks;
  rec.flush_if_due(*sink_);
  if (options_.checkpoint_interval > 0)
    checkpoint(rec.stats().chunks - chunks_before);
}

void Recorder::on_parallel_start(int /*workers*/) { staged_ = true; }

void Recorder::on_window(double /*horizon*/) {
  const std::uint64_t new_chunks = submit_due();
  if (options_.checkpoint_interval > 0) checkpoint(new_chunks);
}

std::uint64_t Recorder::submit_due() {
  // Workers are quiesced (window barrier or run end): the lock is
  // uncontended, and key order makes the container worker-count-invariant.
  const std::lock_guard<std::mutex> lock(due_mu_);
  std::sort(due_.begin(), due_.end(), [](const Stream* a, const Stream* b) {
    return a->rec.key() < b->rec.key();
  });
  std::uint64_t submitted = 0;
  for (Stream* s : due_) {
    for (FrameJob& job : s->staged)
      sink_->submit(s->rec.key(), std::move(job));
    submitted += s->staged.size();
    s->staged.clear();
  }
  due_.clear();
  return submitted;
}

void Recorder::checkpoint(std::uint64_t new_chunks) {
  chunks_since_checkpoint_ += new_chunks;
  if (chunks_since_checkpoint_ < options_.checkpoint_interval) return;
  chunks_since_checkpoint_ = 0;
  obs::TraceSpan span("record.checkpoint", -1);
  try {
    store_->sync();
    obs::counter("record.checkpoints").add(1);
  } catch (const runtime::IoError& e) {
    // A failed durability barrier weakens the ≤ one-window loss guarantee
    // but must not kill the run — the appends themselves succeeded.
    // (RetryingStore never throws here; this guards bare fault stores.)
    ++checkpoint_failures_;
    obs::counter("record.checkpoint_failures").add(1);
    std::fprintf(stderr, "cdc record: checkpoint sync failed (%s)\n",
                 e.what());
  }
}

void Recorder::finalize() {
  std::size_t count = 0;
  for (const auto& row : streams_) count += row.size();
  obs::TraceSpan span("record.finalize", -1, "streams", count);
  submit_due();
  for (auto& row : streams_)
    for (auto& s : row) s->rec.finalize(*sink_);
}

Recorder::Totals Recorder::totals() const {
  Totals totals;
  for (const auto& row : streams_) {
    for (const auto& s : row) {
      const auto& st = s->rec.stats();
      totals.matched_events += st.matched_events;
      totals.unmatched_events += st.unmatched_events;
      totals.moves += st.moves;
      totals.chunks += st.chunks;
      totals.stored_values += st.stored_values;
      totals.rows += st.rows;
    }
  }
  return totals;
}

std::vector<double> Recorder::permutation_percentages() const {
  std::vector<double> out;
  for (const auto& row : streams_) {
    if (row.empty()) continue;  // a rank without streams has no entry
    double moves = 0.0;
    double matched = 0.0;
    for (const auto& s : row) {
      moves += static_cast<double>(s->rec.stats().moves);
      matched += static_cast<double>(s->rec.stats().matched_events);
    }
    out.push_back(matched > 0.0 ? moves / matched : 0.0);
  }
  return out;
}

}  // namespace cdc::tool
