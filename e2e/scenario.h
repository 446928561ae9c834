// The benchmark's MCB scenario: one shared input shape, and the record and
// replay runs every workload is built from. With `traced` set, a run goes
// through the timing wrappers of timed.h; otherwise it calls the program
// exactly as a user would.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/mcb.h"
#include "minimpi/simulator.h"
#include "support/oracle.h"
#include "timed.h"
#include "tool/options.h"
#include "tool/recorder.h"
#include "tool/replayer.h"

namespace e2e {

/// The MCB run every workload shares.
struct Shape {
  int ranks = 0;
  cdc::apps::McbConfig mcb;
  cdc::tool::ToolOptions options;
};

/// MCB on a square-ish rank grid with the evaluation benches' particle
/// physics, and a chunk target small enough that every stream seals
/// several epochs (so epoch windows have something to skip).
[[nodiscard]] Shape mcb_shape(int ranks, int particles_per_rank,
                              std::size_t chunk_target);

/// splitmix64 finalizer: derives independent seeds from the benchmark's.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) noexcept;

struct RecordRun {
  std::uint64_t digest = 0;
  cdc::tool::Recorder::Totals totals;
  cdc::minimpi::Simulator::Stats stats;
  std::uint64_t raw_bytes = 0;       ///< handed to the encoder (traced only)
  std::uint64_t appended_bytes = 0;  ///< frame bytes appended (traced only)
};

/// Records one MCB run on the parallel executor into a sealed container
/// at `path`, through the inline sink. `trace` non-null attaches an
/// OrderProbe and returns what the application saw; `capture` non-null
/// returns every FrameJob the recorder submitted, in order.
RecordRun record_mcb(const Shape& shape, int workers, std::uint64_t seed,
                     const std::string& path, bool traced,
                     cdc::support::Trace* trace = nullptr,
                     std::vector<CapturingSink::Captured>* capture = nullptr);

struct ReplayRun {
  bool fully_replayed = false;
  std::uint64_t digest = 0;
  cdc::minimpi::Simulator::Stats stats;
  cdc::support::Trace trace;  ///< filled when a probe was asked for
  std::map<cdc::runtime::StreamKey, cdc::tool::Replayer::WindowSlice> slices;
  std::uint64_t read_bytes = 0;  ///< bytes the replayer read (traced only)
};

/// Replays the record in `store` on the sequential engine under noise
/// seed `seed`; with `window` set, only epochs [first, second).
ReplayRun replay_mcb(const Shape& shape, cdc::runtime::RecordStore* store,
                     std::uint64_t seed,
                     std::optional<std::pair<std::uint64_t, std::uint64_t>>
                         window,
                     bool traced, bool probe);

/// The file's bytes; empty when it cannot be read.
[[nodiscard]] std::vector<std::uint8_t> file_bytes(const std::string& path);

}  // namespace e2e
