#include "scenario.h"

#include <fstream>
#include <iterator>

#include "store/container_store.h"

namespace e2e {

namespace mpi = cdc::minimpi;
namespace tool = cdc::tool;

Shape mcb_shape(int ranks, int particles_per_rank, std::size_t chunk_target) {
  int gy = 1;
  for (int x = 1; x * x <= ranks; ++x)
    if (ranks % x == 0) gy = x;
  Shape shape;
  shape.ranks = ranks;
  shape.mcb.grid_x = ranks / gy;
  shape.mcb.grid_y = gy;
  shape.mcb.particles_per_rank = particles_per_rank;
  shape.mcb.segments_per_particle = 12;
  shape.options.chunk_target = chunk_target;
  return shape;
}

std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace {

mpi::Simulator::Config sim_config(const Shape& shape, int workers,
                                  std::uint64_t seed) {
  mpi::Simulator::Config config;
  config.num_ranks = shape.ranks;
  config.workers = workers;
  config.noise_seed = seed;
  return config;
}

}  // namespace

RecordRun record_mcb(const Shape& shape, int workers, std::uint64_t seed,
                     const std::string& path, bool traced,
                     cdc::support::Trace* trace,
                     std::vector<CapturingSink::Captured>* capture) {
  cdc::store::ContainerStore container(path);
  StoreBytes store_bytes;
  TimedStore timed_store(&container, &store_bytes);
  cdc::runtime::RecordStore* store =
      traced ? static_cast<cdc::runtime::RecordStore*>(&timed_store)
             : &container;
  tool::InlineFrameSink inline_sink(store);
  TimedSink timed_sink(&inline_sink);
  CapturingSink capturing(traced ? static_cast<tool::FrameSink*>(&timed_sink)
                                 : &inline_sink);
  tool::FrameSink* sink = nullptr;  // null: the recorder's own inline sink
  if (capture != nullptr)
    sink = &capturing;
  else if (traced)
    sink = &timed_sink;
  tool::Recorder recorder(shape.ranks, store, shape.options, sink);
  TimedHooks timed_hooks(&recorder);
  mpi::ToolHooks* hooks = traced ? static_cast<mpi::ToolHooks*>(&timed_hooks)
                                 : &recorder;
  cdc::support::OrderProbe probe(hooks);
  if (trace != nullptr) hooks = &probe;

  RecordRun run;
  mpi::Simulator sim(sim_config(shape, workers, seed), hooks);
  {
    const Scope span(SpanName::kMinimpiRun);
    cdc::apps::run_mcb(sim, shape.mcb);
  }
  {
    const Scope span(SpanName::kToolFinalize);
    recorder.finalize();
  }
  {
    const Scope span(SpanName::kStoreSeal);
    container.seal();
  }
  run.digest = recorder.order_digest();
  run.totals = recorder.totals();
  run.stats = sim.stats();
  run.raw_bytes = timed_sink.raw_bytes();
  run.appended_bytes = store_bytes.appended.load();
  if (trace != nullptr) *trace = probe.trace();
  if (capture != nullptr) *capture = capturing.take();
  return run;
}

ReplayRun replay_mcb(const Shape& shape, cdc::runtime::RecordStore* store,
                     std::uint64_t seed,
                     std::optional<std::pair<std::uint64_t, std::uint64_t>>
                         window,
                     bool traced, bool probe) {
  StoreBytes store_bytes;
  TimedStore timed_store(store, &store_bytes);
  tool::Replayer replayer(
      shape.ranks,
      traced ? static_cast<cdc::runtime::RecordStore*>(&timed_store) : store,
      shape.options);
  if (window.has_value()) replayer.replay_window(window->first, window->second);
  TimedHooks timed_hooks(&replayer);
  mpi::ToolHooks* hooks = traced ? static_cast<mpi::ToolHooks*>(&timed_hooks)
                                 : &replayer;
  cdc::support::OrderProbe order_probe(hooks);
  if (probe) hooks = &order_probe;

  ReplayRun run;
  mpi::Simulator sim(sim_config(shape, /*workers=*/0, seed), hooks);
  {
    const Scope span(SpanName::kMinimpiRun);
    cdc::apps::run_mcb(sim, shape.mcb);
  }
  run.fully_replayed = replayer.fully_replayed();
  run.digest = replayer.order_digest();
  run.stats = sim.stats();
  if (probe) run.trace = order_probe.trace();
  if (window.has_value()) run.slices = replayer.window_slices();
  run.read_bytes = store_bytes.read.load();
  return run;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace e2e
