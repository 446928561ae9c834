// e2e_bench: the repository's end-to-end benchmark (see README.md).
//
//   e2e_bench --workload <mcb-record|mcb-replay|service-ingest>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--git <sha>]
//
// Set-up records one MCB run (the shared input) several times and keeps
// the last: the sealed reference container, its order digest, the
// recorded trace and the frame jobs the recorder submitted. The workload
// then repeats for --seconds. --trace 0 prints the end-to-end metrics;
// --trace 1 runs one untraced and one traced iteration and prints the
// per-layer metrics. Every output is checked outside the timed intervals;
// the last stdout line is one JSON object, and any failed check makes the
// exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "compress/deflate.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "scenario.h"
#include "spans.h"
#include "store/container_reader.h"
#include "store/container_store.h"

namespace {

using namespace e2e;
namespace fs = std::filesystem;
namespace net = cdc::net;
namespace rt = cdc::runtime;

// The shared input: MCB at 1,024 ranks. 100 particles per rank (the
// evaluation benches use 150) keeps one run of all 70 benchmark
// invocations within its time budget; a chunk target of 128 still gives
// every stream several epochs.
constexpr int kRanks = 1024;
constexpr int kParticles = 100;
constexpr std::size_t kChunkTarget = 128;
constexpr int kSetupReps = 3;

// service-ingest: two closed-loop clients, each uploading the captured
// frames as kRecordsPerClient records, then fetching kFetchesPerClient
// seeded epoch windows of its first record.
constexpr int kClients = 2;
constexpr int kRecordsPerClient = 3;
constexpr std::size_t kBatchFrames = 64;
constexpr std::size_t kMaxInflight = 4;
constexpr int kFetchesPerClient = 24;
constexpr const char* kTenant = "bench";
constexpr const char* kToken = "bench-token";

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/run";
  std::string git = "unknown";
};

// --- Failure accounting ----------------------------------------------------

/// Operations attempted and failed in one invocation. An operation is one
/// record run, one full or windowed replay, one record upload, or one
/// window fetch; it fails when any of its checks fails.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", what.c_str());
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double seconds_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

int record_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(n, 1u, 4u));
}

// --- Set-up ----------------------------------------------------------------

struct Inputs {
  Shape shape;
  std::uint64_t record_seed = 0;
  std::string ref_path;
  std::vector<std::uint8_t> ref_bytes;
  std::uint64_t digest = 0;
  std::uint64_t matched_events = 0;
  std::uint64_t raw_bytes = 0;  ///< payload bytes of the captured frames
  cdc::support::Trace trace;
  std::vector<CapturingSink::Captured> frames;
  std::unique_ptr<cdc::store::ContainerReader> reader;
  std::uint64_t median_epochs = 0;  ///< per-stream epoch count, median
};

Inputs set_up(const Args& args, Tally& tally, std::vector<double>* times) {
  Inputs in;
  in.shape = mcb_shape(kRanks, kParticles, kChunkTarget);
  in.record_seed = mix(args.seed * 8 + 1);
  in.ref_path = (fs::path(args.workdir) / "reference.cdcc").string();
  const int reps = args.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t t0 = now_ns();
    const RecordRun run = record_mcb(in.shape, /*workers=*/1, in.record_seed,
                                     in.ref_path, /*traced=*/false, &in.trace,
                                     &in.frames);
    std::vector<std::uint8_t> bytes = file_bytes(in.ref_path);
    in.reader = cdc::store::ContainerReader::open(in.ref_path);
    times->push_back(seconds_between(t0, now_ns()));
    tally.op(rep == 0 || (bytes == in.ref_bytes && run.digest == in.digest),
             "set-up: repeated reference recordings differ");
    in.ref_bytes = std::move(bytes);
    in.digest = run.digest;
    in.matched_events = run.totals.matched_events;
  }
  for (const auto& f : in.frames) in.raw_bytes += f.job.payload.size();
  const bool usable = in.reader != nullptr && in.reader->index_ok() &&
                      in.reader->epoch_index_ok() && in.matched_events > 0;
  tally.op(usable, "set-up: reference container unusable");
  if (!usable) return in;
  std::vector<std::uint64_t> epochs;
  for (const rt::StreamKey& key : in.reader->keys())
    if (const auto* index = in.reader->find_epochs(key))
      epochs.push_back(index->epochs.size());
  std::sort(epochs.begin(), epochs.end());
  in.median_epochs = epochs.empty() ? 0 : epochs[epochs.size() / 2];
  return in;
}

/// A mid-run window of one epoch: the middle epoch of the typical stream.
/// It depends on the seed only through the record; a seed-drawn position
/// would make the replay's cost, which grows with the window's start, vary
/// between seeds.
std::pair<std::uint64_t, std::uint64_t> mid_window(const Inputs& in) {
  const std::uint64_t lo = in.median_epochs / 2;
  return {lo, lo + 1};
}

// --- Metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  const char* unit = "";
  std::size_t samples = 1;
  double lo = 0.0;  ///< smallest sample, when there are several
  double hi = 0.0;  ///< largest sample, when there are several
};

Metric summary(double value, const char* unit,
               const std::vector<double>& samples) {
  Metric m{value, unit, samples.size(), value, value};
  if (!samples.empty()) {
    m.lo = *std::min_element(samples.begin(), samples.end());
    m.hi = *std::max_element(samples.begin(), samples.end());
  }
  return m;
}
using Metrics = std::map<std::string, Metric>;

/// What one workload iteration measured, before aggregation.
struct Iteration {
  double wall_s = 0.0;
  std::map<std::string, std::vector<double>> samples;  ///< by metric name
};

// --- mcb-record ------------------------------------------------------------

Iteration record_iteration(const Args& args, const Inputs& in, bool traced,
                           Tally& tally, RecordRun* out = nullptr) {
  const std::string path = (fs::path(args.workdir) / "record.cdcc").string();
  Iteration it;
  RecordRun run;
  {
    const Scope root(SpanName::kWorkload);
    const std::uint64_t t0 = now_ns();
    run = record_mcb(in.shape, record_workers(), in.record_seed, path, traced);
    it.wall_s = seconds_between(t0, now_ns());
  }
  {
    const Scope check(SpanName::kOracleCheck);
    tally.op(file_bytes(path) == in.ref_bytes && run.digest == in.digest,
             "mcb-record: container or digest differs from the reference");
  }
  it.samples["record_s"].push_back(it.wall_s);
  it.samples["record_bytes_per_event"].push_back(
      static_cast<double>(in.ref_bytes.size()) /
      static_cast<double>(run.totals.matched_events));
  if (out != nullptr) *out = run;
  return it;
}

// --- mcb-replay ------------------------------------------------------------

bool window_matches(const cdc::support::Trace& recorded,
                    const ReplayRun& window) {
  cdc::support::Trace want;
  cdc::support::Trace got;
  for (const auto& [key, slice] : window.slices) {
    if (slice.end <= slice.begin) continue;
    const auto r = recorded.find(key);
    const auto w = window.trace.find(key);
    if (r == recorded.end() || w == window.trace.end() ||
        r->second.size() < slice.end || w->second.size() < slice.end)
      return false;
    const auto b = static_cast<std::ptrdiff_t>(slice.begin);
    const auto e = static_cast<std::ptrdiff_t>(slice.end);
    want[key].assign(r->second.begin() + b, r->second.begin() + e);
    got[key].assign(w->second.begin() + b, w->second.begin() + e);
  }
  const auto report = cdc::support::check_equivalence(want, got);
  return report.ok && report.events_compared > 0;
}

Iteration replay_iteration(const Args& args, const Inputs& in, bool traced,
                           Tally& tally,
                           std::vector<ReplayRun>* out = nullptr) {
  const std::uint64_t replay_seed = mix(args.seed * 8 + 2);
  const auto window = mid_window(in);
  Iteration it;
  ReplayRun full;
  ReplayRun windowed;
  double replay_s = 0.0;
  double window_s = 0.0;
  {
    const Scope root(SpanName::kWorkload);
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<cdc::store::ContainerStore> store;
    {
      const Scope open(SpanName::kStoreOpen);
      store = cdc::store::ContainerStore::open(in.ref_path);
    }
    full = replay_mcb(in.shape, store.get(), replay_seed, std::nullopt,
                      traced, /*probe=*/false);
    const std::uint64_t t1 = now_ns();
    windowed = replay_mcb(in.shape, store.get(), mix(args.seed * 8 + 3),
                          window, traced, /*probe=*/true);
    const std::uint64_t t2 = now_ns();
    replay_s = seconds_between(t0, t1);
    window_s = seconds_between(t1, t2);
    it.wall_s = seconds_between(t0, t2);
  }
  {
    const Scope check(SpanName::kOracleCheck);
    tally.op(full.fully_replayed && full.digest == in.digest,
             "mcb-replay: full replay incomplete or digest differs");
    tally.op(window_matches(in.trace, windowed),
             "mcb-replay: window [" + std::to_string(window.first) + ", " +
                 std::to_string(window.second) +
                 ") slice differs from the recorded trace");
  }
  it.samples["replay_s"].push_back(replay_s);
  it.samples["window_replay_s"].push_back(window_s);
  if (out != nullptr) {
    out->push_back(std::move(full));
    out->push_back(std::move(windowed));
  }
  return it;
}

// --- service-ingest --------------------------------------------------------

struct Fetch {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  bool ok = false;
  std::vector<net::WindowStream> streams;
};

struct ClientRun {
  std::vector<std::string> records;
  std::vector<bool> uploaded;  ///< per record: every call succeeded
  std::vector<std::uint64_t> ack_ns;
  std::vector<double> fetch_s;
  std::vector<Fetch> fetches;
  std::uint64_t bytes_acked = 0;
  std::uint64_t upload_end_ns = 0;
  std::vector<std::string> errors;
};

/// One client's closed loop: upload every record through NetFrameSink,
/// then fetch seeded windows of the first one. `uploads` are the frames to
/// send, one copy per record, prepared outside the timed interval.
void run_client(int c, std::uint16_t port, const Args& args,
                const Inputs& in,
                std::vector<std::vector<CapturingSink::Captured>> uploads,
                ClientRun& out) {
  for (int r = 0; r < kRecordsPerClient; ++r) {
    const std::string name =
        "c" + std::to_string(c) + "-r" + std::to_string(r);
    out.records.push_back(name);
    net::Client::Options options;
    options.port = port;
    options.token = kToken;
    options.record = name;
    options.max_inflight = kMaxInflight;
    options.resumable = true;
    std::string error;
    std::unique_ptr<net::Client> client;
    {
      const Scope span(SpanName::kNetConnect);
      client = net::Client::connect(options, &error);
    }
    bool ok = client != nullptr;
    if (ok) {
      net::NetFrameSink sink(client.get(), kBatchFrames);
      for (auto& frame : uploads[static_cast<std::size_t>(r)]) {
        const Scope span(SpanName::kNetPut);
        sink.submit(frame.key, std::move(frame.job));
      }
      {
        const Scope span(SpanName::kNetSeal);
        ok = sink.flush() && client->seal();
      }
      if (!ok) error = client->last_error();
      out.ack_ns.insert(out.ack_ns.end(), client->ack_latency_ns().begin(),
                        client->ack_latency_ns().end());
      out.bytes_acked += client->bytes_acked();
      client->bye();
    }
    out.uploaded.push_back(ok);
    if (!ok) out.errors.push_back(name + ": " + error);
  }
  out.upload_end_ns = now_ns();

  net::Client::Options options;
  options.port = port;
  options.token = kToken;
  options.record = out.records.front();
  options.intent = net::Intent::kReplay;
  std::string error;
  std::unique_ptr<net::Client> client;
  {
    const Scope span(SpanName::kNetConnect);
    client = net::Client::connect(options, &error);
  }
  const std::uint64_t epochs = std::max<std::uint64_t>(in.median_epochs, 1);
  for (int k = 0; k < kFetchesPerClient; ++k) {
    const std::uint64_t draw = mix(mix(args.seed * 8 + 4) +
                                   static_cast<std::uint64_t>(c * 1000 + k));
    Fetch fetch;
    fetch.lo = draw % epochs;
    fetch.hi = fetch.lo + 1 + (draw >> 32) % 2;
    if (client != nullptr) {
      net::WindowDone done;
      const Scope span(SpanName::kNetWindowFetch);
      const std::uint64_t t0 = now_ns();
      fetch.ok = client->replay_window(fetch.lo, fetch.hi, &fetch.streams,
                                       &done) &&
                 done.streams == fetch.streams.size();
      out.fetch_s.push_back(seconds_between(t0, now_ns()));
    }
    if (!fetch.ok)
      out.errors.push_back("window fetch: " +
                           (client != nullptr ? client->last_error() : error));
    out.fetches.push_back(std::move(fetch));
  }
  if (client != nullptr) client->bye();
}

bool fetch_matches(const cdc::store::ContainerReader& reader,
                   const Fetch& fetch) {
  if (!fetch.ok || fetch.streams.size() != reader.keys().size()) return false;
  for (const net::WindowStream& ws : fetch.streams) {
    const auto local = reader.read_stream_window(ws.key, fetch.lo, fetch.hi);
    if (ws.bytes != local.bytes || ws.first_epoch != local.first_epoch ||
        ws.seeked != local.seeked)
      return false;
  }
  return true;
}

struct ServiceRound {
  Iteration it;
  net::Server::Stats server;
  std::uint64_t window_bytes = 0;
  std::uint64_t server_appended = 0;
};

ServiceRound service_round(const Args& args, const Inputs& in, bool traced,
                           Tally& tally, std::uint64_t round) {
  const fs::path root_dir =
      fs::path(args.workdir) / ("service-" + std::to_string(round));
  fs::remove_all(root_dir);
  net::ServerConfig config;
  config.root_dir = root_dir.string();
  config.tenants.push_back({kTenant, kToken, 1ull << 30, 1024});
  config.sink_mode = net::SinkMode::kService;
  StoreBytes server_bytes;
  if (traced)
    config.store_wrapper = [&server_bytes](rt::RecordStore* inner) {
      return std::unique_ptr<rt::RecordStore>(
          std::make_unique<TimedStore>(inner, &server_bytes, /*server=*/true));
    };
  net::Server server(config);
  std::string error;
  const bool started = server.start(&error);
  ServiceRound out;
  tally.op(started, "service-ingest: server start: " + error);
  if (!started) return out;

  std::vector<std::vector<std::vector<CapturingSink::Captured>>> uploads(
      kClients);
  for (auto& client_uploads : uploads)
    client_uploads.assign(kRecordsPerClient, in.frames);

  std::vector<ClientRun> clients(kClients);
  {
    // Client 0 runs on this thread, so the traced split follows one
    // client's whole session; the others run beside it.
    const Scope root(SpanName::kWorkload);
    const std::uint64_t t0 = now_ns();
    std::vector<std::thread> threads;
    for (int c = 1; c < kClients; ++c)
      threads.emplace_back(run_client, c, server.port(), std::cref(args),
                           std::cref(in), std::move(uploads[c]),
                           std::ref(clients[c]));
    run_client(0, server.port(), args, in, std::move(uploads[0]), clients[0]);
    for (std::thread& t : threads) t.join();
    const std::uint64_t t1 = now_ns();
    out.it.wall_s = seconds_between(t0, t1);
    std::uint64_t upload_end = 0;
    std::uint64_t bytes_acked = 0;
    for (const ClientRun& cr : clients) {
      upload_end = std::max(upload_end, cr.upload_end_ns);
      bytes_acked += cr.bytes_acked;
    }
    out.it.samples["ingest_mb_s"].push_back(
        static_cast<double>(bytes_acked) * 1e-6 /
        seconds_between(t0, upload_end));
  }
  out.server = server.stats();
  server.stop();
  out.server_appended = server_bytes.appended.load();

  const Scope check(SpanName::kOracleCheck);
  std::vector<double> ack_ms;
  std::vector<double> fetch_ms;
  for (const ClientRun& cr : clients) {
    for (const std::string& e : cr.errors)
      std::fprintf(stderr, "e2e_bench: client error: %s\n", e.c_str());
    for (std::size_t r = 0; r < cr.records.size(); ++r) {
      const fs::path path = root_dir / kTenant / (cr.records[r] + ".cdcc");
      tally.op(cr.uploaded[r] && file_bytes(path.string()) == in.ref_bytes,
               "service-ingest: record " + cr.records[r] +
                   " unsealed or differs from the reference");
    }
    for (const Fetch& f : cr.fetches) {
      tally.op(fetch_matches(*in.reader, f),
               "service-ingest: window [" + std::to_string(f.lo) + ", " +
                   std::to_string(f.hi) + ") differs from the local read");
      for (const auto& ws : f.streams) out.window_bytes += ws.bytes.size();
    }
    for (const std::uint64_t ns : cr.ack_ns)
      ack_ms.push_back(static_cast<double>(ns) * 1e-6);
    for (const double s : cr.fetch_s) fetch_ms.push_back(s * 1e3);
  }
  out.it.samples["ack_ms"] = std::move(ack_ms);
  out.it.samples["window_fetch_ms"] = std::move(fetch_ms);
  fs::remove_all(root_dir);
  return out;
}

// --- Measurement loop ------------------------------------------------------

Iteration run_iteration(const Args& args, const Inputs& in, bool traced,
                        Tally& tally, std::uint64_t i) {
  if (args.workload == "mcb-record")
    return record_iteration(args, in, traced, tally);
  if (args.workload == "mcb-replay")
    return replay_iteration(args, in, traced, tally);
  return service_round(args, in, traced, tally, i).it;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Untraced run: repeat the workload for --seconds, then aggregate the
/// end-to-end metrics the benchmark declares plus the workload's own
/// named metrics (printed, not part of the result line).
///
/// At least two iterations run. A process's first iteration is slower
/// than the next; with a one-iteration minimum, a workload whose iteration
/// takes about --seconds would report one cold sample on some runs and the
/// median of a cold and a warm one on others.
void measure(const Args& args, const Inputs& in, Tally& tally,
             Metrics& declared, Metrics& named) {
  constexpr std::uint64_t kMinIterations = 2;
  std::vector<double> walls;
  std::map<std::string, std::vector<double>> samples;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t i = 0;
       i < kMinIterations || seconds_between(t0, now_ns()) < args.seconds;
       ++i) {
    Iteration it = run_iteration(args, in, /*traced=*/false, tally, i);
    walls.push_back(it.wall_s);
    for (auto& [name, values] : it.samples)
      samples[name].insert(samples[name].end(), values.begin(), values.end());
  }
  const auto med = [&](const std::string& name, const char* unit) {
    named[name] = summary(median(samples[name]), unit, samples[name]);
  };
  const auto pct = [&](const std::string& from, const std::string& name,
                       double p, const char* unit) {
    named[name] = summary(percentile(samples[from], p), unit, samples[from]);
  };
  const double wall = median(walls);
  const double bytes_per_event = static_cast<double>(in.ref_bytes.size()) /
                                 static_cast<double>(in.matched_events);
  const double events = static_cast<double>(in.matched_events);
  double events_per_s = 0.0;
  if (args.workload == "mcb-record") {
    med("record_s", "s");
    med("record_bytes_per_event", "B/event");
    events_per_s = events / named["record_s"].value;
  } else if (args.workload == "mcb-replay") {
    med("replay_s", "s");
    med("window_replay_s", "s");
    events_per_s = events / named["replay_s"].value;
  } else {
    med("ingest_mb_s", "MB/s");
    pct("ack_ms", "ack_p50_ms", 0.50, "ms");
    pct("ack_ms", "ack_p95_ms", 0.95, "ms");
    pct("window_fetch_ms", "window_fetch_p50_ms", 0.50, "ms");
    pct("window_fetch_ms", "window_fetch_p95_ms", 0.95, "ms");
    // Each uploaded record carries the run's matched events.
    events_per_s = named["ingest_mb_s"].value * 1e6 /
                   static_cast<double>(in.raw_bytes) * events;
  }
  declared["wall_s"] = summary(wall, "s", walls);
  declared["events_per_s"] = {events_per_s, "1/s", walls.size()};
  declared["bytes_per_event"] = {bytes_per_event, "B/event", 1};
  declared["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
}

// --- Traced run ------------------------------------------------------------

std::uint64_t counter(const char* name) {
  return cdc::obs::counter(name).value();
}

/// Obs counters read around the traced iteration.
constexpr const char* kCounters[] = {
    "sim.exec.horizon_advances", "sim.exec.barrier_waits", "sim.exec.steals",
    "record.stage.re.ns",        "record.stage.pe.ns",     "record.stage.lp.ns",
    "record.stage.inflate.ns",   "record.stage.inflate.bytes_in",
    "record.stage.inflate.bytes_out", "net.ingest.batches",
    "net.ingest.raw_bytes",      "net.bytes_in",           "net.bytes_out",
};

/// Wall seconds of the same MCB run with no tool attached.
double untooled_mcb_s(const Shape& shape, int workers, std::uint64_t seed) {
  cdc::minimpi::Simulator::Config config;
  config.num_ranks = shape.ranks;
  config.workers = workers;
  config.noise_seed = seed;
  const std::uint64_t t0 = now_ns();
  cdc::minimpi::Simulator sim(config);
  cdc::apps::run_mcb(sim, shape.mcb);
  return seconds_between(t0, now_ns());
}

/// Deflate then inflate every captured payload at the level the service
/// negotiates by default; returns {deflate MB/s, inflate MB/s}.
std::pair<double, double> codec_rates(const Inputs& in, Tally& tally) {
  std::vector<std::vector<std::uint8_t>> packed;
  packed.reserve(in.frames.size());
  const std::uint64_t t0 = now_ns();
  for (const auto& f : in.frames)
    packed.push_back(cdc::compress::deflate_compress(
        f.job.payload, cdc::compress::DeflateLevel::kDefault));
  const std::uint64_t t1 = now_ns();
  std::vector<std::optional<std::vector<std::uint8_t>>> unpacked;
  unpacked.reserve(packed.size());
  for (const auto& p : packed)
    unpacked.push_back(cdc::compress::deflate_decompress(p));
  const std::uint64_t t2 = now_ns();
  bool round_trip = true;
  for (std::size_t i = 0; i < unpacked.size(); ++i)
    round_trip = round_trip && unpacked[i] == in.frames[i].job.payload;
  tally.op(round_trip, "compress: deflate/inflate round trip");
  const double mb = static_cast<double>(in.raw_bytes) * 1e-6;
  return {mb / seconds_between(t0, t1), mb / seconds_between(t1, t2)};
}

void traced_run(const Args& args, const Inputs& in, Tally& tally,
                Metrics& m) {
  const bool record = args.workload == "mcb-record";
  const bool replay = args.workload == "mcb-replay";
  const bool service = !record && !replay;

  const double untraced = run_iteration(args, in, false, tally, 0).wall_s;

  std::map<std::string, std::uint64_t> before;
  for (const char* name : kCounters) before[name] = counter(name);
  SpanRecorder::set_enabled(true);
  RecordRun rec;
  std::vector<ReplayRun> replays;
  ServiceRound round;
  double traced_wall = 0.0;
  if (record) {
    traced_wall = record_iteration(args, in, true, tally, &rec).wall_s;
  } else if (replay) {
    traced_wall = replay_iteration(args, in, true, tally, &replays).wall_s;
  } else {
    round = service_round(args, in, true, tally, 0);
    traced_wall = round.it.wall_s;
  }
  SpanRecorder::set_enabled(false);
  const TraceSummary trace = summarise(SpanRecorder::take());
  std::printf("spans (all threads):\n");
  for (const auto& [name, t] : trace.all_threads)
    std::printf("  %-22s %10llu calls %12.6f s total %12.6f s self\n",
                span_name(name), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) * 1e-9,
                static_cast<double>(t.self_ns) * 1e-9);
  std::map<std::string, double> delta;
  for (const char* name : kCounters)
    delta[name] = static_cast<double>(counter(name) - before[name]);

  const auto total_s = [&](SpanName n) {
    const auto it = trace.all_threads.find(n);
    return it == trace.all_threads.end() ? 0.0 : it->second.total_ns * 1e-9;
  };
  const auto self_s = [&](SpanName n) {
    const auto it = trace.all_threads.find(n);
    return it == trace.all_threads.end() ? 0.0 : it->second.self_ns * 1e-9;
  };
  const auto count = [&](SpanName n) {
    const auto it = trace.all_threads.find(n);
    return it == trace.all_threads.end()
               ? 0.0
               : static_cast<double>(it->second.count);
  };
  const auto put = [&](const std::string& name, double value,
                       const char* unit) { m[name] = {value, unit, 1}; };

  // minimpi: untooled runs at the workload's worker count and at one.
  const int workers = record ? record_workers() : 0;
  const double plain =
      service ? 0.0 : untooled_mcb_s(in.shape, workers, in.record_seed);
  const double plain_1w =
      service ? 0.0 : untooled_mcb_s(in.shape, 1, in.record_seed);
  put("minimpi.plain_s", plain, "s");
  put("minimpi.plain_1w_s", plain_1w, "s");
  put("minimpi.scaling_eff",
      service ? 0.0 : plain_1w / (plain * std::max(workers, 1)), "ratio");
  std::uint64_t events = rec.stats.scheduler_events;
  std::uint64_t mf_calls = rec.stats.mf_calls;
  for (const ReplayRun& r : replays) {
    events += r.stats.scheduler_events;
    mf_calls += r.stats.mf_calls;
  }
  put("minimpi.events", static_cast<double>(events), "count");
  put("minimpi.mf_calls", static_cast<double>(mf_calls), "count");
  put("minimpi.windows", delta["sim.exec.horizon_advances"], "count");
  put("minimpi.barrier_waits", delta["sim.exec.barrier_waits"], "count");
  put("minimpi.steals", delta["sim.exec.steals"], "count");

  // tool: hook wrapper times, summed over the threads that called them.
  put("tool.hook_s", total_s(SpanName::kToolHook) +
                         total_s(SpanName::kToolSelect), "s");
  put("tool.hook_calls",
      count(SpanName::kToolHook) + count(SpanName::kToolSelect), "count");
  put("tool.window_s", total_s(SpanName::kToolWindow), "s");
  put("tool.finalize_s", total_s(SpanName::kToolFinalize), "s");
  put("tool.select_s", total_s(SpanName::kToolSelect), "s");

  // record: chunk building at the barrier, minus the sink below it.
  put("record.flush_s",
      self_s(SpanName::kToolWindow) + self_s(SpanName::kToolFinalize), "s");
  put("record.chunks", static_cast<double>(rec.totals.chunks), "count");
  put("record.raw_bytes", static_cast<double>(rec.raw_bytes), "B");
  put("record.re_s", delta["record.stage.re.ns"] * 1e-9, "s");
  put("record.pe_s", delta["record.stage.pe.ns"] * 1e-9, "s");
  put("record.lp_s", delta["record.stage.lp.ns"] * 1e-9, "s");

  // compress
  put("compress.encode_s", self_s(SpanName::kCompressEncode), "s");
  double ratio = 0.0;
  if (record && rec.appended_bytes > 0)
    ratio = static_cast<double>(rec.raw_bytes) /
            static_cast<double>(rec.appended_bytes);
  if (replay && delta["record.stage.inflate.bytes_in"] > 0)
    ratio = delta["record.stage.inflate.bytes_out"] /
            delta["record.stage.inflate.bytes_in"];
  if (service && round.server_appended > 0)
    ratio = delta["net.ingest.raw_bytes"] /
            static_cast<double>(round.server_appended);
  put("compress.ratio", ratio, "ratio");
  const auto [deflate_mb_s, inflate_mb_s] = codec_rates(in, tally);
  put("compress.deflate_mb_s", deflate_mb_s, "MB/s");
  put("compress.inflate_mb_s", inflate_mb_s, "MB/s");
  put("compress.inflate_s", delta["record.stage.inflate.ns"] * 1e-9, "s");

  // store
  std::uint64_t read_bytes = 0;
  for (const ReplayRun& r : replays) read_bytes += r.read_bytes;
  put("store.append_s", total_s(SpanName::kStoreAppend), "s");
  put("store.appends", count(SpanName::kStoreAppend), "count");
  put("store.sync_s", total_s(SpanName::kStoreSync), "s");
  put("store.syncs", count(SpanName::kStoreSync), "count");
  put("store.seal_s", total_s(SpanName::kStoreSeal), "s");
  put("store.open_s", total_s(SpanName::kStoreOpen), "s");
  put("store.read_s", total_s(SpanName::kStoreRead), "s");
  put("store.read_bytes", static_cast<double>(read_bytes), "B");
  put("store.server_append_s", total_s(SpanName::kStoreServerAppend), "s");
  put("store.server_sync_s", total_s(SpanName::kStoreServerSync), "s");

  // net
  put("net.connect_s", total_s(SpanName::kNetConnect), "s");
  put("net.put_s", total_s(SpanName::kNetPut), "s");
  put("net.seal_s", total_s(SpanName::kNetSeal), "s");
  put("net.batches", delta["net.ingest.batches"], "count");
  put("net.bytes_in", delta["net.bytes_in"], "B");
  put("net.bytes_out", delta["net.bytes_out"], "B");
  put("net.backpressure_suspensions",
      static_cast<double>(round.server.backpressure_suspensions), "count");
  put("net.window_fetch_s", total_s(SpanName::kNetWindowFetch), "s");
  put("net.window_bytes", static_cast<double>(round.window_bytes), "B");

  put("oracle.check_s", total_s(SpanName::kOracleCheck), "s");

  // The split of the root thread's wall time: self time per layer plus the
  // unaccounted remainder, which add up to the traced wall time.
  std::uint64_t split_sum = 0;
  for (const char* layer : {"minimpi", "tool", "record", "compress", "store",
                            "net", "unaccounted"}) {
    const auto it = trace.split_ns.find(layer);
    const std::uint64_t ns = it == trace.split_ns.end() ? 0 : it->second;
    split_sum += ns;
    put(std::string("split.") + layer + "_s", static_cast<double>(ns) * 1e-9,
        "s");
  }
  tally.op(split_sum == trace.wall_ns && trace.split_ns.size() <= 7,
           "trace: split does not add up to the wall time");
  put("trace.wall_s", static_cast<double>(trace.wall_ns) * 1e-9, "s");
  put("trace.untraced_wall_s", untraced, "s");
  put("trace.overhead_s", traced_wall - untraced, "s");
}

// --- Output ----------------------------------------------------------------

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-30s %22s %-8s n=%zu", name.c_str(),
                number(metric.value).c_str(), metric.unit, metric.samples);
    if (metric.samples > 1)
      std::printf("  [%.6g .. %.6g]", metric.lo, metric.hi);
    std::printf("\n");
  }
}

void print_result(const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += tally.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + number(metric.value) +
           ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<mcb-record|mcb-replay|service-ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>] [--git <sha>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--git") args.git = value;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (args.workload != "mcb-record" && args.workload != "mcb-replay" &&
      args.workload != "service-ingest")
    return usage("unknown workload");
#ifndef NDEBUG
  return usage("refusing an unoptimised build (NDEBUG is not defined)");
#endif

  std::printf("host: {\"nproc\": %u, \"record_workers\": %d, "
              "\"build_type\": \"%s\", \"compiler\": \"%s\", \"git\": \"%s\", "
              "\"obs_compiled_in\": %s, \"obs_enabled\": %s}\n",
              std::thread::hardware_concurrency(), record_workers(),
              E2E_BUILD_TYPE, E2E_COMPILER, args.git.c_str(),
              cdc::obs::compiled_in() ? "true" : "false",
              cdc::obs::enabled() ? "true" : "false");
  std::printf("workload: %s seed=%llu seconds=%g trace=%d ranks=%d "
              "particles=%d chunk_target=%zu\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kRanks, kParticles, kChunkTarget);
  std::fflush(stdout);

  fs::remove_all(args.workdir);
  fs::create_directories(args.workdir);
  Tally tally;
  std::vector<double> setup_times;
  const Inputs in = set_up(args, tally, &setup_times);
  Metrics declared;
  Metrics named;
  if (tally.failed == 0) {
    std::printf("input: %llu matched events, %zu frames, %llu raw B, "
                "%zu sealed B, median %llu epochs/stream\n",
                static_cast<unsigned long long>(in.matched_events),
                in.frames.size(),
                static_cast<unsigned long long>(in.raw_bytes),
                in.ref_bytes.size(),
                static_cast<unsigned long long>(in.median_epochs));
    if (args.trace) {
      traced_run(args, in, tally, declared);
      print_table("per-layer metrics (traced run):", declared);
    } else {
      measure(args, in, tally, declared, named);
      declared["setup_s"] = summary(median(setup_times), "s", setup_times);
      named["setup_s"] = declared["setup_s"];
      named["peak_rss_mb"] = declared["peak_rss_mb"];
      named["fail_ratio"] = {static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted),
                             "ratio", tally.attempted};
      print_table("workload metrics:", named);
      print_table("declared end-to-end metrics:", declared);
    }
  }
  fs::remove_all(args.workdir);
  print_result(tally, declared);
  return tally.failed == 0 ? 0 : 1;
}
