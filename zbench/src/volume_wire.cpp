// volume-wire: Mode B over zen_net. An in-process SegmentService behind a
// net::Server; two loopback connections run a closed loop of VolumeFile
// requests, each naming a distinct 16-slice 256² Deflate+predictor TIFF
// written before the clock starts.

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <optional>
#include <thread>

#include "common.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"

namespace zbench {
namespace {

constexpr std::int64_t kSize = 256;
constexpr std::int64_t kDepth = 16;
constexpr std::size_t kConnections = 2;
constexpr int kSetupReps = 15;

struct VolumeInput {
  std::string path;
  std::string prompt;
  std::vector<image::Mask> ground_truth;
};

/// Service + server + connected, greeted clients. Members are destroyed
/// clients first, then the server (stop), then the service (drain).
struct WireInstance {
  std::unique_ptr<serve::SegmentService> service;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;
};

WireInstance build_instance() {
  WireInstance w;
  w.service = std::make_unique<serve::SegmentService>(serve::ServiceConfig{});
  w.server = std::make_unique<net::Server>(*w.service, net::ServerConfig{});
  for (std::size_t c = 0; c < kConnections; ++c) {
    auto [client, server_fd] = net::Client::loopback_pair();
    w.server->adopt(server_fd);
    if (!client.hello(static_cast<std::uint32_t>(c + 1))) {
      throw std::runtime_error("hello handshake failed");
    }
    w.clients.push_back(std::move(client));
  }
  return w;
}

/// One completed (or failed) request as the client saw it.
struct Record {
  std::size_t index = 0;
  bool ok = false;
  double rtt_ms = 0.0;
  double queue_ms = 0.0;
  double service_ms = 0.0;
  double server_total_ms = 0.0;
  double iou = 0.0;
  double replaced = 0.0;
  std::uint64_t trace_id = 0;
  std::uint64_t digest = 0;
  image::Box first_box;
};

std::uint64_t volume_digest(const std::vector<image::Mask>& masks) {
  std::uint64_t h = 0;
  for (const auto& m : masks) h = sub_seed(h, 16, mask_digest(m));
  return h;
}

/// Sends input `index` on `client` and waits for its terminal frame.
Record round_trip(net::Client& client, std::size_t index, const VolumeInput& in) {
  Record rec;
  rec.index = index;
  const auto t0 = Clock::now();
  const std::uint64_t rid = client.submit_volume_file(in.path, in.prompt);
  const auto msg = rid == 0 ? std::nullopt
                            : client.wait_for(rid, std::chrono::seconds(120));
  rec.rtt_ms = ms_between(t0, Clock::now());
  if (!msg || msg->type != net::FrameType::kResponse ||
      msg->volume_masks.size() != static_cast<std::size_t>(kDepth)) {
    std::fprintf(stderr, "zen_bench: volume request %zu failed (%s)\n", index,
                 !msg ? "no terminal frame" : msg->error.message.c_str());
    return rec;
  }
  double iou = 0.0;
  for (std::size_t z = 0; z < msg->volume_masks.size(); ++z) {
    const image::Mask& m = msg->volume_masks[z];
    if (m.width() != kSize || m.height() != kSize) return rec;
    iou += eval::compute_metrics(m, in.ground_truth[z]).iou;
  }
  rec.ok = true;
  rec.iou = iou / static_cast<double>(kDepth);
  rec.queue_ms = msg->queue_us / 1000.0;
  rec.service_ms = msg->decode_us / 1000.0;
  rec.server_total_ms = msg->total_us / 1000.0;
  rec.replaced = msg->replaced_count;
  rec.trace_id = msg->trace_id;
  rec.digest = volume_digest(msg->volume_masks);
  rec.first_box = msg->box;
  return rec;
}

/// One thread per connection: each sends the input index take(sent) hands
/// it (`sent` = requests this connection already sent) and waits for the
/// answer, until take returns nothing.
std::vector<Record> drive(
    WireInstance& w, InputPool<VolumeInput>& inputs,
    const std::function<std::optional<std::size_t>(std::size_t)>& take) {
  std::vector<std::vector<Record>> per_client(w.clients.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients.size(); ++c) {
    threads.emplace_back([&, c] {
      while (const auto i = take(per_client[c].size())) {
        try {
          per_client[c].push_back(round_trip(w.clients[c], *i, inputs.get(*i)));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "zen_bench: volume request %zu threw: %s\n", *i, e.what());
          Record failed;
          failed.index = *i;
          per_client[c].push_back(failed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Record> out;
  for (auto& recs : per_client) out.insert(out.end(), recs.begin(), recs.end());
  return out;
}

}  // namespace

Result run_volume_wire(const Options& opt) {
  Result r;
  std::filesystem::create_directories(opt.work_dir);
  InputPool<VolumeInput> inputs([&opt](std::size_t i) {
    fibsem::SynthConfig cfg;
    cfg.type = i % 2 == 0 ? fibsem::SampleType::kCrystalline
                          : fibsem::SampleType::kAmorphous;
    cfg.width = kSize;
    cfg.height = kSize;
    cfg.depth = kDepth;
    cfg.seed = sub_seed(opt.seed, 16, i);
    fibsem::SyntheticVolume vol = fibsem::generate_volume(cfg);
    io::TiffWriteOptions wopt;
    wopt.compression = io::TiffCompression::kDeflate;
    wopt.predictor = 2;
    VolumeInput in;
    in.path = std::filesystem::absolute(std::filesystem::path(opt.work_dir) /
                                        ("volume_" + std::to_string(i) + ".tif"))
                  .string();
    io::write_volume_tiff(in.path, vol.volume, wopt);
    in.prompt = fibsem::default_prompt(cfg.type);
    in.ground_truth = std::move(vol.ground_truth);
    return in;
  });
  // Sized for ~0.5 volumes/s (about 1.4x the current rate); a faster
  // program extends the pool between its own requests.
  const auto synth_start = Clock::now();
  inputs.prefill(static_cast<std::size_t>(opt.seconds * 0.5) + kConnections);
  r.info["inputs_s"] = seconds_since(synth_start);

  // The first instance serves the run; the last, untouched, replays
  // request 0 from cold caches at the end.
  WireInstance main;
  WireInstance replay;
  r.set("setup_s", timed_setups(kSetupReps, build_instance, main, replay), "s");
  const core::ZenesisPipeline& pipeline = main.service->pipeline();
  const auto feat0 = pipeline.cache_stats();
  const auto mask0 = pipeline.mask_cache_stats();
  const auto net0 = main.server->stats();
  auto& collector = obs::TraceCollector::global();

  // Untraced pass: a free-running closed loop, each connection sending its
  // next request as soon as the previous one answers. Trace pass: rounds
  // of one request per connection, alternately traced and untraced (the
  // overhead baseline); between rounds nothing is in flight, so tracing
  // flips and the span window is read and cleared cleanly.
  std::atomic<std::size_t> next{0};
  std::vector<Record> untraced;
  std::vector<Record> traced;
  std::vector<double> concurrency;
  std::vector<double> slice_span_ms;
  double wall_s = 0.0;
  const auto start = Clock::now();
  if (!opt.trace) {
    // Past the deadline a connection only takes an odd index, so the run
    // ends with as many crystalline (even) as amorphous (odd) volumes.
    untraced = drive(main, inputs, [&](std::size_t) -> std::optional<std::size_t> {
      if (seconds_since(start) < opt.seconds) return next.fetch_add(1);
      std::size_t i = next.load();
      while (i % 2 == 1) {
        if (next.compare_exchange_weak(i, i + 1)) return i;
      }
      return std::nullopt;
    });
    wall_s = seconds_since(start);
  }
  for (int round = 0; opt.trace && (round < 2 || seconds_since(start) < opt.seconds);
       ++round) {
    const bool on = round % 2 == 0;
    collector.clear();
    obs::set_enabled(on);
    std::vector<Record> recs =
        drive(main, inputs, [&](std::size_t sent) -> std::optional<std::size_t> {
          if (sent > 0) return std::nullopt;
          return next.fetch_add(1);
        });
    obs::set_enabled(false);
    if (!on) {
      untraced.insert(untraced.end(), recs.begin(), recs.end());
      continue;
    }
    r.check(collector.overwritten() == 0,
            "trace ring dropped spans; per-layer numbers would be wrong");
    // Slice-parallel concurrency from the existing spans, per request.
    const std::vector<obs::SpanEvent> spans = collector.snapshot();
    for (const auto& rec : recs) {
      double volume_ns = 0.0;
      double slices_ns = 0.0;
      for (const auto& ev : spans) {
        if (ev.trace_id != rec.trace_id || !rec.ok) continue;
        const auto dur = static_cast<double>(ev.end_ns - ev.start_ns);
        if (std::string_view(ev.name) == "pipeline.volume") volume_ns += dur;
        if (std::string_view(ev.name) == "pipeline.slice") {
          slices_ns += dur;
          slice_span_ms.push_back(dur / 1e6);
        }
      }
      r.check(!rec.ok || volume_ns > 0.0,
              "traced volume request has no pipeline.volume span");
      if (volume_ns > 0.0) concurrency.push_back(slices_ns / volume_ns);
    }
    traced.insert(traced.end(), recs.begin(), recs.end());
  }

  std::uint64_t digest0 = 0;
  for (const auto* recs : {&untraced, &traced}) {
    for (const auto& rec : *recs) {
      ++r.attempted;
      if (!rec.ok) ++r.failed;
      if (rec.index == 0) digest0 = rec.digest;
    }
  }
  const std::uint64_t completed = r.attempted - r.failed;

  const auto feat = pipeline.cache_stats();
  const auto mask = pipeline.mask_cache_stats();
  const auto net1 = main.server->stats();
  const std::uint64_t mask_hits = mask.hits - mask0.hits;
  const std::uint64_t mask_lookups = mask_hits + (mask.misses - mask0.misses);
  r.check(mask_hits == 0, "mask cache hit during the run (volumes must be distinct)");
  r.check(feat.misses - feat0.misses >= completed * kDepth,
          "a volume slice skipped the encoder although every slice is new");

  // Replay request 0 through the untouched instance: cold caches, same masks.
  {
    const Record again = round_trip(replay.clients.front(), 0, inputs.get(0));
    r.check(again.ok && again.digest == digest0, "replayed volume 0 changed its masks");
  }

  const auto ok_records = [](const std::vector<Record>& recs) {
    std::vector<Record> out;
    for (const auto& rec : recs) {
      if (rec.ok) out.push_back(rec);
    }
    return out;
  };
  const auto field = [](const std::vector<Record>& recs, double Record::*f) {
    std::vector<double> v;
    for (const auto& rec : recs) v.push_back(rec.*f);
    return v;
  };

  // Round-trip samples by the kind of the volume requested (even index:
  // crystalline).
  const auto by_kind = [](const std::vector<Record>& recs) {
    KindSamples k;
    for (const auto& rec : recs) k.add(rec.index, rec.rtt_ms);
    return k;
  };

  if (!opt.trace) {
    const std::vector<Record> done = ok_records(untraced);
    const double volumes = static_cast<double>(done.size());
    note_latency_samples(r, field(done, &Record::rtt_ms));
    r.set("latency_ms_p50", by_kind(done).median(), "ms");
    r.set("requests_per_s", volumes / wall_s, "1/s");
    r.set("slices_per_s", volumes * kDepth / wall_s, "1/s");
    r.set("mask_iou", mean(field(done, &Record::iou)), "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }

  // --- trace pass: per-layer metrics ---------------------------------------
  r.metrics.clear();
  const std::vector<Record> done = ok_records(traced);

  // Layer attribution per slice, outside the timed loop: TIFF page decode
  // of every page, then the Mode-A stages on slice 0 of each volume.
  LayerTable table;
  std::vector<double> read_page_ms;
  for (const auto& rec : done) {
    const VolumeInput& in = inputs.get(rec.index);
    const io::TiffVolumeReader reader =
        io::TiffVolumeReader::open(in.path, main.server->config().tiff_open);
    image::AnyImage first;
    for (std::int64_t z = 0; z < reader.pages(); ++z) {
      const auto t0 = Clock::now();
      image::AnyImage page = reader.read_page(z);
      read_page_ms.push_back(ms_between(t0, Clock::now()));
      if (z == 0) first = std::move(page);
    }
    const LayerTimes layers =
        attribute_request(pipeline, &first, nullptr, nullptr, in.prompt, nullptr, r);
    // Without refinement the wire's slice-0 box is the top detection.
    r.check(rec.replaced > 0 || layers.top_box == rec.first_box,
            "attribution: detect() top box differs from the served slice 0");
    table.layers.push_back(layers);
  }
  // Per slice, the traced time is the mean pipeline.slice span, so the
  // remainder holds what slices lose to sharing the pool with each other.
  table.traced_ms.assign(table.layers.size(), mean(slice_span_ms));
  table.emit(r);
  r.set("io.read_page_ms", mean(read_page_ms), "ms");
  r.set("volume3d.replaced_slices", mean(field(done, &Record::replaced)), "count");
  r.set("parallel.volume_concurrency", mean(concurrency), "ratio");
  r.set("serve.queue_ms_p50", median(field(done, &Record::queue_ms)), "ms");
  r.set("serve.service_ms_p50", median(field(done, &Record::service_ms)), "ms");
  std::vector<double> overhead;
  for (const auto& rec : done) overhead.push_back(rec.rtt_ms - rec.server_total_ms);
  r.set("net.overhead_ms_p50", median(overhead), "ms");
  r.set("net.bytes_out_per_request",
        completed == 0 ? 0.0
                       : static_cast<double>(net1.bytes_out - net0.bytes_out) /
                             static_cast<double>(completed),
        "bytes");
  r.set("tensor.attention_4096_ms", attention_4096_ms(), "ms");
  const std::uint64_t feat_hits = feat.hits - feat0.hits;
  const std::uint64_t feat_misses = feat.misses - feat0.misses;
  r.set("cache.feature_hit_rate",
        static_cast<double>(feat_hits) / static_cast<double>(std::max<std::uint64_t>(1, feat_hits + feat_misses)),
        "ratio");
  r.set("cache.feature_misses", static_cast<double>(feat_misses), "count");
  r.set("cache.feature_evictions", static_cast<double>(feat.evictions - feat0.evictions),
        "count");
  r.set("cache.mask_hit_rate",
        mask_lookups == 0 ? 0.0
                          : static_cast<double>(mask_hits) / static_cast<double>(mask_lookups),
        "ratio");
  const double base = by_kind(ok_records(untraced)).median();
  r.set("obs.trace_overhead_pct",
        base > 0.0 ? 100.0 * (by_kind(done).median() - base) / base : 0.0, "%");
  r.info["samples"] = static_cast<double>(done.size());
  return r;
}

}  // namespace zbench
