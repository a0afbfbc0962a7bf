// The two Mode-A workloads: one interactive caller, in-process pipeline.
//
//   cold-512      every request is a new 512² raw slice → both caches miss
//   reprompt-256  distinct prompts against pre-encoded 256² slices → the
//                 feature cache always hits, the mask cache always misses
//
// Both share one closed loop (run_mode_a); they differ in set-up, inputs
// and the pipeline entry point.

#include <cstdio>
#include <exception>

#include "common.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/obs/trace.hpp"

namespace zbench {
namespace {

/// One built pipeline plus, for reprompt-256, the slices it made AI-ready
/// and encoded during set-up.
struct ModeAInstance {
  std::unique_ptr<core::ZenesisPipeline> pipeline;
  std::vector<image::ImageF32> ready;
  std::vector<std::shared_ptr<const models::SamEncoded>> encoded;
};

/// One request: a raw slice (cold-512) or the index of a pre-encoded slice
/// (reprompt-256), its ground truth and its prompt.
struct SliceInput {
  image::AnyImage raw;
  std::size_t slice = 0;
  image::Mask ground_truth;
  std::string prompt;
};

struct ModeASpec {
  /// true: pipeline.segment(raw); false: segment_ready(instance.ready[slice]).
  bool from_raw = true;
  std::int64_t size = 0;  ///< slice edge, for the output geometry check
  int setup_reps = 3;
  /// Requests come in rounds (one of each slice kind); a run stops only at
  /// a round boundary so percentiles see a fixed mix of kinds.
  std::size_t round = 2;
  std::size_t prefill = 0;
  std::function<ModeAInstance()> setup;
  std::function<SliceInput(std::size_t)> make_input;
};

fibsem::SampleType kind_of(std::size_t i) {
  return i % 2 == 0 ? fibsem::SampleType::kCrystalline
                    : fibsem::SampleType::kAmorphous;
}

core::SliceResult run_one(const ModeASpec& spec, const ModeAInstance& inst,
                          const SliceInput& in) {
  if (spec.from_raw) return inst.pipeline->segment(in.raw, in.prompt);
  return inst.pipeline->segment_ready(inst.ready.at(in.slice), in.prompt);
}

Result run_mode_a(const Options& opt, const ModeASpec& spec) {
  Result r;
  InputPool<SliceInput> inputs(spec.make_input);
  const auto synth_start = Clock::now();
  inputs.prefill(spec.prefill);
  r.info["inputs_s"] = seconds_since(synth_start);

  // The first instance serves the run; the last, untouched, replays
  // request 0 from cold caches at the end.
  ModeAInstance main;
  ModeAInstance replay;
  r.set("setup_s", timed_setups(spec.setup_reps, spec.setup, main, replay), "s");

  const auto feat0 = main.pipeline->cache_stats();
  const auto mask0 = main.pipeline->mask_cache_stats();
  auto& collector = obs::TraceCollector::global();

  KindSamples latency;         // untraced requests
  KindSamples traced_latency;  // traced requests (trace pass only)
  std::vector<double> ious;
  std::uint64_t digest0 = 0;
  LayerTable table;
  double busy_ms = 0.0;
  const auto start = Clock::now();
  // Trace pass: whole rounds alternate traced / untraced, so every slice
  // lands on both sides of the overhead comparison; it runs at least one
  // round of each.
  const std::size_t min_requests = opt.trace ? 2 * spec.round : spec.round;
  for (std::size_t i = 0; i % spec.round != 0 || i < min_requests ||
                          seconds_since(start) < opt.seconds;
       ++i) {
    const SliceInput& in = inputs.get(i);
    const bool traced = opt.trace && (i / spec.round) % 2 == 0;
    ++r.attempted;
    core::SliceResult res;
    bool ok = true;
    if (traced) collector.clear();
    obs::set_enabled(traced);
    const auto t0 = Clock::now();
    try {
      res = run_one(spec, main, in);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "zen_bench: request %zu failed: %s\n", i, e.what());
      ok = false;
    }
    const double ms = ms_between(t0, Clock::now());
    obs::set_enabled(false);
    ok = ok && res.mask.width() == spec.size && res.mask.height() == spec.size &&
         res.ai_ready.width() == spec.size && res.ai_ready.height() == spec.size;
    if (!ok) {
      ++r.failed;
      continue;
    }
    busy_ms += ms;
    (traced ? traced_latency : latency).add(i, ms);
    ious.push_back(eval::compute_metrics(res.mask, in.ground_truth).iou);
    if (i == 0) digest0 = mask_digest(res.mask);
    if (traced) {
      r.check(collector.overwritten() == 0,
              "trace ring dropped spans; per-layer numbers would be wrong");
      const auto spans = collector.aggregate();
      const auto encodes = spans.contains("sam.encode") ? spans.at("sam.encode").count : 0;
      r.check(encodes == (spec.from_raw ? 1u : 0u),
              "traced sam.encode span count does not match the cache state");
      const LayerTimes layers = attribute_request(
          *main.pipeline, spec.from_raw ? &in.raw : nullptr,
          spec.from_raw ? nullptr : &main.ready.at(in.slice),
          spec.from_raw ? nullptr : main.encoded.at(in.slice).get(), in.prompt,
          &res, r);
      table.add(layers, ms);
    }
  }

  const auto feat = main.pipeline->cache_stats();
  const auto mask = main.pipeline->mask_cache_stats();
  const std::uint64_t feat_hits = feat.hits - feat0.hits;
  const std::uint64_t feat_misses = feat.misses - feat0.misses;
  const std::uint64_t mask_hits = mask.hits - mask0.hits;
  const std::uint64_t mask_lookups = mask_hits + (mask.misses - mask0.misses);
  r.check(mask_hits == 0, "mask cache hit during the run (requests must be distinct)");
  r.check(mask_lookups == r.attempted - r.failed,
          "mask cache lookups differ from completed requests");
  if (spec.from_raw) {
    r.check(feat_misses == r.attempted - r.failed,
            "cold request did not run the encoder exactly once");
  } else {
    r.check(feat_misses == 0, "encoder ran after set-up");
  }
  // Replay request 0 on the untouched instance: cold caches, same digest.
  try {
    const core::SliceResult again = run_one(spec, replay, inputs.get(0));
    r.check(mask_digest(again.mask) == digest0, "replayed request 0 changed its mask");
  } catch (const std::exception& e) {
    r.check(false, std::string("replay threw: ") + e.what());
  }

  const double n = static_cast<double>(latency.pooled().size());
  if (!opt.trace) {
    note_latency_samples(r, latency.pooled());
    r.set("latency_ms_p50", latency.median(), "ms");
    r.set("requests_per_s", n / (busy_ms / 1000.0), "1/s");
    r.set("slices_per_s", n / (busy_ms / 1000.0), "1/s");
    r.set("mask_iou", mean(ious), "ratio");
    r.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return r;
  }
  r.metrics.clear();
  r.info["samples"] = n;
  table.emit(r);
  r.set("tensor.attention_4096_ms", attention_4096_ms(), "ms");
  r.set("cache.feature_hit_rate",
        feat_hits + feat_misses == 0
            ? 0.0
            : static_cast<double>(feat_hits) / static_cast<double>(feat_hits + feat_misses),
        "ratio");
  r.set("cache.feature_misses", static_cast<double>(feat_misses), "count");
  r.set("cache.feature_evictions", static_cast<double>(feat.evictions - feat0.evictions),
        "count");
  r.set("cache.mask_hit_rate",
        mask_lookups == 0 ? 0.0
                          : static_cast<double>(mask_hits) / static_cast<double>(mask_lookups),
        "ratio");
  const double untraced = latency.median();
  r.set("obs.trace_overhead_pct",
        untraced > 0.0 ? 100.0 * (traced_latency.median() - untraced) / untraced : 0.0,
        "%");
  fill_unexercised(r);
  return r;
}

}  // namespace

Result run_cold_512(const Options& opt) {
  constexpr std::int64_t kSize = 512;
  ModeASpec spec;
  spec.from_raw = true;
  spec.size = kSize;
  spec.setup_reps = 15;
  spec.round = 2;
  // Sized for about 1.5x the current rate; a faster program extends it
  // between requests.
  spec.prefill = static_cast<std::size_t>(opt.seconds * 0.7) + 2;
  spec.setup = [] {
    ModeAInstance inst;
    inst.pipeline = std::make_unique<core::ZenesisPipeline>(core::PipelineConfig{});
    return inst;
  };
  spec.make_input = [seed = opt.seed](std::size_t i) {
    fibsem::SynthConfig cfg;
    cfg.type = kind_of(i);
    cfg.width = kSize;
    cfg.height = kSize;
    cfg.seed = sub_seed(seed, 512, i);
    fibsem::SyntheticSlice s = fibsem::generate_slice(cfg, 0);
    SliceInput in;
    in.raw = std::move(s.raw);
    in.ground_truth = std::move(s.ground_truth);
    in.prompt = fibsem::default_prompt(cfg.type);
    return in;
  };
  return run_mode_a(opt, spec);
}

Result run_reprompt_256(const Options& opt) {
  constexpr std::int64_t kSize = 256;
  constexpr std::size_t kSlices = 16;  // eight of each kind
  std::vector<fibsem::SyntheticSlice> slices;
  for (std::size_t s = 0; s < kSlices; ++s) {
    fibsem::SynthConfig cfg;
    cfg.type = kind_of(s);
    cfg.width = kSize;
    cfg.height = kSize;
    cfg.seed = sub_seed(opt.seed, 256, s);
    slices.push_back(fibsem::generate_slice(cfg, 0));
  }

  ModeASpec spec;
  spec.from_raw = false;
  spec.size = kSize;
  spec.setup_reps = 3;
  spec.round = kSlices;
  spec.prefill = static_cast<std::size_t>(opt.seconds * 40.0) + kSlices;
  spec.setup = [&slices] {
    ModeAInstance inst;
    inst.pipeline = std::make_unique<core::ZenesisPipeline>(core::PipelineConfig{});
    for (const auto& s : slices) {
      inst.ready.push_back(inst.pipeline->make_ready(s.raw));
      inst.encoded.push_back(inst.pipeline->encode_cached(inst.ready.back()));
    }
    return inst;
  };
  spec.make_input = [&slices, seed = opt.seed](std::size_t i) {
    // A user rephrasing the concept for the phase they want: every prompt
    // names the slice's phase in seeded wording, and a request number
    // keeps each one distinct so the mask cache never repeats.
    static const char* const kCrystalline[] = {
        "bright needle-like crystalline catalyst", "white needle crystals",
        "bright elongated crystalline catalyst", "needle-like iridium oxide crystals",
        "bright crystalline needles", "elongated bright fiber catalyst"};
    static const char* const kAmorphous[] = {
        "bright amorphous catalyst particles", "white amorphous particles",
        "bright catalyst particle agglomerates", "amorphous iridium oxide particles",
        "bright textured catalyst blobs", "dense bright amorphous grains"};
    const std::size_t s = i % slices.size();
    const auto pick = sub_seed(seed, 257, i) % 6;
    SliceInput in;
    in.slice = s;
    in.ground_truth = slices[s].ground_truth;
    in.prompt = std::string(kind_of(s) == fibsem::SampleType::kCrystalline
                                ? kCrystalline[pick]
                                : kAmorphous[pick]) +
                " #" + std::to_string(i);
    return in;
  };
  return run_mode_a(opt, spec);
}

}  // namespace zbench
