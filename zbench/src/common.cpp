#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <random>

#include "zenesis/cache/hash.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/models/features.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zbench {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull +
                    index * 0x8CB92BA72F3D8DD7ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::vector<double> KindSamples::pooled() const {
  std::vector<double> all = kind[0];
  all.insert(all.end(), kind[1].begin(), kind[1].end());
  return all;
}

double KindSamples::median() const {
  if (kind[0].empty() || kind[1].empty()) return zbench::median(pooled());
  return 0.5 * (zbench::median(kind[0]) + zbench::median(kind[1]));
}

void note_latency_samples(Result& result, const std::vector<double>& latency_ms) {
  const auto n = static_cast<double>(latency_ms.size());
  result.info["samples"] = n;
  if (n < 20.0) return;
  const double tail = std::floor(100.0 * (1.0 - 10.0 / n));
  result.info["latency_tail_percentile"] = tail;
  result.info["latency_ms_tail"] = percentile(latency_ms, tail);
}

std::uint64_t mask_digest(const image::Mask& mask) {
  std::uint64_t h = cache::kFnvOffset;
  h = cache::fnv1a_value(h, mask.width());
  h = cache::fnv1a_value(h, mask.height());
  const auto px = mask.pixels();
  return cache::fnv1a_bytes(h, px.data(), px.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

LayerTimes attribute_request(const core::ZenesisPipeline& pipeline,
                             const image::AnyImage* raw,
                             const image::ImageF32* ready,
                             const models::SamEncoded* encoded,
                             const std::string& prompt,
                             const core::SliceResult* expected, Result& result) {
  LayerTimes t;
  image::ImageF32 own_ready;
  if (raw != nullptr) {
    const auto t0 = Clock::now();
    own_ready = image::make_ai_ready(*raw, pipeline.config().readiness);
    t.ready_ms = ms_between(t0, Clock::now());
    if (expected != nullptr) {
      const auto a = own_ready.pixels();
      const auto b = expected->ai_ready.pixels();
      result.check(a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin()),
                   "attribution: make_ai_ready differs from the pipeline's image");
    }
    ready = &own_ready;
  }
  models::SamEncoded own;
  if (encoded == nullptr) {
    const auto t0 = Clock::now();
    own.maps = models::compute_features(*ready);
    const auto t1 = Clock::now();
    // The pipeline's one encode per slice runs under the grounding
    // backbone; SAM's backbone shares its configuration and reuses it.
    own.enc = pipeline.detector().backbone().encode(own.maps);
    t.features_ms = ms_between(t0, t1);
    t.encode_ms = ms_between(t1, Clock::now());
    encoded = &own;
  }
  auto t0 = Clock::now();
  const models::GroundingResult g =
      pipeline.detector().detect(encoded->maps, encoded->enc, prompt);
  t.ground_ms = ms_between(t0, Clock::now());
  result.check(expected == nullptr || g.boxes == expected->grounding.boxes,
               "attribution: detect() boxes differ from the pipeline's");
  t.top_box = g.best().box;

  const std::size_t k = std::min<std::size_t>(
      g.boxes.size(), static_cast<std::size_t>(pipeline.config().max_boxes));
  std::size_t candidates = 0;
  t0 = Clock::now();
  for (std::size_t i = 0; i < k; ++i) {
    candidates += pipeline.sam().predict_box_candidates(*encoded, g.boxes[i].box).size();
  }
  t.decode_ms = ms_between(t0, Clock::now());
  result.check(k == 0 || candidates > 0, "attribution: decode produced no candidates");
  t.boxes = static_cast<double>(k);
  return t;
}

void LayerTable::emit(Result& result) const {
  const auto avg = [&](double LayerTimes::*field) {
    std::vector<double> v;
    for (const auto& l : layers) v.push_back(l.*field);
    return mean(v);
  };
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    unattributed.push_back(traced_ms[i] - layers[i].sum_ms());
  }
  result.set("image.ready_ms", avg(&LayerTimes::ready_ms), "ms");
  result.set("models.features_ms", avg(&LayerTimes::features_ms), "ms");
  result.set("models.encode_ms", avg(&LayerTimes::encode_ms), "ms");
  result.set("models.ground_ms", avg(&LayerTimes::ground_ms), "ms");
  result.set("models.decode_ms", avg(&LayerTimes::decode_ms), "ms");
  result.set("models.boxes_per_request", avg(&LayerTimes::boxes), "count");
  result.set("core.unattributed_ms", mean(unattributed), "ms");
  result.set("core.traced_latency_ms", mean(traced_ms), "ms");
  result.info["traced_samples"] = static_cast<double>(layers.size());
}

double attention_4096_ms() {
  constexpr std::int64_t kTokens = 4096;
  constexpr std::int64_t kDim = 64;
  std::mt19937 gen(4096);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  const auto random_tensor = [&] {
    tensor::Tensor t({kTokens, kDim});
    for (float& x : t.flat()) x = dist(gen);
    return t;
  };
  const tensor::Tensor q = random_tensor();
  const tensor::Tensor k = random_tensor();
  const tensor::Tensor v = random_tensor();
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    const tensor::Tensor out = tensor::attention(q, k, v);
    times.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

void fill_unexercised(Result& result) {
  static const char* const kLayerMetrics[][2] = {
      {"image.ready_ms", "ms"},
      {"models.features_ms", "ms"},
      {"models.encode_ms", "ms"},
      {"models.ground_ms", "ms"},
      {"models.decode_ms", "ms"},
      {"models.boxes_per_request", "count"},
      {"core.unattributed_ms", "ms"},
      {"core.traced_latency_ms", "ms"},
      {"io.read_page_ms", "ms"},
      {"volume3d.replaced_slices", "count"},
      {"parallel.volume_concurrency", "ratio"},
      {"serve.queue_ms_p50", "ms"},
      {"serve.service_ms_p50", "ms"},
      {"net.overhead_ms_p50", "ms"},
      {"net.bytes_out_per_request", "bytes"},
  };
  for (const auto& m : kLayerMetrics) {
    if (!result.metrics.contains(m[0])) result.set(m[0], 0.0, m[1]);
  }
}

}  // namespace zbench
