#include "zenesis/models/sam.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>

#include "zenesis/cv/components.hpp"
#include "zenesis/cv/filters.hpp"
#include "zenesis/cv/morphology.hpp"
#include "zenesis/cv/threshold.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/tensor/conv.hpp"
#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zenesis::models {
namespace {

constexpr float kNoiseFloor = 0.02f;

/// Mean/stddev of the smoothed-intensity channel over mask-selected pixels.
struct BandStats {
  float mean = 0.0f;
  float stddev = 0.0f;
  std::int64_t count = 0;
};

BandStats stats_where(const image::ImageF32& img,
                      const std::function<bool(std::int64_t, std::int64_t)>& pred) {
  BandStats s;
  double sum = 0.0, sum2 = 0.0;
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      if (!pred(x, y)) continue;
      const double v = img.at(x, y);
      sum += v;
      sum2 += v * v;
      ++s.count;
    }
  }
  if (s.count > 0) {
    const double n = static_cast<double>(s.count);
    const double mean = sum / n;
    s.mean = static_cast<float>(mean);
    s.stddev = static_cast<float>(std::sqrt(std::max(0.0, sum2 / n - mean * mean)));
  }
  return s;
}

}  // namespace

SamModel::SamModel(const SamConfig& cfg)
    : cfg_(cfg),
      backbone_(cfg.backbone),
      object_token_(tensor::xavier_uniform(1, cfg.backbone.dim,
                                           cfg.backbone.seed, 97)) {}

SamEncoded SamModel::encode(const image::ImageF32& img) const {
  SamEncoded enc;
  enc.maps = compute_features(img);
  enc.enc = backbone_.encode(enc.maps);
  return enc;
}

image::ImageF32 SamModel::decode_coarse(const SamEncoded& enc,
                                        const image::Box& box) const {
  const auto& e = enc.enc;
  const std::int64_t d = backbone_.config().dim;

  // Prompt encoder: two corner tokens (sinusoidal positions of the box
  // corners on the patch grid) plus the learned object token.
  const auto corner_embedding = [&](double gx, double gy) {
    tensor::Tensor t({1, d});
    for (std::int64_t i = 0; i < d / 4; ++i) {
      const double freq = std::pow(10000.0, -4.0 * static_cast<double>(i) /
                                                static_cast<double>(d));
      t.at(0, 4 * i + 0) = static_cast<float>(std::sin(gy * freq));
      t.at(0, 4 * i + 1) = static_cast<float>(std::cos(gy * freq));
      t.at(0, 4 * i + 2) = static_cast<float>(std::sin(gx * freq));
      t.at(0, 4 * i + 3) = static_cast<float>(std::cos(gx * freq));
    }
    return t;
  };
  const double ps = static_cast<double>(e.patch_size);
  tensor::Tensor prompts({3, d});
  const tensor::Tensor c0 =
      corner_embedding(static_cast<double>(box.x) / ps, static_cast<double>(box.y) / ps);
  const tensor::Tensor c1 = corner_embedding(
      static_cast<double>(box.right()) / ps, static_cast<double>(box.bottom()) / ps);
  for (std::int64_t j = 0; j < d; ++j) {
    prompts.at(0, j) = c0.at(0, j);
    prompts.at(1, j) = c1.at(0, j);
    prompts.at(2, j) = object_token_.at(0, j);
  }

  // Two-way attention: prompt tokens read from the image tokens; the
  // attended rows are averaged into a single object query.
  const tensor::Tensor attended = tensor::attention(prompts, e.tokens, e.tokens);
  const tensor::Tensor q_obj = tensor::mean_rows(attended);

  // Per-patch logits: similarity of each image token to the object query,
  // computed as one tokens · q GEMV on the active kernel backend (both
  // sides dynamically quantized on the int8 fast path).
  const std::int64_t n = e.tokens.dim(0);
  tensor::Tensor q_row({1, d});
  std::copy(q_obj.data(), q_obj.data() + d, q_row.data());
  const tensor::Tensor sims =
      tensor::quant::int8_fast_path()
          ? tensor::matmul_nt_dyn_quantized(e.tokens, q_row)
          : tensor::matmul_nt(e.tokens, q_row);  // [n, 1]
  tensor::Tensor logits({1, e.grid_h, e.grid_w});
  float max_abs = 1e-6f;
  for (std::int64_t j = 0; j < n; ++j) {
    const float dot = sims.at(j, 0);
    logits.at(0, j / e.grid_w, j % e.grid_w) = dot;
    max_abs = std::max(max_abs, std::abs(dot));
  }
  tensor::scale_inplace(logits, 1.0f / max_abs);

  // Upsample to pixel resolution (the decoder's mask head).
  const tensor::Tensor up = tensor::resize_bilinear(
      logits, enc.maps.height, enc.maps.width);
  image::ImageF32 out(enc.maps.width, enc.maps.height, 1);
  for (std::int64_t y = 0; y < out.height(); ++y) {
    for (std::int64_t x = 0; x < out.width(); ++x) {
      out.at(x, y) = up.at(0, y, x);
    }
  }
  return out;
}

std::vector<MaskPrediction> SamModel::predict_box_candidates(
    const SamEncoded& enc, const image::Box& raw_box) const {
  const auto& intensity = enc.maps.channels[kIntensity];
  const image::Box box = raw_box.clipped(enc.maps.width, enc.maps.height);
  std::vector<MaskPrediction> out;
  if (box.empty() || box.area() < 64) return out;

  // Rim band: SAM's implicit background sample for a box prompt (used for
  // the rim-overlap prior on each candidate).
  const std::int64_t band = std::max<std::int64_t>(
      2, static_cast<std::int64_t>(0.07 * static_cast<double>(std::min(box.w, box.h))));
  const image::Box inner = {box.x + band, box.y + band, box.w - 2 * band,
                            box.h - 2 * band};

  // Local-context contrast: intensity minus a windowed *median*. The
  // median is the surrogate of deep features' illumination invariance —
  // it cancels topography shading and, unlike a mean, is immune to halo
  // artifacts next to sharp interfaces (holder edges) and to thin bright
  // structures inflating their own background estimate.
  const image::ImageF32 coarse =
      cfg_.coarse_veto_weight > 0.0f ? decode_coarse(enc, box)
                                     : image::ImageF32();

  // The multimask spectrum: candidates span object polarity (brighter /
  // darker than local context) and structural scale. The fine scale
  // delineates thin structures (needles) against their immediate
  // surround; the coarse scale smooths away texture and sees whole phase
  // regions (particle agglomerates) against a very wide background
  // estimate. This mirrors SAM's whole/part/sub-part multimask output;
  // selection happens in the caller.
  struct ScaleSpec {
    float smooth_sigma;
    std::int64_t large_div, large_min, large_max;
    bool rim_context;  // background = constant median of the box rim
  };
  std::vector<ScaleSpec> scales;
  scales.push_back({0.0f, 4, 12, 64, false});  // fine local context
  if (std::min(box.w, box.h) >= 48) {
    scales.push_back({4.0f, 2, 48, 96, false});  // coarse local context
  }
  // Rim context: SAM's literal box prior — the rim samples the
  // background. Indispensable when the object fills most of its box (a
  // windowed median would sit *on* the object).
  scales.push_back({0.0f, 0, 0, 0, true});

  for (const auto& sc : scales) {
  const image::ImageF32 smoothed =
      sc.smooth_sigma > 0.0f ? cv::gaussian_blur(intensity, sc.smooth_sigma)
                             : intensity;
  image::ImageF32 context;
  image::ImageF32 context_small;
  bool refit_context = false;
  if (sc.rim_context) {
    std::vector<float> rim_vals;
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        if (!inner.contains({x, y})) rim_vals.push_back(smoothed.at(x, y));
      }
    }
    auto mid = rim_vals.begin() + static_cast<std::ptrdiff_t>(rim_vals.size() / 2);
    std::nth_element(rim_vals.begin(), mid, rim_vals.end());
    context = image::ImageF32(enc.maps.width, enc.maps.height, 1);
    context.fill(*mid);
    context_small = context;  // the halo veto is a no-op for rim context
  } else {
    // Two context scales: the large window sees whole phase regions (so a
    // blob's interior still contrasts against the surrounding matrix); the
    // small window hugs interfaces (so pixels that merely sit next to a
    // different phase — holder-edge halos — are vetoed).
    const int r_large = static_cast<int>(std::clamp<std::int64_t>(
        std::min(box.w, box.h) / sc.large_div, sc.large_min, sc.large_max));
    const int r_small = static_cast<int>(std::clamp<std::int64_t>(
        std::min(box.w, box.h) / 8, 8, 20));
    // Context medians are only ever read inside the prompt box (the
    // histogram/core/grow loops below are all box-bounded), so compute
    // them over the box ROI — byte-identical there, and the decode cost
    // scales with the box instead of the frame.
    context = cv::median_filter_large(smoothed, r_large, box);
    context_small = r_small < r_large
                        ? cv::median_filter_large(smoothed, r_small, box)
                        : context;
    refit_context = true;
  }

  for (const int polarity : {+1, -1}) {
    const auto p = static_cast<float>(polarity);

    // Histogram of the positive contrast residue for this polarity.
    constexpr int kBins = 128;
    float vmax = 0.0f;
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        vmax = std::max(vmax, p * (smoothed.at(x, y) - context.at(x, y)));
      }
    }
    if (vmax < 2.0f * kNoiseFloor) continue;  // no structure on this side
    std::vector<std::int64_t> hist(kBins, 0);
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        const float v = p * (smoothed.at(x, y) - context.at(x, y));
        if (v <= 0.0f) continue;
        ++hist[static_cast<std::size_t>(std::min<int>(
            kBins - 1, static_cast<int>(v / vmax * kBins)))];
      }
    }
    // Otsu on the residue separates "object contrast" from "background
    // fluctuation"; a noise floor stops the cut collapsing into sensor
    // noise when the box contains no object of this polarity.
    const int cut_bin = cv::otsu_bin(hist);
    const float cut_high =
        std::max(cfg_.min_contrast_cut,
                 (static_cast<float>(cut_bin) + 0.5f) / kBins * vmax);

    // Hysteresis segmentation with per-object levels: strong-evidence
    // cores (above the Otsu cut of the contrast residue) are labeled,
    // each core measures its own robust peak contrast, and the object is
    // grown out to a fraction of *its* peak ("per-object half-max").
    // This is the surrogate of SAM's per-object boundary placement: a dim
    // agglomerate is delineated at half of its own brightness instead of
    // being truncated by a global cut tuned to the brightest object.
    // `ctx` starts as the plain windowed median and is re-estimated once
    // the first pass has explained away the foreground (second decoder
    // iteration): object skirts no longer inflate their own background.
    image::ImageF32 ctx = context;
    const auto residue = [&](std::int64_t x, std::int64_t y) {
      return p * (smoothed.at(x, y) - ctx.at(x, y));
    };
    const auto residue_local = [&](std::int64_t x, std::int64_t y) {
      return p * (smoothed.at(x, y) - context_small.at(x, y));
    };
    image::Mask core(enc.maps.width, enc.maps.height);
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        // The local-context veto keeps halo pixels (which only contrast
        // against a distant phase, e.g. membrane next to the dark holder)
        // from seeding objects.
        core.at(x, y) = residue(x, y) > cut_high &&
                                residue_local(x, y) > 0.5f * cut_high
                            ? 1
                            : 0;
      }
    }
    const cv::Labeling core_lab = cv::label_components(core);
    if (core_lab.count == 0) continue;
    // Robust per-core peak: 90th percentile of member residues.
    std::vector<float> comp_peak(static_cast<std::size_t>(core_lab.count) + 1,
                                 0.0f);
    {
      std::vector<std::vector<float>> member(comp_peak.size());
      for (std::int64_t y = box.y; y < box.bottom(); ++y) {
        for (std::int64_t x = box.x; x < box.right(); ++x) {
          const std::int32_t l = core_lab.labels.at(x, y);
          if (l != 0) member[static_cast<std::size_t>(l)].push_back(residue(x, y));
        }
      }
      for (std::size_t l = 1; l < member.size(); ++l) {
        auto& v = member[l];
        if (v.empty()) continue;
        const auto idx =
            static_cast<std::size_t>(0.85 * static_cast<double>(v.size() - 1));
        std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                         v.end());
        comp_peak[l] = v[idx];
      }
    }
    constexpr float kHalfMax = 0.5f;
    const auto threshold_mask = [&](float scale) {
      image::Mask m(enc.maps.width, enc.maps.height);
      std::deque<image::Point> frontier;
      // Per-pixel grow threshold inherited from the seeding core.
      image::Image<float> tmap(enc.maps.width, enc.maps.height, 1);
      for (std::int64_t y = box.y; y < box.bottom(); ++y) {
        for (std::int64_t x = box.x; x < box.right(); ++x) {
          const std::int32_t l = core_lab.labels.at(x, y);
          if (l == 0) continue;
          m.at(x, y) = 1;
          tmap.at(x, y) = std::max(cfg_.min_contrast_cut,
                                   kHalfMax * scale *
                                       comp_peak[static_cast<std::size_t>(l)]);
          frontier.push_back({x, y});
        }
      }
      while (!frontier.empty()) {
        const image::Point q = frontier.front();
        frontier.pop_front();
        const float t = tmap.at(q.x, q.y);
        constexpr int dx[] = {1, -1, 0, 0};
        constexpr int dy[] = {0, 0, 1, -1};
        for (int i = 0; i < 4; ++i) {
          const image::Point nb{q.x + dx[i], q.y + dy[i]};
          if (!box.contains(nb) || m.at(nb.x, nb.y) != 0) continue;
          if (residue(nb.x, nb.y) <= t) continue;
          if (residue_local(nb.x, nb.y) <= 0.3f * t) continue;  // halo veto
          m.at(nb.x, nb.y) = 1;
          tmap.at(nb.x, nb.y) = t;
          frontier.push_back(nb);
        }
      }
      return m;
    };

    // Two decoder iterations: segment, refit the background excluding the
    // detected foreground, segment again. (The rim context is already
    // object-free by construction and is not refitted.)
    image::Mask mask = threshold_mask(1.0f);
    if (refit_context) {
      const int r_refit = static_cast<int>(std::clamp<std::int64_t>(
          std::min(box.w, box.h) / sc.large_div, sc.large_min, sc.large_max));
      // r_refit == r_large, so `context` IS the unmasked median the
      // sparse-window fallback needs — passing it skips recomputing it.
      ctx = cv::median_filter_large_masked(smoothed, r_refit, mask, box,
                                           &context);
      mask = threshold_mask(1.0f);
    }
    image::Mask low = threshold_mask(1.0f - cfg_.stability_delta);
    image::Mask high = threshold_mask(1.0f + cfg_.stability_delta);

    // Coarse attention-logit veto: drop pixels the decoder scores as
    // dissimilar to the attended object query — unless that would erase
    // most of the candidate (guard against a mis-attended query).
    if (cfg_.coarse_veto_weight > 0.0f) {
      image::Mask vetoed = mask;
      std::int64_t kept = 0, total = 0;
      for (std::int64_t y = box.y; y < box.bottom(); ++y) {
        for (std::int64_t x = box.x; x < box.right(); ++x) {
          if (mask.at(x, y) == 0) continue;
          ++total;
          if (coarse.at(x, y) < -0.25f * cfg_.coarse_veto_weight) {
            vetoed.at(x, y) = 0;
          } else {
            ++kept;
          }
        }
      }
      if (total > 0 && kept * 2 >= total) {
        mask = std::move(vetoed);
      }
    }

    // Cleanup: close small gaps, fill interior holes (the context rule
    // hollows out objects wider than its window — their interiors match
    // their own median), drop speckles.
    if (cfg_.morph_radius > 0) {
      mask = cv::close(mask, cfg_.morph_radius);
      low = cv::close(low, cfg_.morph_radius);
      high = cv::close(high, cfg_.morph_radius);
    }
    mask = cv::fill_holes(mask);
    low = cv::fill_holes(low);
    high = cv::fill_holes(high);
    if (cfg_.min_component_area > 0) {
      mask = cv::remove_small_components(mask, cfg_.min_component_area);
    }

    MaskPrediction pred =
        score_mask(enc, std::move(mask), std::move(low), std::move(high));
    pred.polarity = polarity;
    // Rim prior: a mask coinciding with the prompt rim is suspect.
    std::int64_t rim_total = 0, rim_hit = 0;
    for (std::int64_t y = box.y; y < box.bottom(); ++y) {
      for (std::int64_t x = box.x; x < box.right(); ++x) {
        if (inner.contains({x, y})) continue;
        ++rim_total;
        rim_hit += pred.mask.at(x, y) != 0;
      }
    }
    pred.rim_overlap = rim_total > 0 ? static_cast<double>(rim_hit) /
                                           static_cast<double>(rim_total)
                                     : 0.0;
    // Box-prompt confidence: a credible object is stable under threshold
    // perturbation, internally homogeneous, and does not coincide with the
    // prompt rim. (No large-area reward here — that prior belongs to
    // unguided point prompts, where it drives the SAM-only failure mode.)
    pred.confidence =
        pred.stability * pred.homogeneity * (1.0 - 0.7 * pred.rim_overlap);
    out.push_back(std::move(pred));
  }
  }
  return out;
}

double boundary_adherence(const SamEncoded& enc, const image::Mask& mask) {
  const image::Mask boundary = cv::boundary_gradient(mask);
  double sum = 0.0;
  std::int64_t count = 0;
  for (std::int64_t y = 0; y < boundary.height(); ++y) {
    for (std::int64_t x = 0; x < boundary.width(); ++x) {
      if (boundary.at(x, y) == 0) continue;
      sum += enc.maps.channels[kEdge].at(x, y);
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

MaskPrediction SamModel::predict_box(const SamEncoded& enc,
                                     const image::Box& raw_box) const {
  std::vector<MaskPrediction> candidates = predict_box_candidates(enc, raw_box);
  // Without text guidance, rank by internal confidence weighted by
  // boundary adherence: a real object's outline follows image edges, a
  // spurious candidate's outline floats through flat regions.
  MaskPrediction best;
  best.mask = image::Mask(enc.maps.width, enc.maps.height);
  double best_score = -1.0;
  for (auto& c : candidates) {
    const double score = c.confidence * (0.1 + boundary_adherence(enc, c.mask));
    if (score > best_score) {
      best_score = score;
      best = std::move(c);
    }
  }
  return best;
}

MaskPrediction SamModel::predict_point(const SamEncoded& enc,
                                       image::Point p) const {
  const auto& intensity = enc.maps.channels[kIntensity];
  const std::int64_t w = enc.maps.width, h = enc.maps.height;
  MaskPrediction out;
  out.mask = image::Mask(w, h);
  if (p.x < 0 || p.x >= w || p.y < 0 || p.y >= h) return out;

  // Seed statistics from a small disk around the click.
  const BandStats seed = stats_where(intensity, [&](std::int64_t x, std::int64_t y) {
    const std::int64_t dx = x - p.x, dy = y - p.y;
    return dx * dx + dy * dy <= 9;
  });
  const float tol_base =
      std::min(cfg_.grow_tolerance_cap,
               cfg_.grow_tolerance * std::max(seed.stddev, kNoiseFloor));

  // Neighbour-relative growth: a pixel joins when the *step* from an
  // already-accepted neighbour is below tolerance. This reproduces SAM's
  // characteristic unguided behaviour on scientific data — masks bleed
  // through diffuse phase boundaries and gradual shading (amorphous
  // agglomerates) but stop dead at sharp edges (the holder/membrane
  // interface), which is what hands the max-confidence pick to the large
  // homogeneous background.
  const auto grow = [&](float tol) {
    image::Mask m(w, h);
    std::deque<image::Point> frontier;
    m.at(p.x, p.y) = 1;
    frontier.push_back(p);
    while (!frontier.empty()) {
      const image::Point q = frontier.front();
      frontier.pop_front();
      constexpr int dx[] = {1, -1, 0, 0};
      constexpr int dy[] = {0, 0, 1, -1};
      for (int i = 0; i < 4; ++i) {
        const std::int64_t nx = q.x + dx[i], ny = q.y + dy[i];
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        if (m.at(nx, ny) != 0) continue;
        if (std::fabs(intensity.at(nx, ny) - intensity.at(q.x, q.y)) > tol) {
          continue;
        }
        m.at(nx, ny) = 1;
        frontier.push_back({nx, ny});
      }
    }
    return m;
  };

  image::Mask mask = grow(tol_base);
  image::Mask low = grow(tol_base * (1.0f - cfg_.stability_delta));
  image::Mask high = grow(tol_base * (1.0f + cfg_.stability_delta));
  return score_mask(enc, std::move(mask), std::move(low), std::move(high));
}

MaskPrediction SamModel::score_mask(const SamEncoded& enc, image::Mask mask,
                                    image::Mask low, image::Mask high) const {
  MaskPrediction pred;
  pred.stability = image::mask_iou(low, high);
  const std::int64_t area = image::mask_area(mask);
  pred.area_fraction = static_cast<double>(area) /
                       static_cast<double>(std::max<std::int64_t>(
                           1, mask.pixel_count()));
  const BandStats inside =
      stats_where(enc.maps.channels[kIntensity],
                  [&](std::int64_t x, std::int64_t y) { return mask.at(x, y) != 0; });
  pred.homogeneity =
      inside.count > 0
          ? 1.0 / (1.0 + static_cast<double>(inside.stddev) / kNoiseFloor)
          : 0.0;
  // Max-confidence rule: stability and homogeneity reward crisp uniform
  // regions; the size prior rewards large ones. On crystalline FIB-SEM the
  // black background maximizes all three — the paper's SAM-only failure.
  pred.confidence =
      pred.stability * (0.25 + 0.75 * pred.homogeneity) * std::sqrt(pred.area_fraction);
  pred.mask = std::move(mask);
  return pred;
}

}  // namespace zenesis::models
