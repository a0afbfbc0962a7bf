#pragma once
// zenesis::core::Session — the platform facade.
//
// Mirrors the paper's presentation layer: Mode A (interactive single
// image / selected slice), Mode B (batch volumes), Mode C (evaluation
// dashboard), plus the interactive extras (Rectify Segmentation, Further
// Segment). A Session owns one pipeline configuration and an evaluation
// dashboard; CLI examples and benches drive everything through it, the
// same way the web UI drives the Python original.

#include <optional>
#include <string>
#include <vector>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/eval/dashboard.hpp"
#include "zenesis/hitl/rectify.hpp"

namespace zenesis::core {

class Session {
 public:
  explicit Session(const PipelineConfig& cfg = {});

  const ZenesisPipeline& pipeline() const noexcept { return pipeline_; }
  eval::Dashboard& dashboard() noexcept { return dashboard_; }
  const eval::Dashboard& dashboard() const noexcept { return dashboard_; }

  // --- Mode A: interactive single image / slice ---
  SliceResult mode_a_segment(const image::AnyImage& raw,
                             const std::string& prompt) const;
  /// Selected slice of a volume.
  SliceResult mode_a_segment_slice(const image::VolumeU16& volume,
                                   std::int64_t slice,
                                   const std::string& prompt) const;

  /// Multi-object Mode A: one prompt per class → label map (0=background,
  /// i=prompts[i-1]); conflicts resolved by text alignment.
  ZenesisPipeline::MultiObjectResult mode_a_segment_multi(
      const image::AnyImage& raw, const std::vector<std::string>& prompts) const;

  // --- Mode B: batch processing ---
  /// The one Mode-B entry point: the request names its source — an owned
  /// stack, an on-demand slice feed, or a TIFF path streamed with bounded
  /// memory (classic or BigTIFF, striped or tiled, uncompressed or
  /// PackBits; malformed files throw io::TiffError). Slices run in
  /// parallel (see PipelineConfig::volume_threads) with results identical
  /// to the serial path for every thread count and source kind.
  VolumeResult mode_b_segment_volume(const VolumeRequest& request) const;
  /// Batch over independent images (each gets its own SliceResult),
  /// scheduled like mode_b_segment_volume.
  std::vector<SliceResult> mode_b_segment_images(
      const std::vector<image::AnyImage>& images,
      const std::string& prompt) const;

  /// Refreshes the dashboard's runtime-stats section with what the
  /// session owns: the pipeline's feature- and mask-cache counters (hits,
  /// misses, evictions, hit rate, resident bytes) and — when tracing is on
  /// (ZENESIS_TRACE=1 or obs::set_enabled) — per-stage span timings from
  /// the global TraceCollector as `trace_<stage>_{count,mean_us,max_us}`,
  /// so Mode C shows where pipeline time goes next to the quality
  /// metrics. Every `mode_c_evaluate` calls it; call it directly to render
  /// the dashboard without evaluating anything. Other components publish
  /// their own counters into `dashboard()` explicitly, e.g.
  /// `service.publish_stats(session.dashboard())`.
  void publish_runtime_stats();

  // --- Mode C: evaluation ---
  /// Scores a prediction against ground truth and records it under
  /// (dataset, method, slice) in the dashboard. Also refreshes the
  /// runtime-stats section (see publish_runtime_stats).
  eval::Metrics mode_c_evaluate(const std::string& dataset,
                                const std::string& method, std::int64_t slice,
                                const image::Mask& prediction,
                                const image::Mask& ground_truth);

  // --- Interactive extras ---
  /// Rectify Segmentation: HITL episode over a prior automated result.
  hitl::RectifyResult rectify(const SliceResult& automated,
                              const image::Mask& reference,
                              hitl::SimulatedAnnotator& annotator,
                              const hitl::RandomBoxConfig& boxes = {},
                              std::uint64_t episode_seed = 1) const;

  /// Further Segment: hierarchical pass over a selected region.
  SliceResult further_segment(const SliceResult& parent, const image::Box& roi,
                              const std::string& prompt) const;

 private:
  ZenesisPipeline pipeline_;
  eval::Dashboard dashboard_;
};

}  // namespace zenesis::core
