#pragma once
// The Zenesis pipeline: data readiness → GroundingDINO surrogate →
// SAM surrogate → optional volumetric heuristic refinement, with
// hierarchical "Further Segment" recursion. This is the paper's Core
// Processing Pipeline; the Session in session.hpp wraps it in the three
// platform modes.

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/io/tiff_stream.hpp"
#include "zenesis/models/auto_mask.hpp"
#include "zenesis/models/grounding.hpp"
#include "zenesis/models/sam.hpp"
#include "zenesis/parallel/thread_pool.hpp"
#include "zenesis/volume3d/heuristic.hpp"

namespace zenesis::core {

struct PipelineConfig {
  image::ReadinessConfig readiness;
  models::GroundingConfig grounding;
  models::SamConfig sam;
  volume3d::HeuristicConfig heuristic;
  /// Use the k highest-confidence DINO boxes per slice; their SAM masks
  /// are unioned (multi-scale box prompting).
  int max_boxes = 6;
  /// Apply the sliding-window box correction in volume mode.
  bool enable_heuristic_refine = true;
  /// Mode-B scheduling width: slices are distributed across this many
  /// workers. 0 = the process-global pool (one worker per hardware
  /// thread); 1 = serial; N > 1 = a dedicated pool of N workers owned by
  /// the pipeline. Results are byte-identical for every setting.
  std::size_t volume_threads = 0;
  /// Backbone feature/encoder memoization (off switch + LRU sizing +
  /// optional persistent tier via `disk_path`).
  cache::FeatureCacheConfig feature_cache;
  /// Mask-result memoization in front of the decode stage: a repeated
  /// (image, prompt, options) request under an unchanged decode
  /// configuration reuses the finished SliceResult instead of re-running
  /// grounding + SAM. Keys fold in decode_config_fingerprint(), so any
  /// knob change is a clean miss.
  cache::ShardedCacheConfig mask_cache;

  /// Sanity-checks every knob and returns one human-readable message per
  /// violation (empty = valid). `ZenesisPipeline`'s constructor calls this
  /// and throws `std::invalid_argument` with the joined messages, so a
  /// misconfigured pipeline fails loudly at construction instead of
  /// silently misbehaving mid-run.
  std::vector<std::string> validate() const;
};

/// Content hash of every PipelineConfig knob that can change what the
/// decode stage produces for a given image: grounding + SAM configs
/// (backbones included), heuristic window, max_boxes, and the refine
/// switch. The mask-result cache folds this into every key, so ANY
/// decode-relevant knob change invalidates cached masks while
/// decode-irrelevant state (thread counts, cache sizing) does not. The
/// mask-cache keys also fold the process-wide kernel backend and
/// precision (tensor::set_backend, tensor::quant::set_precision) active
/// at each request, through cache::hash_active_kernels, so switching
/// either after construction is a clean miss.
std::uint64_t decode_config_fingerprint(const PipelineConfig& cfg);

/// Options for explicit-box segmentation (`segment_with_box`). Replaces
/// the old prompt-string overload: one struct names both knobs instead of
/// overload position deciding the ranking behavior.
struct BoxPromptOptions {
  /// Mask-candidate ranking inside the box.
  enum class Ranking {
    kAuto,           ///< text alignment when a prompt is set, else SAM
    kSamScore,       ///< SAM's own stability ranking, prompt ignored
    kTextAlignment,  ///< force text alignment (needs a prompt; falls back
                     ///< to SAM ranking when none is set)
  };
  /// Concept direction for mask selection. The path taken when the
  /// temporal heuristic replaces a failed detection: the box is
  /// corrected, the text intent is unchanged.
  std::optional<std::string> prompt;
  Ranking ranking = Ranking::kAuto;
};

/// Everything the platform produced for one image/slice (the UI state of
/// Mode A: preview, DINO boxes, mask overlay, extracted segments).
struct SliceResult {
  image::ImageF32 ai_ready;
  models::GroundingResult grounding;
  std::vector<models::MaskPrediction> box_masks;  ///< one per used box
  image::Mask mask;                               ///< final (union) mask
  image::Box primary_box;                         ///< top detection
  double confidence = 0.0;                        ///< top detection score
};

/// Resident size of a SliceResult (pixel buffers + masks + boxes) — what
/// the mask-result cache charges against its byte budget.
std::size_t slice_result_bytes(const SliceResult& res) noexcept;

/// On-demand slice feed for streaming Mode B: `slice(z)` produces slice z
/// as raw instrument data and must be safe to call concurrently (the
/// volume pipeline pulls slices from its worker threads). Lets
/// segment_volume run over a stack that is never materialized — e.g. a
/// multi-gigabyte BigTIFF streamed through io::TiffVolumeReader — with
/// memory bounded by the slices in flight.
struct VolumeSource {
  std::int64_t depth = 0;
  std::function<image::AnyImage(std::int64_t)> slice;
};

/// One Mode-B request shape for all three volume inputs — the
/// BoxPromptOptions pattern applied to segment_volume: instead of three
/// overloads whose parameter type decides ingestion, a VolumeRequest
/// names the source explicitly. Exactly one of `volume`, `source`,
/// `tiff_path` must be engaged (validate() reports every violation;
/// segment_volume throws std::invalid_argument listing them all).
///
/// The factories cover the common spellings; build the struct by hand to
/// combine knobs. `in_memory` takes the volume by value — move it in, or
/// borrow an lvalue you want to keep with `view` to avoid the copy.
struct VolumeRequest {
  std::string prompt;
  std::optional<image::VolumeU16> volume;  ///< materialized stack (owned)
  std::optional<VolumeSource> source;      ///< on-demand slice feed
  std::optional<std::string> tiff_path;    ///< streamed straight from disk
  /// TIFF read limits for the `tiff_path` source; ignored for the other
  /// sources.
  io::TiffOpenOptions tiff_open{};

  static VolumeRequest in_memory(image::VolumeU16 vol, std::string text);
  /// Borrows `vol` (no copy): the caller keeps ownership and must keep it
  /// alive through the segment_volume call. Implemented as a `streamed`
  /// feed over the stack's slices.
  static VolumeRequest view(const image::VolumeU16& vol, std::string text);
  static VolumeRequest streamed(VolumeSource src, std::string text);
  static VolumeRequest from_file(std::string path, std::string text,
                                 io::TiffOpenOptions open = {});

  /// One message per problem (source count, null slice fn, negative
  /// depth, empty path); empty = valid.
  std::vector<std::string> validate() const;
};

/// Volume (Mode B) output: per-slice results plus the box sequences
/// before/after heuristic refinement.
struct VolumeResult {
  std::vector<SliceResult> slices;
  std::vector<image::Box> raw_boxes;
  std::vector<image::Box> refined_boxes;
  std::vector<bool> replaced;
  int replaced_count = 0;

  std::vector<image::Mask> masks() const {
    std::vector<image::Mask> out;
    out.reserve(slices.size());
    for (const auto& s : slices) out.push_back(s.mask);
    return out;
  }
};

class ZenesisPipeline {
 public:
  explicit ZenesisPipeline(const PipelineConfig& cfg = {});

  const PipelineConfig& config() const noexcept { return cfg_; }
  const models::SamModel& sam() const noexcept { return sam_; }
  const models::GroundingDetector& detector() const noexcept { return dino_; }

  /// Feature-cache hit/miss/eviction counters (all zero when the cache is
  /// disabled — a disabled cache never records traffic).
  cache::FeatureCacheStats cache_stats() const { return cache_->stats(); }

  /// Mask-result cache counters (same disabled-means-silent contract).
  cache::LruCacheStats mask_cache_stats() const {
    return mask_cache_->stats();
  }

  /// Cached (or freshly computed, when caching is off) encoder output for
  /// `ready` under the SAM backbone. Interactive flows that prompt the
  /// same slice repeatedly (HITL rectification) share the pipeline's
  /// cache through this.
  std::shared_ptr<const models::SamEncoded> encode_cached(
      const image::ImageF32& ready) const {
    return cache_->encode(ready, sam_.backbone());
  }

  /// Readiness layer only (Fig. 1 transform).
  image::ImageF32 make_ready(const image::AnyImage& raw) const;

  /// Mode A on raw instrument data.
  SliceResult segment(const image::AnyImage& raw, const std::string& prompt) const;

  /// Mode A on an already AI-ready image.
  SliceResult segment_ready(const image::ImageF32& ready,
                            const std::string& prompt) const;

  /// Segment with an explicit user box instead of text grounding
  /// (interactive bounding-box guidance). Default options reproduce the
  /// old two-argument overload (pure SAM ranking); set `opts.prompt` to
  /// keep the text's concept direction for mask selection.
  SliceResult segment_with_box(const image::ImageF32& ready,
                               const image::Box& box,
                               const BoxPromptOptions& opts = {}) const;

  /// Mode B: batch volume with temporal refinement, over whichever source
  /// the request engages (materialized stack, on-demand slice feed, or a
  /// TIFF file streamed through io::TiffVolumeReader). Slices are
  /// segmented in parallel across `config().volume_threads` workers and
  /// gathered in slice order, so the result is byte-identical to the
  /// serial path regardless of thread count — and identical across the
  /// three source kinds for the same pixel data.
  VolumeResult segment_volume(const VolumeRequest& request) const;

  /// Mode B over independent images, scheduled like segment_volume.
  std::vector<SliceResult> segment_images(
      const std::vector<image::AnyImage>& images,
      const std::string& prompt) const;

  /// Hierarchical Further Segment: crops `roi` from the parent's AI-ready
  /// image, re-runs DINO+SAM inside it, and returns the child result in
  /// parent coordinates (mask pasted back at the ROI offset).
  SliceResult further_segment(const SliceResult& parent, const image::Box& roi,
                              const std::string& prompt) const;

  /// Multi-object segmentation (the paper's future-work item 2): one
  /// prompt per object class. Each prompt is grounded and segmented
  /// independently on one shared encoding of the slice (encoded once per
  /// call); pixels claimed by several classes go to the prompt
  /// with the highest pixel-level text alignment. Label 0 = background,
  /// label i = prompts[i-1].
  struct MultiObjectResult {
    image::Image<std::int32_t> labels;
    std::vector<SliceResult> per_prompt;
  };
  MultiObjectResult segment_multi(const image::AnyImage& raw,
                                  const std::vector<std::string>& prompts) const;

 private:
  /// Shared Mode-B body: every VolumeRequest source lands here as a
  /// validated slice feed.
  VolumeResult run_volume(const VolumeSource& source,
                          const std::string& prompt) const;

  /// Mask-cache hit for `key`; nullptr on a miss or when `key` is empty
  /// (mask memoization off).
  std::shared_ptr<const SliceResult> lookup_mask(
      const std::optional<cache::Key128>& key) const;
  /// Stores `res` under `key`; a no-op when `key` is empty.
  void store_mask(const std::optional<cache::Key128>& key,
                  const SliceResult& res) const;

  /// The text-grounded request body on encodings the caller already has:
  /// grounds `prompt` on `grounding_enc`, decodes on `sam_enc` (the same
  /// object when the backbones are shared) and memoizes under `key`.
  /// segment_ready and segment_multi share it, so a multi-prompt call
  /// encodes its slice once.
  SliceResult segment_encoded(const image::ImageF32& ready,
                              const std::string& prompt,
                              const models::SamEncoded& grounding_enc,
                              const models::SamEncoded& sam_enc,
                              const std::optional<cache::Key128>& key) const;

  /// Runs SAM over the top-k grounded boxes of `ready`, encoded as
  /// `enc` under the SAM backbone, and unions the masks.
  SliceResult assemble(image::ImageF32 ready,
                       models::GroundingResult grounding,
                       const models::SamEncoded& enc) const;

  /// Pool used for Mode-B slice scheduling (global or dedicated).
  parallel::ThreadPool& volume_pool() const;

  /// Runs `body(i)` for i in [0, n) — serial when volume_threads == 1,
  /// otherwise one slice at a time pulled dynamically from volume_pool().
  void for_each_slice(std::int64_t n,
                      const std::function<void(std::int64_t)>& body) const;

  PipelineConfig cfg_;
  models::GroundingDetector dino_;
  models::SamModel sam_;
  /// Internally synchronized; safe to use from const methods and from
  /// concurrent slice tasks.
  std::unique_ptr<cache::FeatureCache> cache_;
  /// Finished SliceResults keyed by (image hash, request hash); the
  /// request hash folds in decode_fingerprint_ and the kernels active at
  /// the request. Internally synchronized.
  std::unique_ptr<cache::ShardedLruCache<SliceResult>> mask_cache_;
  std::uint64_t decode_fingerprint_ = 0;
  /// The grounding and SAM backbones share a feature-cache key, so one
  /// encoding serves both stages of a request.
  bool shared_backbone_ = false;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< only when volume_threads > 1
};

// --- Baselines (the paper's comparison columns) ---

/// Otsu thresholding on the AI-ready image (Table 1). On these datasets
/// the catalyst phase is the brighter one, so the mask is `> threshold`.
image::Mask baseline_otsu(const image::ImageF32& ready);

/// SAM-only: automatic mask generation, max-confidence pick (Table 2).
image::Mask baseline_sam_only(const models::SamModel& sam,
                              const image::ImageF32& ready,
                              const models::AutoMaskConfig& cfg = {});

}  // namespace zenesis::core
