#pragma once
// Surrogate Segment Anything Model.
//
// Mirrors SAM's decomposition: an image encoder (shared VisionBackbone),
// a prompt encoder (boxes and points → embedding-space tokens), and a mask
// decoder that runs two-way attention between prompt tokens and image
// tokens to produce coarse mask logits, followed by a pixel-level
// refinement stage:
//   * box prompts — SAM's "the object is inside the box, the box rim
//     samples background" prior, expressed as multimask output: one
//     candidate per object polarity (brighter / darker than local
//     context). Each candidate thresholds the contrast between intensity
//     and a windowed *median* context — the surrogate of deep features'
//     illumination invariance, robust to shading, holder-edge halos and
//     global multi-modality — at an Otsu cut over the box's contrast
//     residue. Candidates carry a rim-overlap penalty (an object should
//     not coincide with the prompt rim); the Zenesis pipeline selects
//     among candidates by text alignment, the plain model by internal
//     confidence.
//   * point prompts — tolerance-based region growing from the seed in the
//     smoothed-intensity field (flood within the locally homogeneous
//     phase), the behaviour that makes *unguided* SAM latch onto large
//     homogeneous regions (the paper's documented failure mode).
// Every mask carries a confidence = stability × homogeneity × size prior,
// reproducing the max-confidence selection rule whose failure on
// crystalline FIB-SEM motivates Zenesis.

#include <cstdint>
#include <string>

#include "zenesis/image/geometry.hpp"
#include "zenesis/image/image.hpp"
#include "zenesis/models/backbone.hpp"

namespace zenesis::models {

struct SamConfig {
  BackboneConfig backbone;
  /// Tolerance multiplier (in noise sigmas) for point-prompt growth.
  float grow_tolerance = 2.2f;
  /// Hard cap on the point-growth step tolerance (intensity units).
  float grow_tolerance_cap = 0.07f;
  /// Floor on the local-contrast cut for box prompts: keeps the decoder
  /// from segmenting sensor noise when the box holds no real object.
  float min_contrast_cut = 0.025f;
  /// Relative tolerance perturbation used for the stability score.
  float stability_delta = 0.35f;
  /// Morphological cleanup radius.
  int morph_radius = 1;
  /// Components below this pixel area are removed from box masks.
  std::int64_t min_component_area = 16;
  /// Weight of the coarse attention-logit veto (0 disables).
  float coarse_veto_weight = 1.0f;
};

/// Encoder output kept alive across multiple prompt predictions (SAM's
/// embed-once / prompt-many usage pattern).
struct SamEncoded {
  FeatureMaps maps;
  EncodedImage enc;
};

struct MaskPrediction {
  image::Mask mask;
  double confidence = 0.0;   ///< stability × homogeneity × size × rim prior
  double stability = 0.0;    ///< IoU of masks at perturbed tolerance
  double homogeneity = 0.0;  ///< 1 / (1 + interior stddev / noise floor)
  double area_fraction = 0.0;
  double rim_overlap = 0.0;  ///< fraction of the prompt-box rim covered
  int polarity = 0;          ///< +1 brighter-than-context, -1 darker (box prompts)
};

/// Boundary adherence of a mask: mean edge strength (the kEdge feature
/// channel) along its outline (cv::boundary_gradient), summed in
/// row-major order; 0 for an empty outline. A real object's outline
/// follows image edges, a spurious or blurred one floats through flat
/// regions or the halo.
double boundary_adherence(const SamEncoded& enc, const image::Mask& mask);

class SamModel {
 public:
  explicit SamModel(const SamConfig& cfg = {});

  /// Runs the image encoder once; prompts reuse the result.
  SamEncoded encode(const image::ImageF32& img) const;

  /// Box prompt → candidate masks, one per object polarity (brighter /
  /// darker than the box's local context), mirroring SAM's multimask
  /// output. Callers with grounding context (the Zenesis pipeline) select
  /// by text relevance; `predict_box` selects by internal confidence.
  std::vector<MaskPrediction> predict_box_candidates(const SamEncoded& enc,
                                                     const image::Box& box) const;

  /// Box prompt → single mask (max internal confidence among candidates).
  MaskPrediction predict_box(const SamEncoded& enc, const image::Box& box) const;

  /// Point prompt → mask (SAM-only automatic path).
  MaskPrediction predict_point(const SamEncoded& enc, image::Point p) const;

  const SamConfig& config() const noexcept { return cfg_; }
  const VisionBackbone& backbone() const noexcept { return backbone_; }

 private:
  /// Two-way attention decoder: prompt tokens attend to image tokens and
  /// produce a per-patch coarse logit map (similarity to the attended
  /// object query), upsampled to pixel resolution.
  image::ImageF32 decode_coarse(const SamEncoded& enc,
                                const image::Box& box) const;

  MaskPrediction score_mask(const SamEncoded& enc, image::Mask mask,
                            image::Mask low, image::Mask high) const;

  SamConfig cfg_;
  VisionBackbone backbone_;
  tensor::Tensor object_token_;  ///< learned query seed [1, dim]
};

}  // namespace zenesis::models
