// Determinism of the parallel Mode-B volume pipeline: any thread count,
// with the feature cache on or off, must reproduce the serial baseline
// byte-for-byte (masks, boxes, confidences, replacement bookkeeping).
// This is the contract that makes `volume_threads` a pure performance
// knob. Run under TSAN via tools/ci.sh to race-check the scheduling.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "zenesis/cache/feature_cache.hpp"
#include "zenesis/core/pipeline.hpp"
#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"

namespace {

using namespace zenesis;

fibsem::SyntheticVolume small_volume() {
  fibsem::SynthConfig cfg;
  cfg.type = fibsem::SampleType::kCrystalline;
  cfg.width = 96;
  cfg.height = 96;
  cfg.depth = 6;
  cfg.seed = 417;
  cfg.needle_count = 12;
  return fibsem::generate_volume(cfg);
}

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

core::PipelineConfig config_with(std::size_t threads, bool cache) {
  core::PipelineConfig cfg;
  cfg.volume_threads = threads;
  cfg.feature_cache.enabled = cache;
  return cfg;
}

void expect_masks_equal(const image::Mask& a, const image::Mask& b,
                        std::size_t slice) {
  ASSERT_EQ(a.width(), b.width()) << "slice " << slice;
  ASSERT_EQ(a.height(), b.height()) << "slice " << slice;
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "slice " << slice << " pixel " << i;
  }
}

void expect_boxes_equal(const image::Box& a, const image::Box& b,
                        std::size_t slice) {
  EXPECT_EQ(a.x, b.x) << "slice " << slice;
  EXPECT_EQ(a.y, b.y) << "slice " << slice;
  EXPECT_EQ(a.w, b.w) << "slice " << slice;
  EXPECT_EQ(a.h, b.h) << "slice " << slice;
}

void expect_volume_results_equal(const core::VolumeResult& base,
                                 const core::VolumeResult& got) {
  ASSERT_EQ(base.slices.size(), got.slices.size());
  EXPECT_EQ(base.replaced_count, got.replaced_count);
  ASSERT_EQ(base.replaced, got.replaced);
  for (std::size_t i = 0; i < base.slices.size(); ++i) {
    expect_masks_equal(base.slices[i].mask, got.slices[i].mask, i);
    expect_boxes_equal(base.slices[i].primary_box, got.slices[i].primary_box, i);
    expect_boxes_equal(base.raw_boxes[i], got.raw_boxes[i], i);
    expect_boxes_equal(base.refined_boxes[i], got.refined_boxes[i], i);
    // Confidences must match exactly, not approximately: the parallel
    // path runs the identical arithmetic per slice.
    EXPECT_EQ(base.slices[i].confidence, got.slices[i].confidence)
        << "slice " << i;
    ASSERT_EQ(base.slices[i].box_masks.size(), got.slices[i].box_masks.size())
        << "slice " << i;
    for (std::size_t m = 0; m < base.slices[i].box_masks.size(); ++m) {
      EXPECT_EQ(base.slices[i].box_masks[m].confidence,
                got.slices[i].box_masks[m].confidence)
          << "slice " << i << " box mask " << m;
      expect_masks_equal(base.slices[i].box_masks[m].mask,
                         got.slices[i].box_masks[m].mask, i);
    }
  }
}

class VolumeParallelSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(VolumeParallelSweep, MatchesSerialBaseline) {
  const auto [threads, cache] = GetParam();
  const fibsem::SyntheticVolume vol = small_volume();

  const core::ZenesisPipeline serial(config_with(1, false));
  const core::VolumeResult base = serial.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));

  const core::ZenesisPipeline pipe(config_with(threads, cache));
  const core::VolumeResult got = pipe.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));

  expect_volume_results_equal(base, got);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndCache, VolumeParallelSweep,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}),
                       ::testing::Bool()));

TEST(VolumeParallel, GlobalPoolDefaultMatchesSerialBaseline) {
  // volume_threads == 0 (the default) schedules on the process-global
  // pool — the configuration every example and bench runs with.
  const fibsem::SyntheticVolume vol = small_volume();
  const core::ZenesisPipeline serial(config_with(1, false));
  const core::ZenesisPipeline pooled(config_with(0, true));
  expect_volume_results_equal(serial.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt)),
                              pooled.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt)));
}

TEST(VolumeParallel, RepeatedRunHitsCache) {
  const fibsem::SyntheticVolume vol = small_volume();
  const core::ZenesisPipeline pipe(config_with(4, true));
  const core::VolumeResult first = pipe.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));
  const cache::FeatureCacheStats after_first = pipe.cache_stats();
  // DINO and SAM share a backbone config by default, so each slice costs
  // exactly one encoder run on a cold cache and decode reuses it without
  // a second lookup. The only first-pass hits are the rectified slices,
  // re-segmented from their replacement box.
  EXPECT_EQ(after_first.misses, static_cast<std::uint64_t>(vol.depth()));
  std::uint64_t rectified = 0;
  for (std::size_t i = 0; i < first.replaced.size(); ++i) {
    if (first.replaced[i] && !first.refined_boxes[i].empty()) ++rectified;
  }
  EXPECT_EQ(after_first.hits, rectified);

  const core::VolumeResult second = pipe.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));
  const cache::FeatureCacheStats after_second = pipe.cache_stats();
  EXPECT_EQ(after_second.misses, after_first.misses)
      << "second pass over the same volume must be all hits";
  expect_volume_results_equal(first, second);
}

TEST(VolumeParallel, CacheOffRecordsNoTraffic) {
  const fibsem::SyntheticVolume vol = small_volume();
  const core::ZenesisPipeline pipe(config_with(2, false));
  (void)pipe.segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));
  const cache::FeatureCacheStats s = pipe.cache_stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(VolumeParallel, FurtherSegmentReusesCacheAcrossReruns) {
  const fibsem::SyntheticVolume vol = small_volume();
  const core::ZenesisPipeline pipe(config_with(1, true));
  const core::SliceResult parent =
      pipe.segment(image::AnyImage(vol.volume.slice(0)), kPrompt);
  const image::Box roi{8, 8, 64, 64};
  const core::SliceResult first = pipe.further_segment(parent, roi, kPrompt);
  const cache::FeatureCacheStats cold = pipe.cache_stats();
  const auto mask_cold = pipe.mask_cache_stats();
  const core::SliceResult again = pipe.further_segment(parent, roi, kPrompt);
  const cache::FeatureCacheStats warm = pipe.cache_stats();
  const auto mask_warm = pipe.mask_cache_stats();
  EXPECT_EQ(warm.misses, cold.misses)
      << "re-running Further Segment on the same ROI must not re-encode";
  // The rerun is absorbed by the mask-result cache (one hit for the
  // cropped ROI request), so it never even reaches the feature cache.
  EXPECT_GT(mask_warm.hits, mask_cold.hits);
  expect_masks_equal(first.mask, again.mask, 0);
}

TEST(VolumeParallel, SessionSurfacesCacheCountersInDashboard) {
  const fibsem::SyntheticVolume vol = small_volume();
  core::PipelineConfig cfg = config_with(2, true);
  core::Session session(cfg);
  (void)session.mode_b_segment_volume(core::VolumeRequest::view(vol.volume, kPrompt));
  session.publish_runtime_stats();
  const auto& stats = session.dashboard().stats();
  ASSERT_TRUE(stats.count("feature_cache_hits"));
  ASSERT_TRUE(stats.count("feature_cache_hit_rate"));
  ASSERT_TRUE(stats.count("feature_cache_misses"));
  const cache::FeatureCacheStats live = session.pipeline().cache_stats();
  EXPECT_EQ(stats.at("feature_cache_hits"), static_cast<double>(live.hits));
  EXPECT_EQ(stats.at("feature_cache_misses"),
            static_cast<double>(vol.volume.depth()));
  const std::string rendered = session.dashboard().render();
  EXPECT_NE(rendered.find("feature_cache_hit_rate"), std::string::npos);
}

TEST(FeatureCache, LruEvictsAndKeysByImageAndConfig) {
  cache::FeatureCacheConfig cfg;
  cfg.capacity = 2;
  // One shard reproduces the exact global-LRU ordering this test pins
  // down; with several shards, recency is only compared within a shard.
  cfg.shards = 1;
  cache::FeatureCache cache(cfg);
  const models::VisionBackbone backbone;

  image::ImageF32 a(32, 32, 1), b(32, 32, 1), c(32, 32, 1);
  a.fill(0.25f);
  b.fill(0.5f);
  c.fill(0.75f);

  (void)cache.encode(a, backbone);
  (void)cache.encode(b, backbone);
  (void)cache.encode(a, backbone);  // refresh a; b becomes LRU
  (void)cache.encode(c, backbone);  // evicts b
  (void)cache.encode(a, backbone);  // still resident
  cache::FeatureCacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.evictions, 1u);
  (void)cache.encode(b, backbone);  // must re-encode after eviction
  s = cache.stats();
  EXPECT_EQ(s.misses, 4u);

  // A different backbone configuration is a different key for the same
  // image: procedural weights differ, so the encodings must not be shared.
  models::BackboneConfig other;
  other.seed = 999;
  const models::VisionBackbone other_backbone(other);
  cache::FeatureCache fresh;
  (void)fresh.encode(a, backbone);
  (void)fresh.encode(a, other_backbone);
  EXPECT_EQ(fresh.stats().misses, 2u);
  EXPECT_EQ(fresh.stats().hits, 0u);
}

TEST(FeatureCache, HitReturnsIdenticalEncoding) {
  cache::FeatureCache cache;
  const models::VisionBackbone backbone;
  image::ImageF32 img(40, 24, 1);
  for (std::int64_t y = 0; y < img.height(); ++y) {
    for (std::int64_t x = 0; x < img.width(); ++x) {
      img.at(x, y) = static_cast<float>((x * 7 + y * 3) % 11) / 11.0f;
    }
  }
  const auto first = cache.encode(img, backbone);
  const auto second = cache.encode(img, backbone);
  EXPECT_EQ(first.get(), second.get()) << "a hit shares the stored object";
  const models::SamEncoded fresh = models::SamModel().encode(img);
  const auto cached_tokens = first->enc.tokens.flat();
  const auto fresh_tokens = fresh.enc.tokens.flat();
  ASSERT_EQ(cached_tokens.size(), fresh_tokens.size());
  for (std::size_t i = 0; i < cached_tokens.size(); ++i) {
    ASSERT_EQ(cached_tokens[i], fresh_tokens[i]);
  }
}

}  // namespace
