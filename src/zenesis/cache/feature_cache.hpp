#pragma once
// Backbone feature cache — the surrogate of SAM's "embed once, prompt
// many" usage pattern, generalized across the whole model stack and, with
// the disk tier, across process restarts.
//
// Grounding-DINO + SAM pipelines are dominated by redundant image-encoder
// work: the Zenesis pipeline encodes every slice once for the grounding
// stage and once for the mask stage, the temporal heuristic re-segments
// corrected slices, hierarchical "Further Segment" re-runs the encoders on
// sub-ROIs, and multi-prompt Mode A encodes the same image once per
// prompt. All of those recomputations are memoized here.
//
// Tiers:
//   L1 — ShardedLruCache<SamEncoded>: lock-striped, byte-budgeted,
//        approximate-LRU (see sharded_lru.hpp).
//   L2 — optional DiskStore: CRC-checked records keyed by the same
//        content hash, so a fresh process pointed at the same directory
//        ("warm restart") deserializes embeddings instead of running
//        sam.encode at all. An L2 hit is promoted into L1.
//
// Keying: entries are keyed by (content hash of the AI-ready image,
// content hash of the backbone configuration). Because backbone weights
// are derived procedurally from their config, two backbones with equal
// configs produce bit-identical encodings — so the default pipeline, whose
// DINO and SAM backbones share a config, shares one entry per slice
// between both stages. Feature maps use a fixed smoothing sigma, which is
// folded into the image hash domain.
//
// Stats semantics: `hits` counts L1 hits, `disk_hits` counts L2 hits,
// `misses` counts actual encoder computations — so hit_rate() is the
// fraction of lookups that skipped the encoder, from either tier.
//
// Determinism: a hit returns the exact object a miss would have computed
// (the serializer is bit-exact), so results are byte-identical with the
// cache on, off, sharded, or tiered. All methods are thread-safe;
// concurrent misses of the same key may compute the (identical) value
// twice, and the last insert wins.

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "zenesis/cache/disk_store.hpp"
#include "zenesis/cache/hash.hpp"
#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/models/sam.hpp"

namespace zenesis::cache {

struct FeatureCacheConfig {
  /// Off switch: when false, every lookup computes a fresh encoding and
  /// no tier or counter is ever touched.
  bool enabled = true;
  /// Maximum resident L1 entries (split across shards); 0 disables the
  /// cache entirely, matching the old single-tier contract.
  std::size_t capacity = 64;
  /// L1 lock stripes (see ShardedCacheConfig::shards).
  std::size_t shards = 8;
  /// L1 byte budget; resident bytes never exceed it.
  std::size_t byte_budget = default_byte_budget();
  /// Directory for the persistent tier; empty = in-memory only. An
  /// unusable path disables the disk tier with a counted error rather
  /// than failing the pipeline.
  std::string disk_path;
};

struct FeatureCacheStats {
  std::uint64_t hits = 0;       ///< L1 hits
  std::uint64_t disk_hits = 0;  ///< L2 hits (deserialized, promoted to L1)
  std::uint64_t misses = 0;     ///< actual encoder computations
  std::uint64_t evictions = 0;
  std::uint64_t resident_bytes = 0;
  std::uint64_t evicted_bytes = 0;
  std::uint64_t oversized_rejects = 0;
  std::uint64_t disk_writes = 0;
  std::uint64_t disk_errors = 0;  ///< write failures + corrupt/stale drops

  /// Fraction of lookups served without running the encoder.
  double hit_rate() const noexcept {
    const std::uint64_t total = hits + disk_hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits + disk_hits) /
                            static_cast<double>(total);
  }
};

/// Content hash (FNV-1a) of an image's pixels and geometry.
std::uint64_t hash_image(const image::ImageF32& img);

/// Content hash of every field that determines a backbone's weights,
/// plus the active kernel backend and numeric precision
/// (hash_active_kernels) — different kernels produce different floats,
/// so their cached/persisted embeddings must live under different keys.
std::uint64_t hash_backbone_config(const models::BackboneConfig& cfg);

class FeatureCache {
 public:
  explicit FeatureCache(const FeatureCacheConfig& cfg = {});

  /// Feature maps + encoder tokens for `img` under `backbone`'s
  /// configuration; computed and inserted on miss, shared on hit.
  std::shared_ptr<const models::SamEncoded> encode(
      const image::ImageF32& img, const models::VisionBackbone& backbone);

  FeatureCacheStats stats() const;
  /// Drops every L1 entry (disk records survive); counters survive too,
  /// matching the old FeatureCache::clear contract.
  void clear();
  const FeatureCacheConfig& config() const noexcept { return cfg_; }

  /// The persistent tier, when configured and usable (tools, tests).
  DiskStore* disk() noexcept { return disk_ ? disk_.get() : nullptr; }

 private:
  FeatureCacheConfig cfg_;
  ShardedLruCache<models::SamEncoded> l1_;
  std::unique_ptr<DiskStore> disk_;
  std::atomic<std::uint64_t> computes_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> disk_open_errors_{0};
};

}  // namespace zenesis::cache
