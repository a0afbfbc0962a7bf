#include "zenesis/cache/feature_cache.hpp"

#include "zenesis/cache/serialize.hpp"
#include "zenesis/obs/trace.hpp"

namespace zenesis::cache {
namespace {

ShardedCacheConfig l1_config(const FeatureCacheConfig& cfg) {
  ShardedCacheConfig l1;
  l1.enabled = cfg.enabled && cfg.capacity != 0;
  l1.shards = cfg.shards == 0 ? 1 : cfg.shards;
  l1.capacity = cfg.capacity;
  l1.byte_budget = cfg.byte_budget;
  return l1;
}

}  // namespace

std::uint64_t hash_image(const image::ImageF32& img) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, img.width());
  h = fnv1a_value(h, img.height());
  h = fnv1a_value(h, img.channels());
  const auto px = img.pixels();
  h = fnv1a_bytes(h, px.data(), px.size() * sizeof(float));
  return h;
}

std::uint64_t hash_backbone_config(const models::BackboneConfig& cfg) {
  std::uint64_t h = kFnvOffset;
  h = fnv1a_value(h, cfg.patch_size);
  h = fnv1a_value(h, cfg.dim);
  h = fnv1a_value(h, cfg.blocks);
  h = fnv1a_value(h, cfg.heads);
  h = fnv1a_value(h, cfg.branch_scale);
  h = fnv1a_value(h, cfg.seed);
  // The active kernels change the floats encode() produces, so they are
  // part of the key: an fp32/avx2 embedding persisted by the disk store
  // must be a clean miss under int8 or another backend, never a silently
  // served cross-kernel hit.
  return hash_active_kernels(h);
}

FeatureCache::FeatureCache(const FeatureCacheConfig& cfg)
    : cfg_(cfg), l1_(l1_config(cfg)) {
  if (cfg_.enabled && cfg_.capacity != 0 && !cfg_.disk_path.empty()) {
    try {
      disk_ = std::make_unique<DiskStore>(DiskStoreConfig{cfg_.disk_path});
    } catch (const std::exception&) {
      // An unusable directory downgrades the cache to memory-only; the
      // pipeline must keep working on a read-only or full filesystem.
      disk_open_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::shared_ptr<const models::SamEncoded> FeatureCache::encode(
    const image::ImageF32& img, const models::VisionBackbone& backbone) {
  const bool active = cfg_.enabled && cfg_.capacity != 0;
  const auto compute = [&] {
    // The expensive path: feature maps + backbone encode. Span arg 0/1
    // distinguishes a cache-bypassing encode (cache off) from a miss.
    obs::Span span("sam.encode", active ? 1u : 0u);
    auto fresh = std::make_shared<models::SamEncoded>();
    fresh->maps = models::compute_features(img);
    fresh->enc = backbone.encode(fresh->maps);
    return std::shared_ptr<const models::SamEncoded>(std::move(fresh));
  };
  if (!active) return compute();

  const Key128 key{hash_image(img), hash_backbone_config(backbone.config())};
  if (auto hit = l1_.get(key)) return hit;

  if (disk_ != nullptr) {
    std::optional<std::vector<std::byte>> payload;
    {
      obs::Span span("cache.disk_read", 0);
      payload = disk_->get(key);
    }
    if (payload.has_value()) {
      if (auto decoded = deserialize_encoded(*payload)) {
        auto value = std::make_shared<const models::SamEncoded>(
            std::move(*decoded));
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
        l1_.put(key, value, encoded_bytes(*value));
        return value;
      }
      // CRC passed but the payload failed to parse (e.g. record written
      // by a buggy build): treat as damage and recompute.
    }
  }

  std::shared_ptr<const models::SamEncoded> value = compute();
  computes_.fetch_add(1, std::memory_order_relaxed);
  l1_.put(key, value, encoded_bytes(*value));
  if (disk_ != nullptr) {
    obs::Span span("cache.disk_write", 0);
    disk_->put(key, serialize_encoded(*value));
  }
  return value;
}

FeatureCacheStats FeatureCache::stats() const {
  const LruCacheStats l1 = l1_.stats();
  FeatureCacheStats s;
  s.hits = l1.hits;
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = computes_.load(std::memory_order_relaxed);
  s.evictions = l1.evictions;
  s.resident_bytes = l1.resident_bytes;
  s.evicted_bytes = l1.evicted_bytes;
  s.oversized_rejects = l1.oversized_rejects;
  s.disk_errors = disk_open_errors_.load(std::memory_order_relaxed);
  if (disk_ != nullptr) {
    const DiskStoreStats d = disk_->stats();
    s.disk_writes = d.writes;
    s.disk_errors += d.write_errors + d.corrupt_drops + d.version_mismatches;
  }
  return s;
}

void FeatureCache::clear() { l1_.clear(); }

}  // namespace zenesis::cache
