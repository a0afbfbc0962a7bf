// The in-memory cache tier: sharded LRU semantics, byte-budget
// enforcement (a budget of B must never admit more than B resident
// bytes — the regression that motivated size-aware accounting), per-shard
// eviction ordering against an exact reference model, decode-config
// fingerprinting for the mask-result cache, and ZENESIS_CACHE_BUDGET
// sizing.
#include <gtest/gtest.h>

#include <cstdlib>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "zenesis/cache/hash.hpp"
#include "zenesis/cache/sharded_lru.hpp"
#include "zenesis/core/pipeline.hpp"

namespace {

using namespace zenesis;
using cache::Key128;

using IntCache = cache::ShardedLruCache<int>;

std::shared_ptr<const int> val(int v) { return std::make_shared<const int>(v); }

Key128 key(std::uint64_t n) {
  return Key128{n, n * 0x9e3779b97f4a7c15ull + 1};
}

/// A key that lands in `shard` of `cache` (found by probing the salt).
template <typename C>
Key128 key_in_shard(const C& cache, std::size_t shard, std::uint64_t salt) {
  for (std::uint64_t probe = salt;; ++probe) {
    const Key128 k = key(probe);
    if (cache.shard_of(k) == shard) return k;
  }
}

// --- Byte budget: the satellite (a) regression ---

TEST(ShardedLru, BudgetNeverAdmitsMoreThanBudgetBytes) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 4;
  cfg.capacity = 0;  // byte budget is the only bound
  cfg.byte_budget = 10'000;
  IntCache cache(cfg);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t bytes = 1 + rng() % 4000;
    (void)cache.put(key(rng() % 512), val(i), bytes);
    const auto s = cache.stats();
    ASSERT_LE(s.resident_bytes, cfg.byte_budget)
        << "budget exceeded after put " << i;
  }
  const auto s = cache.stats();
  EXPECT_GT(s.inserts, 0u);
  EXPECT_GT(s.evictions, 0u) << "workload was sized to force evictions";
}

TEST(ShardedLru, ShardBudgetsSumExactlyToGlobalBudget) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 8;
  cfg.byte_budget = 1003;  // deliberately not divisible by 8
  IntCache cache(cfg);
  std::size_t total = 0;
  for (std::size_t i = 0; i < cache.shard_count(); ++i) {
    total += cache.shard_byte_budget(i);
  }
  EXPECT_EQ(total, cfg.byte_budget);
}

TEST(ShardedLru, OversizedEntryIsRejectedNotAdmitted) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 0;
  cfg.byte_budget = 100;
  IntCache cache(cfg);
  const Key128 k = key(1);
  EXPECT_FALSE(cache.put(k, val(1), 101));
  EXPECT_EQ(cache.peek(k), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.oversized_rejects, 1u);
  EXPECT_EQ(s.resident_bytes, 0u);
  // Exactly at the budget is admissible.
  EXPECT_TRUE(cache.put(k, val(1), 100));
  EXPECT_EQ(cache.stats().resident_bytes, 100u);
}

TEST(ShardedLru, ReplacingAnEntryAdjustsByteAccounting) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 0;
  cfg.byte_budget = 1000;
  IntCache cache(cfg);
  ASSERT_TRUE(cache.put(key(1), val(1), 600));
  // Same key, new size: the old 600 must be released, not leaked, or the
  // budget check would spuriously evict.
  ASSERT_TRUE(cache.put(key(1), val(2), 700));
  const auto s = cache.stats();
  EXPECT_EQ(s.resident_bytes, 700u);
  EXPECT_EQ(s.resident_entries, 1u);
  EXPECT_EQ(s.evictions, 0u);
  const auto hit = cache.get(key(1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, 2);
}

// --- Eviction ordering ---

TEST(ShardedLru, SingleShardEvictsExactLeastRecentlyUsed) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 3;
  IntCache cache(cfg);
  ASSERT_TRUE(cache.put(key(1), val(1), 1));
  ASSERT_TRUE(cache.put(key(2), val(2), 1));
  ASSERT_TRUE(cache.put(key(3), val(3), 1));
  ASSERT_NE(cache.get(key(1)), nullptr);  // 2 is now least recent
  ASSERT_TRUE(cache.put(key(4), val(4), 1));
  EXPECT_EQ(cache.peek(key(2)), nullptr) << "LRU entry must be the victim";
  EXPECT_NE(cache.peek(key(1)), nullptr);
  EXPECT_NE(cache.peek(key(3)), nullptr);
  EXPECT_NE(cache.peek(key(4)), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ShardedLru, EvictionIsConfinedToTheOverflowingShard) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 4;
  cfg.capacity = 8;  // 2 per shard
  IntCache cache(cfg);
  // Pin one resident entry in every other shard, then overflow shard 0.
  std::vector<Key128> pinned;
  for (std::size_t s = 1; s < cache.shard_count(); ++s) {
    const Key128 k = key_in_shard(cache, s, 1000 * s);
    ASSERT_TRUE(cache.put(k, val(static_cast<int>(s)), 1));
    pinned.push_back(k);
  }
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        cache.put(key_in_shard(cache, 0, 5000 + 17 * static_cast<unsigned>(i)),
                  val(i), 1));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  for (const Key128& k : pinned) {
    EXPECT_NE(cache.peek(k), nullptr)
        << "eviction in shard 0 must never touch other shards";
  }
}

/// Exact reference model of one shard: ordered map key→(value, bytes),
/// recency as an access list, evicting least-recent until budget+cap fit.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t capacity, std::size_t budget)
      : capacity_(capacity), budget_(budget) {}

  const int* get(const Key128& k) {
    const auto it = map_.find(mix(k));
    if (it == map_.end()) return nullptr;
    touch(mix(k));
    return &it->second.value;
  }

  bool put(const Key128& k, int value, std::size_t bytes) {
    if (bytes > budget_) return false;
    const std::uint64_t id = mix(k);
    const auto it = map_.find(id);
    if (it != map_.end()) {
      bytes_ -= it->second.bytes;
      it->second = {value, bytes};
      bytes_ += bytes;
      touch(id);
    } else {
      map_.emplace(id, Entry{value, bytes});
      bytes_ += bytes;
      order_.push_back(id);
    }
    while (bytes_ > budget_ ||
           (capacity_ != 0 && map_.size() > capacity_)) {
      const std::uint64_t victim = order_.front();
      order_.pop_front();
      bytes_ -= map_.at(victim).bytes;
      map_.erase(victim);
      ++evictions_;
    }
    return true;
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t size() const { return map_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    int value;
    std::size_t bytes;
  };
  static std::uint64_t mix(const Key128& k) { return cache::mix_key(k); }
  void touch(std::uint64_t id) {
    order_.remove(id);
    order_.push_back(id);
  }

  std::size_t capacity_;
  std::size_t budget_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> order_;  ///< front = least recently used
};

TEST(ShardedLru, SingleShardMatchesExactReferenceModelUnderRandomOps) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 16;
  cfg.byte_budget = 400;
  IntCache cache(cfg);
  ReferenceLru model(cfg.capacity, cfg.byte_budget);

  std::mt19937_64 rng(20250808);
  for (int step = 0; step < 5000; ++step) {
    const Key128 k = key(rng() % 48);
    if (rng() % 3 == 0) {
      const int* expected = model.get(k);
      const auto got = cache.get(k);
      ASSERT_EQ(got != nullptr, expected != nullptr) << "step " << step;
      if (expected != nullptr) {
        ASSERT_EQ(*got, *expected) << "step " << step;
      }
    } else {
      const int value = static_cast<int>(rng() % 1000);
      const std::size_t bytes = 1 + rng() % 80;
      ASSERT_EQ(cache.put(k, val(value), bytes), model.put(k, value, bytes))
          << "step " << step;
    }
    const auto s = cache.stats();
    ASSERT_EQ(s.resident_bytes, model.bytes()) << "step " << step;
    ASSERT_EQ(s.resident_entries, model.size()) << "step " << step;
    ASSERT_EQ(s.evictions, model.evictions()) << "step " << step;
  }
}

// --- Shard selection and basic semantics ---

TEST(ShardedLru, ShardCountClampsAndRoundsToPowerOfTwo) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 6;
  EXPECT_EQ(IntCache(cfg).shard_count(), 8u);
  cfg.shards = 0;
  EXPECT_EQ(IntCache(cfg).shard_count(), 1u);
  cfg.shards = 9000;
  EXPECT_EQ(IntCache(cfg).shard_count(), 4096u);
}

TEST(ShardedLru, ShardSelectionCoversAllShards) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 16;
  IntCache cache(cfg);
  std::vector<int> seen(cache.shard_count(), 0);
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const std::size_t s = cache.shard_of(key(i));
    ASSERT_LT(s, cache.shard_count());
    ++seen[s];
  }
  for (std::size_t s = 0; s < seen.size(); ++s) {
    EXPECT_GT(seen[s], 0) << "shard " << s << " never selected — mix is biased";
  }
}

TEST(ShardedLru, DisabledCacheAdmitsNothingAndCountsNothing) {
  cache::ShardedCacheConfig cfg;
  cfg.enabled = false;
  IntCache cache(cfg);
  EXPECT_FALSE(cache.put(key(1), val(1), 1));
  EXPECT_EQ(cache.get(key(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits + s.misses + s.inserts + s.evictions, 0u);
}

TEST(ShardedLru, ClearDropsEntriesButKeepsCounters) {
  IntCache cache({});
  ASSERT_TRUE(cache.put(key(1), val(1), 1));
  ASSERT_NE(cache.get(key(1)), nullptr);
  cache.clear();
  EXPECT_EQ(cache.peek(key(1)), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.inserts, 1u);
  EXPECT_EQ(s.resident_bytes, 0u);
  EXPECT_EQ(s.resident_entries, 0u);
}

TEST(ShardedLru, EvictedValueSurvivesWhileReaderHoldsIt) {
  cache::ShardedCacheConfig cfg;
  cfg.shards = 1;
  cfg.capacity = 1;
  IntCache cache(cfg);
  ASSERT_TRUE(cache.put(key(1), val(41), 1));
  const auto held = cache.get(key(1));
  ASSERT_TRUE(cache.put(key(2), val(42), 1));  // evicts key(1)
  EXPECT_EQ(cache.peek(key(1)), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(*held, 41) << "shared_ptr keeps the evicted value alive";
}

// --- Decode-config fingerprint: the satellite (b) keying contract ---

TEST(DecodeFingerprint, EveryDecodeRelevantKnobChangesTheFingerprint) {
  const core::PipelineConfig base;
  const std::uint64_t fp = core::decode_config_fingerprint(base);

  const auto differs = [&](auto mutate, const char* knob) {
    core::PipelineConfig cfg;
    mutate(cfg);
    EXPECT_NE(core::decode_config_fingerprint(cfg), fp)
        << knob << " must invalidate cached masks";
  };
  differs([](auto& c) { c.grounding.box_threshold = 0.30f; },
          "grounding.box_threshold");
  differs([](auto& c) { c.grounding.text_threshold = 0.20f; },
          "grounding.text_threshold");
  differs([](auto& c) { c.grounding.min_patches = 5; },
          "grounding.min_patches");
  differs([](auto& c) { c.grounding.pad_fraction = 0.10f; },
          "grounding.pad_fraction");
  differs([](auto& c) { c.grounding.backbone.seed = 999; },
          "grounding.backbone.seed");
  differs([](auto& c) { c.sam.backbone.dim = 32; }, "sam.backbone.dim");
  differs([](auto& c) { c.sam.grow_tolerance = 1.0f; }, "sam.grow_tolerance");
  differs([](auto& c) { c.sam.grow_tolerance_cap = 0.05f; },
          "sam.grow_tolerance_cap");
  differs([](auto& c) { c.sam.min_contrast_cut = 0.05f; },
          "sam.min_contrast_cut");
  differs([](auto& c) { c.sam.stability_delta = 0.5f; },
          "sam.stability_delta");
  differs([](auto& c) { c.sam.morph_radius = 2; }, "sam.morph_radius");
  differs([](auto& c) { c.sam.min_component_area = 32; },
          "sam.min_component_area");
  differs([](auto& c) { c.sam.coarse_veto_weight = 0.5f; },
          "sam.coarse_veto_weight");
  differs([](auto& c) { c.heuristic.window = 5; }, "heuristic.window");
  differs([](auto& c) { c.heuristic.size_factor = 2.0; },
          "heuristic.size_factor");
  differs([](auto& c) { c.heuristic.replace_missing = false; },
          "heuristic.replace_missing");
  differs([](auto& c) { c.max_boxes = 3; }, "max_boxes");
  differs([](auto& c) { c.enable_heuristic_refine = false; },
          "enable_heuristic_refine");
}

TEST(DecodeFingerprint, DecodeIrrelevantKnobsDoNotChangeTheFingerprint) {
  const core::PipelineConfig base;
  const std::uint64_t fp = core::decode_config_fingerprint(base);
  core::PipelineConfig cfg;
  cfg.volume_threads = 7;
  cfg.feature_cache.capacity = 3;
  cfg.feature_cache.shards = 2;
  cfg.mask_cache.capacity = 5;
  cfg.mask_cache.byte_budget = 1 << 16;
  EXPECT_EQ(core::decode_config_fingerprint(cfg), fp)
      << "scheduling and cache sizing must not invalidate cached masks";
}

TEST(MaskCache, ChangedDecodeKnobMissesAcrossPipelines) {
  // End-to-end keying check: the same image+prompt under a different
  // decode configuration must not reuse cached masks — the fingerprint
  // difference shows up as a mask-cache miss, not a stale hit.
  image::ImageF32 img(48, 48, 1);
  for (std::int64_t y = 0; y < 48; ++y) {
    for (std::int64_t x = 0; x < 48; ++x) {
      img.at(x, y) = (x > 16 && x < 32 && y > 16 && y < 32) ? 0.9f : 0.1f;
    }
  }
  core::PipelineConfig cfg;
  const core::ZenesisPipeline pipe(cfg);
  (void)pipe.segment_ready(img, "bright square");
  (void)pipe.segment_ready(img, "bright square");
  const auto s = pipe.mask_cache_stats();
  EXPECT_EQ(s.hits, 1u) << "identical request must hit";
  EXPECT_EQ(s.misses, 1u);
  // A changed prompt is a different request entirely.
  (void)pipe.segment_ready(img, "dark square");
  EXPECT_EQ(pipe.mask_cache_stats().misses, 2u);
}

TEST(MaskCache, DisabledMaskCacheRecordsNoTraffic) {
  core::PipelineConfig cfg;
  cfg.mask_cache.enabled = false;
  const core::ZenesisPipeline pipe(cfg);
  image::ImageF32 img(32, 32, 1);
  img.fill(0.4f);
  (void)pipe.segment_ready(img, "anything");
  (void)pipe.segment_ready(img, "anything");
  const auto s = pipe.mask_cache_stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
}

TEST(PipelineConfig, CacheMisconfigurationsAreFlagged) {
  core::PipelineConfig cfg;
  cfg.feature_cache.shards = 0;
  cfg.feature_cache.byte_budget = 0;
  cfg.mask_cache.capacity = 0;
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 3u);
  EXPECT_THROW(core::ZenesisPipeline{cfg}, std::invalid_argument);
}

// --- Byte-size parsing and the ZENESIS_CACHE_BUDGET knob ---

TEST(ByteSize, ParsesPlainAndSuffixedSpellings) {
  using cache::parse_byte_size;
  EXPECT_EQ(parse_byte_size("0"), std::size_t{0});
  EXPECT_EQ(parse_byte_size("777"), std::size_t{777});
  EXPECT_EQ(parse_byte_size("10K"), std::size_t{10} << 10);
  EXPECT_EQ(parse_byte_size("10k"), std::size_t{10} << 10);
  EXPECT_EQ(parse_byte_size("64M"), std::size_t{64} << 20);
  EXPECT_EQ(parse_byte_size("64MB"), std::size_t{64} << 20);
  EXPECT_EQ(parse_byte_size("64MiB"), std::size_t{64} << 20);
  EXPECT_EQ(parse_byte_size("2G"), std::size_t{2} << 30);
  EXPECT_EQ(parse_byte_size("512KB"), std::size_t{512} << 10);
}

TEST(ByteSize, RejectsMalformedInput) {
  using cache::parse_byte_size;
  EXPECT_FALSE(parse_byte_size("").has_value());
  EXPECT_FALSE(parse_byte_size("M").has_value());
  EXPECT_FALSE(parse_byte_size("12X").has_value());
  EXPECT_FALSE(parse_byte_size("12MM").has_value());
  EXPECT_FALSE(parse_byte_size("12 M").has_value());
  EXPECT_FALSE(parse_byte_size("-5").has_value());
  EXPECT_FALSE(parse_byte_size("1.5G").has_value());
  EXPECT_FALSE(parse_byte_size("99999999999999999999999").has_value());
}

class BudgetEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* old = std::getenv("ZENESIS_CACHE_BUDGET");
    if (old != nullptr) saved_ = old;
  }
  void TearDown() override {
    if (saved_.has_value()) {
      ::setenv("ZENESIS_CACHE_BUDGET", saved_->c_str(), 1);
    } else {
      ::unsetenv("ZENESIS_CACHE_BUDGET");
    }
  }
  std::optional<std::string> saved_;
};

TEST_F(BudgetEnv, EnvironmentSizesTheDefaultBudget) {
  ::setenv("ZENESIS_CACHE_BUDGET", "8M", 1);
  EXPECT_EQ(cache::default_byte_budget(), std::size_t{8} << 20);
  // The pipeline's cache configs pick the knob up at construction.
  EXPECT_EQ(cache::FeatureCacheConfig{}.byte_budget, std::size_t{8} << 20);
  EXPECT_EQ(cache::ShardedCacheConfig{}.byte_budget, std::size_t{8} << 20);
}

TEST_F(BudgetEnv, UnparseableBudgetFallsBackTo256MiB) {
  ::setenv("ZENESIS_CACHE_BUDGET", "lots", 1);
  EXPECT_EQ(cache::default_byte_budget(), std::size_t{256} << 20);
  ::unsetenv("ZENESIS_CACHE_BUDGET");
  EXPECT_EQ(cache::default_byte_budget(), std::size_t{256} << 20);
}

}  // namespace
