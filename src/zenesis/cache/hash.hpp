#pragma once
// zenesis::cache primitives: FNV-1a hashing, 128-bit cache keys, and
// byte-budget sizing.
//
// Every cache in the hierarchy (the sharded in-memory tiers, the on-disk
// embedding store, the mask-result cache) keys entries by content hashes
// built from these helpers, and bounds residency by a byte budget sized
// through `default_byte_budget()` (the ZENESIS_CACHE_BUDGET environment
// variable, with K/M/G suffixes, falling back to a 256 MiB default).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace zenesis::cache {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `n` bytes into a running FNV-1a hash state `h`.
inline std::uint64_t fnv1a_bytes(std::uint64_t h, const void* data,
                                 std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Folds a trivially copyable value's object representation into `h`.
template <typename T>
std::uint64_t fnv1a_value(std::uint64_t h, const T& v) noexcept {
  return fnv1a_bytes(h, &v, sizeof(v));
}

/// 128-bit cache key: two independent 64-bit content hashes (e.g. image
/// hash + configuration hash). Collisions require both halves to collide,
/// so key equality is treated as content equality throughout the cache
/// subsystem.
struct Key128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  friend bool operator==(const Key128&, const Key128&) = default;
};

/// Folds the active tensor kernel backend and numeric precision
/// (tensor::backend_name(), tensor::quant::precision_name()) into `h`.
/// Both are process-wide and both change the floats the models produce,
/// so every key over model output calls this where the key is built: a
/// switch of either is then a clean miss, never a cross-kernel hit.
std::uint64_t hash_active_kernels(std::uint64_t h);

/// Avalanching mix of a key into one word (shard selection, map buckets).
inline std::uint64_t mix_key(const Key128& k) noexcept {
  std::uint64_t x = k.lo ^ (k.hi * 0x9e3779b97f4a7c15ull);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Parses a human-friendly byte size: a plain integer is bytes; a K/M/G
/// suffix (optionally followed by "iB" or "B", case-insensitive) scales by
/// 2^10/2^20/2^30. Returns nullopt for malformed input or overflow.
std::optional<std::size_t> parse_byte_size(const std::string& text) noexcept;

/// The default cache byte budget: ZENESIS_CACHE_BUDGET from the
/// environment when set and parseable (see parse_byte_size), else 256 MiB.
/// Read on every call so tests can vary the environment.
std::size_t default_byte_budget() noexcept;

}  // namespace zenesis::cache
