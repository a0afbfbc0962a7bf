#include "zenesis/cache/hash.hpp"

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zenesis::cache {

std::uint64_t hash_active_kernels(std::uint64_t h) {
  for (const char* name :
       {tensor::backend_name(), tensor::quant::precision_name()}) {
    const std::size_t n = std::strlen(name);
    h = fnv1a_value(h, n);
    h = fnv1a_bytes(h, name, n);
  }
  return h;
}

std::optional<std::size_t> parse_byte_size(const std::string& text) noexcept {
  if (text.empty()) return std::nullopt;
  std::size_t value = 0;
  std::size_t i = 0;
  bool any_digit = false;
  for (; i < text.size() && std::isdigit(static_cast<unsigned char>(text[i]));
       ++i) {
    const auto digit = static_cast<std::size_t>(text[i] - '0');
    if (value > (std::numeric_limits<std::size_t>::max() - digit) / 10) {
      return std::nullopt;  // overflow
    }
    value = value * 10 + digit;
    any_digit = true;
  }
  if (!any_digit) return std::nullopt;

  std::size_t scale = 1;
  if (i < text.size()) {
    switch (std::toupper(static_cast<unsigned char>(text[i]))) {
      case 'K': scale = std::size_t{1} << 10; break;
      case 'M': scale = std::size_t{1} << 20; break;
      case 'G': scale = std::size_t{1} << 30; break;
      default: return std::nullopt;
    }
    ++i;
    // Accept the common spellings 64M, 64MB, 64MiB.
    if (i < text.size() &&
        std::toupper(static_cast<unsigned char>(text[i])) == 'I') {
      ++i;
    }
    if (i < text.size() &&
        std::toupper(static_cast<unsigned char>(text[i])) == 'B') {
      ++i;
    }
  }
  if (i != text.size()) return std::nullopt;
  if (scale != 1 && value > std::numeric_limits<std::size_t>::max() / scale) {
    return std::nullopt;
  }
  return value * scale;
}

std::size_t default_byte_budget() noexcept {
  constexpr std::size_t kFallback = std::size_t{256} << 20;  // 256 MiB
  const char* env = std::getenv("ZENESIS_CACHE_BUDGET");
  if (env == nullptr) return kFallback;
  const auto parsed = parse_byte_size(env);
  return parsed.value_or(kFallback);
}

}  // namespace zenesis::cache
