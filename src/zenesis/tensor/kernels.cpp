// Backend registry and runtime dispatch for tensor::kernels.

#include "zenesis/tensor/kernels.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace zenesis::tensor {
namespace kernels {
namespace {

/// Best available backend, in the fixed preference order avx2 > blocked
/// (scalar is never auto-picked — it is the reference, not a fast path).
const KernelBackend& best_backend() {
  if (const KernelBackend* v = avx2_backend()) return *v;
  return blocked_backend();
}

const KernelBackend* lookup(std::string_view name) {
  if (name == "scalar") return &scalar_backend();
  if (name == "blocked") return &blocked_backend();
  if (name == "avx2") return avx2_backend();
  if (name == "auto") return &best_backend();
  return nullptr;
}

std::atomic<const KernelBackend*> g_active{nullptr};
std::once_flag g_env_once;

/// One-time ZENESIS_KERNEL resolution. An unknown or unavailable value
/// must not abort a long pipeline run at startup — resolve_selector
/// falls back to the best available backend and the note is printed
/// exactly once (this function runs under a call_once; set_backend,
/// which refuses unknown names, is the strict path).
void init_from_env() {
  const char* env = std::getenv("ZENESIS_KERNEL");
  std::string warning;
  const KernelBackend& chosen =
      resolve_selector(env != nullptr ? std::string_view(env)
                                      : std::string_view(),
                       &warning);
  if (!warning.empty()) std::fprintf(stderr, "%s\n", warning.c_str());
  // Keep an explicit set_backend() that raced ahead of lazy init.
  const KernelBackend* expected = nullptr;
  g_active.compare_exchange_strong(expected, &chosen,
                                   std::memory_order_release,
                                   std::memory_order_relaxed);
}

}  // namespace

const KernelBackend& resolve_selector(std::string_view value,
                                      std::string* warning) {
  if (warning != nullptr) warning->clear();
  if (value.empty()) return best_backend();
  if (const KernelBackend* chosen = lookup(value)) return *chosen;
  if (warning != nullptr) {
    *warning = "zenesis: ZENESIS_KERNEL=" + std::string(value) +
               " is unknown or unavailable on this CPU; using '" +
               best_backend().name + "'";
  }
  return best_backend();
}

const KernelBackend& active() {
  const KernelBackend* backend = g_active.load(std::memory_order_acquire);
  if (backend == nullptr) {
    std::call_once(g_env_once, init_from_env);
    backend = g_active.load(std::memory_order_acquire);
  }
  return *backend;
}

}  // namespace kernels

bool set_backend(std::string_view name) {
  const kernels::KernelBackend* backend = kernels::lookup(name);
  if (backend == nullptr) return false;
  kernels::g_active.store(backend, std::memory_order_release);
  return true;
}

const char* backend_name() { return kernels::active().name; }

std::vector<std::string> available_backends() {
  std::vector<std::string> out;
  if (kernels::avx2_backend() != nullptr) out.emplace_back("avx2");
  out.emplace_back("blocked");
  out.emplace_back("scalar");
  return out;
}

bool backend_available(std::string_view name) {
  return kernels::lookup(name) != nullptr;
}

std::string cpu_feature_string() {
  std::string features;
  const auto append = [&](const char* name) {
    if (!features.empty()) features += ' ';
    features += name;
  };
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) append("sse4.2");
  if (__builtin_cpu_supports("avx")) append("avx");
  if (__builtin_cpu_supports("avx2")) append("avx2");
  if (__builtin_cpu_supports("fma")) append("fma");
  if (__builtin_cpu_supports("avx512f")) append("avx512f");
#elif defined(__aarch64__)
  append("neon");  // baseline on AArch64
#endif
  return features;
}

}  // namespace zenesis::tensor
