// zen_kernels — inspect and benchmark the tensor kernel backends.
//
//   zen_kernels                 CPU features, available backends, active
//                               pick, active precision
//   zen_kernels bench [N ...]   per-backend GFLOP/s for matmul / matmul_nt /
//                               linear at the given square sizes, plus int8
//                               GOP/s for the quantized matmul_nt next to its
//                               fp32 counterpart (default 128 256 512)
//
// The same dispatch path the pipeline uses (ZENESIS_KERNEL and
// ZENESIS_PRECISION honored), so the printout answers "which backend and
// precision will my run actually get, and what is it worth" on this
// exact machine.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/ops.hpp"
#include "zenesis/tensor/quant.hpp"

using namespace zenesis;

namespace {

/// Times `run` with geometric iteration growth until >= 0.2 s and
/// returns billions of `ops_per_iter` operations per second.
template <typename Fn>
double time_gops(double ops_per_iter, const Fn& run) {
  (void)run();  // warm-up (pool spin-up, page faults, weight panels)
  int iters = 1;
  double elapsed = 0.0;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) (void)run();
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    if (elapsed >= 0.2 || iters >= 1 << 14) break;
    iters *= 4;
  }
  return ops_per_iter * static_cast<double>(iters) / elapsed / 1e9;
}

double time_gflops(const char* op, std::int64_t n) {
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 42, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 42, 2);
  tensor::Tensor bias({n});

  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(n) * static_cast<double>(n);
  return time_gops(flops, [&] {
    if (std::string(op) == "matmul") return tensor::matmul(a, b);
    if (std::string(op) == "matmul_nt") return tensor::matmul_nt(a, b);
    return tensor::linear(a, b, bias);
  });
}

/// Int8 GOP/s of the full dynamic-quantization matmul_nt path
/// (activation quantize + int8 GEMM + requantize) against a
/// pre-quantized weight panel — the shape ops::linear_quantized runs.
double time_gops_int8(std::int64_t n) {
  const tensor::Tensor a = tensor::xavier_uniform(n, n, 42, 1);
  const tensor::Tensor b = tensor::xavier_uniform(n, n, 42, 2);
  const tensor::quant::QuantizedTensor qb = tensor::quant::quantize_rows(b);
  const double ops = 2.0 * static_cast<double>(n) * static_cast<double>(n) *
                     static_cast<double>(n);
  return time_gops(ops, [&] { return tensor::matmul_nt_quantized(a, qb); });
}

int run_bench(const std::vector<std::int64_t>& sizes) {
  const std::string active = tensor::backend_name();
  for (const auto& backend : tensor::available_backends()) {
    if (!tensor::set_backend(backend)) continue;
    std::printf("backend %s\n", backend.c_str());
    for (const std::int64_t n : sizes) {
      const double fp32_nt = time_gflops("matmul_nt", n);
      std::printf("  %5lld x %-5lld  matmul %7.2f GFLOP/s   matmul_nt %7.2f "
                  "GFLOP/s   linear %7.2f GFLOP/s",
                  static_cast<long long>(n), static_cast<long long>(n),
                  time_gflops("matmul", n), fp32_nt, time_gflops("linear", n));
      const double i8 = time_gops_int8(n);
      std::printf("   int8 matmul_nt %7.2f GOP/s (%.2fx fp32)\n", i8,
                  fp32_nt > 0.0 ? i8 / fp32_nt : 0.0);
    }
  }
  tensor::set_backend(active);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("cpu features:       %s\n", tensor::cpu_feature_string().c_str());
  std::printf("available backends:");
  for (const auto& name : tensor::available_backends()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
  const char* env = std::getenv("ZENESIS_KERNEL");
  std::printf("ZENESIS_KERNEL:     %s\n", env != nullptr ? env : "(unset)");
  std::printf("active backend:     %s\n", tensor::backend_name());
  const char* penv = std::getenv("ZENESIS_PRECISION");
  std::printf("ZENESIS_PRECISION:  %s\n", penv != nullptr ? penv : "(unset)");
  std::printf("active precision:   %s\n", tensor::quant::precision_name());

  if (argc >= 2 && std::string(argv[1]) == "bench") {
    std::vector<std::int64_t> sizes;
    for (int i = 2; i < argc; ++i) {
      const long long v = std::atoll(argv[i]);
      if (v < 1) {
        std::fprintf(stderr, "zen_kernels: bad size '%s'\n", argv[i]);
        return 2;
      }
      sizes.push_back(v);
    }
    if (sizes.empty()) sizes = {128, 256, 512};
    std::printf("\n");
    return run_bench(sizes);
  }
  if (argc >= 2) {
    std::fprintf(stderr,
                 "usage: zen_kernels            # report CPU/backend info\n"
                 "       zen_kernels bench [N ...]  # per-backend GFLOP/s\n");
    return 2;
  }
  return 0;
}
