// ops.cpp — shape checking, output allocation and ThreadPool tiling for
// the public tensor ops. All arithmetic lives in the active
// tensor::kernels::KernelBackend; every function here splits row/element
// ranges onto parallel_for and hands raw pointers to the backend
// micro-kernels (attention chains four of them per block of rows).

#include "zenesis/tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "zenesis/parallel/parallel_for.hpp"
#include "zenesis/tensor/kernels.hpp"

namespace zenesis::tensor {
namespace {

void require(bool cond, const char* what) {
  if (!cond) throw std::invalid_argument(what);
}

void require_rank2(const Tensor& t, const char* what) {
  require(t.rank() == 2, what);
}

// Rows per GEMM work chunk. A multiple of 8 so the chunk starts stay
// aligned with every backend's register-tile row grouping (2- and 4-row
// micro-kernels) — the tile decomposition, and therefore the bit
// pattern of each output row, is then independent of how many workers
// pull chunks.
constexpr std::int64_t kGemmRowGrain = 32;

// Elements per chunk for flat elementwise kernels (multiple of 8 keeps
// SIMD lane alignment identical across thread counts).
constexpr std::int64_t kFlatGrain = 1 << 15;

const kernels::KernelBackend& be() { return kernels::active(); }

/// Splits a flat range across the pool and applies `fn(ptr, len)` to
/// each contiguous chunk.
template <typename Fn>
void for_flat_chunks(float* data, std::int64_t n, Fn&& fn) {
  parallel::parallel_for_chunked(
      0, n, kFlatGrain,
      [&](std::int64_t lo, std::int64_t hi) { fn(data + lo, hi - lo); });
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul: a must be rank 2");
  require_rank2(b, "matmul: b must be rank 2");
  require(a.dim(1) == b.dim(0), "matmul: inner dimensions differ");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nn(a.data(), b.data(), c.data(), m0, m1, k, n);
      });
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt: a must be rank 2");
  require_rank2(b, "matmul_nt: b must be rank 2");
  require(a.dim(1) == b.dim(1), "matmul_nt: feature dimensions differ");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt(a.data(), b.data(), nullptr, c.data(), m0, m1, k, n);
      });
  return c;
}

Tensor linear(const Tensor& x, const Tensor& weight, const Tensor& bias) {
  require_rank2(x, "linear: x must be rank 2");
  require_rank2(weight, "linear: weight must be rank 2");
  require(x.dim(1) == weight.dim(1), "linear: feature dimensions differ");
  require(bias.rank() == 1 && bias.dim(0) == weight.dim(0),
          "linear: bias size must equal output features");
  const std::int64_t m = x.dim(0), k = x.dim(1), n = weight.dim(0);
  Tensor y({m, n});
  const kernels::KernelBackend& backend = be();
  // Bias add is fused into the GEMM epilogue and parallelized with it —
  // the old serial tail loop over y is gone.
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt(x.data(), weight.data(), bias.data(), y.data(), m0,
                          m1, k, n);
      });
  return y;
}

namespace {

// Shared core of the quantized GEMM forwarders: activations already
// quantized on the pool, weight panel pre-quantized.
Tensor matmul_nt_i8_impl(const quant::QuantizedTensor& qa,
                         const quant::QuantizedTensor& qb, const float* bias) {
  const std::int64_t m = qa.rows, k = qa.cols, n = qb.rows;
  Tensor c({m, n});
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for_chunked(
      0, m, kGemmRowGrain, [&](std::int64_t m0, std::int64_t m1) {
        backend.matmul_nt_i8(qa.data.data(), qa.scales.data(), qb.data.data(),
                             qb.scales.data(), bias, c.data(), m0, m1, k, n);
      });
  return c;
}

}  // namespace

Tensor linear_quantized(const Tensor& x, const quant::QuantizedTensor& qw,
                        const Tensor& bias) {
  require_rank2(x, "linear_quantized: x must be rank 2");
  require(x.dim(1) == qw.cols, "linear_quantized: feature dimensions differ");
  const bool has_bias = bias.rank() != 0;
  if (has_bias) {
    require(bias.rank() == 1 && bias.dim(0) == qw.rows,
            "linear_quantized: bias size must equal output features");
  }
  return matmul_nt_i8_impl(quant::quantize_rows(x), qw,
                           has_bias ? bias.data() : nullptr);
}

Tensor matmul_nt_quantized(const Tensor& a, const quant::QuantizedTensor& qb) {
  return linear_quantized(a, qb, Tensor{});
}

Tensor matmul_nt_dyn_quantized(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_nt_dyn_quantized: a must be rank 2");
  require_rank2(b, "matmul_nt_dyn_quantized: b must be rank 2");
  require(a.dim(1) == b.dim(1),
          "matmul_nt_dyn_quantized: feature dimensions differ");
  return matmul_nt_i8_impl(quant::quantize_rows(a), quant::quantize_rows(b),
                           nullptr);
}

Tensor transpose(const Tensor& a) {
  require_rank2(a, "transpose: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor t({n, m});
  // 32x32 tiles keep both the read rows and the written columns inside
  // L1; row-tile chunks are distributed across the pool.
  constexpr std::int64_t kTile = 32;
  const float* src = a.data();
  float* dst = t.data();
  parallel::parallel_for_chunked(
      0, m, kTile, [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t j0 = 0; j0 < n; j0 += kTile) {
          const std::int64_t j1 = std::min(n, j0 + kTile);
          for (std::int64_t i = i0; i < i1; ++i) {
            for (std::int64_t j = j0; j < j1; ++j) {
              dst[j * m + i] = src[i * n + j];
            }
          }
        }
      });
  return t;
}

void add_inplace(Tensor& a, const Tensor& b) {
  require(a.shape() == b.shape(), "add_inplace: shape mismatch");
  const kernels::KernelBackend& backend = be();
  const float* pb = b.data();
  float* pa = a.data();
  parallel::parallel_for_chunked(
      0, a.numel(), kFlatGrain, [&](std::int64_t lo, std::int64_t hi) {
        backend.add(pa + lo, pb + lo, hi - lo);
      });
}

void scale_inplace(Tensor& a, float s) {
  const kernels::KernelBackend& backend = be();
  for_flat_chunks(a.data(), a.numel(),
                  [&](float* p, std::int64_t n) { backend.scale(p, s, n); });
}

void softmax_rows(Tensor& a) {
  require_rank2(a, "softmax_rows: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  if (n == 0) return;
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for(
      0, m, [&](std::int64_t i) { backend.softmax_row(a.row(i), n); });
}

void layernorm_rows(Tensor& a, const Tensor& gain, const Tensor& bias,
                    float eps) {
  require_rank2(a, "layernorm_rows: rank 2 required");
  require(gain.rank() == 1 && gain.dim(0) == a.dim(1),
          "layernorm_rows: gain size mismatch");
  require(bias.rank() == 1 && bias.dim(0) == a.dim(1),
          "layernorm_rows: bias size mismatch");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  const kernels::KernelBackend& backend = be();
  const float* g = gain.data();
  const float* b = bias.data();
  parallel::parallel_for(0, m, [&](std::int64_t i) {
    backend.layernorm_row(a.row(i), g, b, n, eps);
  });
}

void gelu_inplace(Tensor& a) {
  const kernels::KernelBackend& backend = be();
  for_flat_chunks(a.data(), a.numel(),
                  [&](float* p, std::int64_t n) { backend.gelu(p, n); });
}

void relu_inplace(Tensor& a) {
  const kernels::KernelBackend& backend = be();
  for_flat_chunks(a.data(), a.numel(),
                  [&](float* p, std::int64_t n) { backend.relu(p, n); });
}

namespace {

// Query rows per attention work item. Equal to kGemmRowGrain, so a block
// starts exactly where a row chunk of the standalone GEMMs would:
// each output row then sees the same register-tile grouping — and the
// same bits — as matmul_nt → scale → softmax → matmul over the full
// score matrix. At 4096 keys a block's fp32 scores are 512 KiB, which
// stays in L2 between the four passes.
constexpr std::int64_t kAttentionRowBlock = kGemmRowGrain;

/// Per-worker buffers of one attention block; grown once, reused by
/// every later block the thread runs.
struct AttentionScratch {
  std::vector<float> q;          // [block, dh] query rows of one head
  std::vector<std::int8_t> q8;   // [block, dh] quantized query rows
  std::vector<float> q_scales;   // [block]
  std::vector<float> scores;     // [block, lk]
  std::vector<float> out;        // [block, dvh]
};

/// Copies the `heads` column groups of t [L, heads*w] into a head-major
/// [heads, L, w] buffer, one row copy per (head, row).
std::vector<float> split_heads(const Tensor& t, int heads) {
  const std::int64_t rows = t.dim(0), w = t.dim(1) / heads;
  std::vector<float> packed(static_cast<std::size_t>(t.numel()));
  for (int h = 0; h < heads; ++h) {
    float* dst = packed.data() + h * rows * w;
    for (std::int64_t i = 0; i < rows; ++i) {
      std::copy_n(t.row(i) + h * w, w, dst + i * w);
    }
  }
  return packed;
}

}  // namespace

Tensor attention(const Tensor& q, const Tensor& k, const Tensor& v) {
  return multihead_attention(q, k, v, 1);
}

Tensor multihead_attention(const Tensor& q, const Tensor& k, const Tensor& v,
                           int heads) {
  require_rank2(q, "attention: q must be rank 2");
  require_rank2(k, "attention: k must be rank 2");
  require_rank2(v, "attention: v must be rank 2");
  require(q.dim(1) == k.dim(1), "attention: q/k feature mismatch");
  require(k.dim(0) == v.dim(0), "attention: k/v length mismatch");
  require(heads > 0, "multihead_attention: heads must be positive");
  require(q.dim(1) % heads == 0, "multihead_attention: d % heads != 0");
  require(v.dim(1) % heads == 0, "multihead_attention: dv % heads != 0");
  const std::int64_t lq = q.dim(0), lk = k.dim(0);
  const std::int64_t dh = q.dim(1) / heads, dvh = v.dim(1) / heads;
  const kernels::KernelBackend& backend = be();
  // Under int8 the scores GEMM quantizes both operands per row: K once
  // per head here, each Q row inside its block. The softmax and the
  // scores·V matmul stay fp32 for accuracy.
  const bool int8 = quant::int8_fast_path();
  const std::vector<float> kp = split_heads(k, heads);
  const std::vector<float> vp = split_heads(v, heads);
  std::vector<std::int8_t> k8;
  std::vector<float> k_scales;
  if (int8) {
    k8.resize(kp.size());
    k_scales.resize(static_cast<std::size_t>(heads * lk));
    for (std::int64_t r = 0; r < heads * lk; ++r) {
      backend.quantize_row(kp.data() + r * dh, k8.data() + r * dh,
                           &k_scales[static_cast<std::size_t>(r)], dh);
    }
  }
  const float inv_sqrt_d = 1.0f / std::sqrt(static_cast<float>(dh));
  const std::int64_t blocks =
      (lq + kAttentionRowBlock - 1) / kAttentionRowBlock;
  Tensor out({lq, v.dim(1)});
  // One work item per (head, row block): scores for the block's rows
  // against every key, scaled, softmaxed and multiplied into V without
  // leaving the worker's scratch, so memory is O(block × Lk) per worker
  // instead of an [Lq, Lk] matrix per head.
  parallel::parallel_for_chunked(
      0, heads * blocks, 1, [&](std::int64_t item0, std::int64_t item1) {
        thread_local AttentionScratch s;
        s.q.resize(static_cast<std::size_t>(kAttentionRowBlock * dh));
        s.scores.resize(static_cast<std::size_t>(kAttentionRowBlock * lk));
        s.out.resize(static_cast<std::size_t>(kAttentionRowBlock * dvh));
        if (int8) {
          s.q8.resize(s.q.size());
          s.q_scales.resize(static_cast<std::size_t>(kAttentionRowBlock));
        }
        for (std::int64_t item = item0; item < item1; ++item) {
          const std::int64_t h = item / blocks;
          const std::int64_t r0 = (item % blocks) * kAttentionRowBlock;
          const std::int64_t rows = std::min(lq, r0 + kAttentionRowBlock) - r0;
          for (std::int64_t i = 0; i < rows; ++i) {
            std::copy_n(q.row(r0 + i) + h * dh, dh, s.q.data() + i * dh);
          }
          float* scores = s.scores.data();
          if (int8) {
            for (std::int64_t i = 0; i < rows; ++i) {
              backend.quantize_row(s.q.data() + i * dh, s.q8.data() + i * dh,
                                   &s.q_scales[static_cast<std::size_t>(i)],
                                   dh);
            }
            backend.matmul_nt_i8(s.q8.data(), s.q_scales.data(),
                                 k8.data() + h * lk * dh,
                                 k_scales.data() + h * lk, nullptr, scores, 0,
                                 rows, dh, lk);
          } else {
            backend.matmul_nt(s.q.data(), kp.data() + h * lk * dh, nullptr,
                              scores, 0, rows, dh, lk);
          }
          backend.scale(scores, inv_sqrt_d, rows * lk);
          if (lk > 0) {
            for (std::int64_t i = 0; i < rows; ++i) {
              backend.softmax_row(scores + i * lk, lk);
            }
          }
          backend.matmul_nn(scores, vp.data() + h * lk * dvh, s.out.data(), 0,
                            rows, lk, dvh);
          for (std::int64_t i = 0; i < rows; ++i) {
            std::copy_n(s.out.data() + i * dvh, dvh, out.row(r0 + i) + h * dvh);
          }
        }
      });
  return out;
}

void l2_normalize_rows(Tensor& a, float eps) {
  require_rank2(a, "l2_normalize_rows: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  const kernels::KernelBackend& backend = be();
  parallel::parallel_for(0, m, [&](std::int64_t i) {
    float* r = a.row(i);
    const float ss = backend.dot(r, r, n);
    if (ss <= eps) return;
    backend.scale(r, 1.0f / std::sqrt(ss), n);
  });
}

Tensor cosine_similarity(const Tensor& a, const Tensor& b) {
  Tensor an = a, bn = b;
  l2_normalize_rows(an);
  l2_normalize_rows(bn);
  return matmul_nt(an, bn);
}

Tensor mean_rows(const Tensor& a) {
  require_rank2(a, "mean_rows: rank 2 required");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  Tensor out({n});
  if (m == 0) return out;
  const kernels::KernelBackend& backend = be();
  // Rows fold in ascending order (fixed reduction order); each fold is a
  // vectorized axpy.
  for (std::int64_t i = 0; i < m; ++i) {
    backend.axpy(out.data(), a.row(i), 1.0f, n);
  }
  backend.scale(out.data(), 1.0f / static_cast<float>(m), n);
  return out;
}

Tensor colwise_max(const Tensor& a) {
  require_rank2(a, "colwise_max: rank 2 required");
  require(a.dim(0) > 0, "colwise_max: at least one row required");
  Tensor out({a.dim(1)});
  be().colwise_max(a.data(), out.data(), a.dim(0), a.dim(1));
  return out;
}

void subtract_row_inplace(Tensor& a, const Tensor& row) {
  require_rank2(a, "subtract_row_inplace: rank 2 required");
  require(row.rank() == 1 && row.dim(0) == a.dim(1),
          "subtract_row_inplace: row size mismatch");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  const kernels::KernelBackend& backend = be();
  const float* r = row.data();
  parallel::parallel_for(
      0, m, [&](std::int64_t i) { backend.axpy(a.row(i), r, -1.0f, n); });
}

}  // namespace zenesis::tensor
