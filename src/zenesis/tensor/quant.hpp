#pragma once
// tensor::quant — dynamic int8 quantization for the encoder hot path.
//
// Scheme (DESIGN §4j): symmetric per-row scales. For a row-major matrix
// each row r gets scale_r = max|row|/127 and payload q = clamp(rint(x *
// 127/max|row|), -127, 127) — the saturating requantize. The -128 slot
// is never produced, which is what keeps the AVX2 maddubs pair sums
// exact (see kernels_avx2.cpp). Weights are quantized once per model
// (QuantizedWeights memoizes under a call_once); activations are
// quantized per call on the ThreadPool by ops::linear_quantized.
//
// Precision selection mirrors the kernel-backend dispatch: a process-
// global Precision resolved lazily from ZENESIS_PRECISION ("fp32" |
// "int8"; unknown values fall back to fp32 with a one-line stderr note,
// printed exactly once), overridable via set_precision(). The active
// name is read where the mask-cache AND the feature-cache / disk-store
// keys are built (cache::hash_active_kernels), so no cached artifact
// ever aliases across precisions.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "zenesis/tensor/tensor.hpp"

namespace zenesis::tensor::quant {

/// Numeric precision of the encoder/attention GEMM path.
enum class Precision : int {
  kFp32 = 0,  ///< every GEMM runs the fp32 kernels (the reference)
  kInt8 = 1,  ///< linear layers + attention scores run matmul_nt_i8
};

/// A row-major int8 matrix with one symmetric scale per row.
/// dequantized(i, j) == scales[i] * data[i * cols + j].
struct QuantizedTensor {
  std::vector<std::int8_t> data;  ///< [rows * cols]
  std::vector<float> scales;      ///< [rows]
  std::int64_t rows = 0;
  std::int64_t cols = 0;

  bool empty() const noexcept { return rows == 0 || cols == 0; }
};

/// Quantizes a rank-2 tensor per row on the active backend, parallel
/// over rows. The payload is bit-identical across backends (the scale
/// formulas are single float ops and rounding is nearest-even
/// everywhere).
QuantizedTensor quantize_rows(const Tensor& t);

/// Reconstructs the fp32 tensor (scales[i] * data[i][j]).
Tensor dequantize_rows(const QuantizedTensor& q);

/// Once-per-model weight panel: the first get() quantizes `w` and every
/// later call returns the memoized panel. Thread-safe (call_once); the
/// caller must pass the same tensor every time (models hold one panel
/// per weight member). The state sits behind a shared_ptr so holders
/// stay movable/copyable (std::once_flag itself is neither); copies
/// share the panel, which is correct because copies of a model share
/// identical weights.
class QuantizedWeights {
 public:
  const QuantizedTensor& get(const Tensor& w) const {
    std::call_once(state_->once, [&] { state_->panel = quantize_rows(w); });
    return state_->panel;
  }

 private:
  struct State {
    std::once_flag once;
    QuantizedTensor panel;
  };
  std::shared_ptr<State> state_ = std::make_shared<State>();
};

/// The process-wide precision every quantization-aware call site
/// consults. First call resolves ZENESIS_PRECISION (unknown values fall
/// back to kFp32 with a stderr note, printed once).
Precision active_precision();

/// Selects the precision by name: "fp32", "int8", or "auto"
/// (re-resolve ZENESIS_PRECISION / default fp32). Returns false — and
/// leaves the selection unchanged — for unknown names.
bool set_precision(std::string_view name);

/// Name of the active precision ("fp32" | "int8").
const char* precision_name();

/// True when `name` is a selector set_precision() would accept.
bool precision_available(std::string_view name);

/// The ZENESIS_PRECISION resolution rule as a pure function (the env
/// init calls it exactly once per process): unknown values yield kFp32
/// and a one-line fallback note in `*warning` (cleared otherwise).
/// Exposed for tests of the fallback path.
Precision resolve_precision_selector(std::string_view value,
                                     std::string* warning);

/// True when the quantized fast path should run (active precision is
/// int8; every kernel backend provides the int8 kernels). Model call
/// sites branch on this.
bool int8_fast_path();

}  // namespace zenesis::tensor::quant
