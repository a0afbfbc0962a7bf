#pragma once
// Shared pieces of the zen_bench runner: options, the result record, the
// statistics helpers, deterministic seeding, and the per-layer attribution
// of one Mode-A request.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "zenesis/core/pipeline.hpp"
#include "zenesis/image/image.hpp"
#include "zenesis/models/sam.hpp"
#include "zenesis/parallel/parallel_for.hpp"

namespace zbench {

using namespace zenesis;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated input files (inside the checkout).
  std::string work_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: request accounting, every failed correctness
/// check, the metrics, and informational facts (sample counts) that are
/// printed alongside but are not metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> info;

  /// Records a correctness check; a false `ok` marks the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// --- statistics -----------------------------------------------------------

double mean(const std::vector<double>& v);
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

// --- inputs ---------------------------------------------------------------

/// splitmix64 over (seed, stream, index): independent, reproducible
/// sub-seeds for every generated input.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

/// Deterministic, lazily extended input sequence: item i is always
/// make(i), whether it was generated up front or on demand. Runners
/// prefill() before the clock starts (items generated in parallel on the
/// global pool); get() generates past the prefill only when a run outlasts
/// it, always outside a request's timer. Thread-safe; references stay
/// valid (items are individually owned).
template <typename T>
class InputPool {
 public:
  explicit InputPool(std::function<T(std::size_t)> make) : make_(std::move(make)) {}

  void prefill(std::size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::size_t first = items_.size();
    if (n <= first) return;
    items_.resize(n);
    parallel::parallel_for_chunked(
        static_cast<std::int64_t>(first), static_cast<std::int64_t>(n), 1,
        [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t i = lo; i < hi; ++i) {
            const auto k = static_cast<std::size_t>(i);
            items_[k] = std::make_unique<T>(make_(k));
          }
        });
  }

  const T& get(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (items_.size() <= i) {
      items_.push_back(std::make_unique<T>(make_(items_.size())));
    }
    return *items_[i];
  }

 private:
  std::function<T(std::size_t)> make_;
  std::mutex mu_;
  std::vector<std::unique_ptr<T>> items_;
};

/// Samples split by slice kind (crystalline / amorphous, alternating in
/// every workload). The kinds' costs differ by about 40%, so a median of
/// the pooled 50/50 mix falls in the gap between the two modes and jumps
/// from run to run; median() is the mean of the two per-kind medians.
struct KindSamples {
  std::vector<double> kind[2];

  void add(std::size_t k, double v) { kind[k % 2].push_back(v); }
  std::vector<double> pooled() const;
  double median() const;
};

/// Records the latency sample count and, when the sample supports one, the
/// highest percentile with at least ten samples beyond it (informational:
/// too few samples per run to gate on).
void note_latency_samples(Result& result, const std::vector<double>& latency_ms);

/// FNV-1a digest of a mask's geometry and pixels (replay comparison).
std::uint64_t mask_digest(const image::Mask& mask);

/// Process peak resident set size in MiB.
double peak_rss_mb();

/// Builds `reps` instances with `make`, timing each construction, and
/// returns the median seconds. The first instance is kept in `main` and the
/// last in `spare`; the others are destroyed outside the timed region.
template <typename T, typename Make>
double timed_setups(int reps, Make&& make, T& main, T& spare) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    T inst = make();
    times.push_back(seconds_since(t0));
    if (rep == 0) {
      main = std::move(inst);
    } else if (rep == reps - 1) {
      spare = std::move(inst);
    }
  }
  return median(std::move(times));
}

// --- per-layer attribution -------------------------------------------------

/// Time one Mode-A request spent in each layer, measured by calling the
/// modules' public functions on the request's own input. A layer the
/// pipeline skipped for this request (readiness on an AI-ready input,
/// features/encoder on a feature-cache hit) reads 0.
struct LayerTimes {
  double ready_ms = 0.0;
  double features_ms = 0.0;
  double encode_ms = 0.0;
  double ground_ms = 0.0;
  double decode_ms = 0.0;
  double boxes = 0.0;
  image::Box top_box;  ///< highest-confidence detection (empty if none)

  double sum_ms() const {
    return ready_ms + features_ms + encode_ms + ground_ms + decode_ms;
  }
};

/// Re-runs the stages of one request outside the pipeline and times each:
/// image::make_ai_ready (when `raw` is given), models::compute_features and
/// VisionBackbone::encode (when `encoded` is null), GroundingDetector::detect
/// and SamModel::predict_box_candidates over the top max_boxes boxes. When
/// `expected` is given, the replica must reproduce its AI-ready image and
/// grounding boxes; a mismatch is recorded in `result`.
LayerTimes attribute_request(const core::ZenesisPipeline& pipeline,
                             const image::AnyImage* raw,
                             const image::ImageF32* ready,
                             const models::SamEncoded* encoded,
                             const std::string& prompt,
                             const core::SliceResult* expected, Result& result);

/// Accumulates traced requests and emits the layer metrics as means per
/// request, so that the layer times plus core.unattributed_ms sum to
/// core.traced_latency_ms exactly.
struct LayerTable {
  std::vector<LayerTimes> layers;
  std::vector<double> traced_ms;

  void add(const LayerTimes& t, double traced) {
    layers.push_back(t);
    traced_ms.push_back(traced);
  }
  void emit(Result& result) const;
};

/// Median time of tensor::attention on 4096 x 64 query/key/value tokens
/// (the token count of a 512² slice) on the active kernel backend.
double attention_4096_ms();

/// Emits the per-layer metrics a workload does not exercise as 0, so every
/// traced run prints the whole per-layer set.
void fill_unexercised(Result& result);

// --- workloads -------------------------------------------------------------

Result run_cold_512(const Options& opt);
Result run_reprompt_256(const Options& opt);
Result run_volume_wire(const Options& opt);

}  // namespace zbench
