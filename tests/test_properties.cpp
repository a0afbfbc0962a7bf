// Parameterized property tests: invariants swept over sizes, seeds and
// bit depths (TEST_P / INSTANTIATE_TEST_SUITE_P).
#include <gtest/gtest.h>

#include <cmath>

#include "zenesis/cv/distance.hpp"
#include "zenesis/cv/morphology.hpp"
#include "zenesis/cv/threshold.hpp"
#include "zenesis/eval/metrics.hpp"
#include "zenesis/image/normalize.hpp"
#include "zenesis/image/roi.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/parallel/rng.hpp"
#include "zenesis/tensor/init.hpp"
#include "zenesis/tensor/ops.hpp"

namespace zt = zenesis::tensor;
namespace zi = zenesis::image;
namespace zc = zenesis::cv;
namespace zio = zenesis::io;
namespace zp = zenesis::parallel;
namespace ze = zenesis::eval;

// ---------------------------------------------------------------- matmul

class MatmulSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulSweep, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  const zt::Tensor a = zt::xavier_uniform(m, k, 11, 1);
  const zt::Tensor bt = zt::xavier_uniform(n, k, 11, 2);
  const zt::Tensor b = zt::transpose(bt);
  const zt::Tensor c = zt::matmul(a, b);
  const zt::Tensor c2 = zt::matmul_nt(a, bt);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float ref = 0.0f;
      for (int kk = 0; kk < k; ++kk) ref += a.at(i, kk) * b.at(kk, j);
      ASSERT_NEAR(c.at(i, j), ref, 1e-4f) << m << "x" << k << "x" << n;
      ASSERT_NEAR(c2.at(i, j), ref, 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulSweep,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 5, 7},
                                           std::tuple{16, 16, 16},
                                           std::tuple{1, 64, 3},
                                           std::tuple{33, 17, 9},
                                           std::tuple{70, 70, 2}));

// ---------------------------------------------------------- softmax rows

class SoftmaxSweep : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxSweep, IsDistributionAndOrderPreserving) {
  const int n = GetParam();
  zt::Tensor a = zt::xavier_uniform(4, n, 13, static_cast<std::uint64_t>(n));
  zt::scale_inplace(a, 7.0f);
  zt::Tensor before = a;
  zt::softmax_rows(a);
  for (int i = 0; i < 4; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < n; ++j) sum += a.at(i, j);
    ASSERT_NEAR(sum, 1.0f, 1e-4f);
    for (int j = 1; j < n; ++j) {
      // Softmax is monotone: larger logits → larger probabilities.
      if (before.at(i, j) > before.at(i, j - 1)) {
        ASSERT_GE(a.at(i, j), a.at(i, j - 1) - 1e-6f);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, SoftmaxSweep,
                         ::testing::Values(1, 2, 5, 32, 257));

// -------------------------------------------------------- TIFF roundtrip

class TiffSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};  // w,h,bits

TEST_P(TiffSweep, RoundTripsExactly) {
  const auto [w, h, bits] = GetParam();
  zp::Rng rng(static_cast<std::uint64_t>(w * 1000 + h * 10 + bits));
  zi::ImageF32 f(w, h, 1);
  for (float& v : f.pixels()) v = static_cast<float>(rng.uniform());
  const zi::AnyImage img = zi::quantize(f, bits);
  zio::TiffStack stack;
  stack.pages.push_back(img);
  const zio::TiffStack back = zio::read_tiff_bytes(zio::write_tiff_bytes(stack));
  ASSERT_EQ(back.pages.size(), 1u);
  ASSERT_EQ(zi::bit_depth(back.pages[0]), bits);
  const zi::ImageF32 a = zi::to_float(img);
  const zi::ImageF32 b = zi::to_float(back.pages[0]);
  for (std::size_t i = 0; i < a.pixels().size(); ++i) {
    ASSERT_EQ(a.pixels()[i], b.pixels()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TiffSweep,
    ::testing::Values(std::tuple{1, 1, 8}, std::tuple{7, 3, 8},
                      std::tuple{16, 16, 16}, std::tuple{33, 9, 16},
                      std::tuple{5, 40, 32}, std::tuple{64, 64, 32}));

// --------------------------------------------------- morphology duality

class MorphologySweep : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
zi::Mask random_mask(std::int64_t w, std::int64_t h, std::uint64_t seed,
                     double density) {
  zp::Rng rng(seed);
  zi::Mask m(w, h);
  for (auto& v : m.pixels()) v = rng.uniform() < density ? 1 : 0;
  return m;
}
}  // namespace

TEST_P(MorphologySweep, ErosionDilationDuality) {
  // erode(m) == not(dilate(not m)) for a symmetric structuring element —
  // but only away from the border, where our erode's outside-is-background
  // convention and the duality's outside-is-foreground view differ.
  const zi::Mask m = random_mask(32, 32, GetParam(), 0.5);
  const zi::Mask a = zc::erode(m, 2, zc::Element::kDisk);
  const zi::Mask b = zi::mask_not(zc::dilate(zi::mask_not(m), 2, zc::Element::kDisk));
  for (std::int64_t y = 2; y < 30; ++y) {
    for (std::int64_t x = 2; x < 30; ++x) {
      ASSERT_EQ(a.at(x, y), b.at(x, y)) << "at " << x << "," << y;
    }
  }
}

TEST_P(MorphologySweep, OpenCloseAreIdempotent) {
  const zi::Mask m = random_mask(32, 32, GetParam() + 77, 0.4);
  const zi::Mask o1 = zc::open(m, 1, zc::Element::kSquare);
  const zi::Mask o2 = zc::open(o1, 1, zc::Element::kSquare);
  EXPECT_DOUBLE_EQ(zi::mask_iou(o1, o2), 1.0);
  const zi::Mask c1 = zc::close(m, 1, zc::Element::kSquare);
  const zi::Mask c2 = zc::close(c1, 1, zc::Element::kSquare);
  EXPECT_DOUBLE_EQ(zi::mask_iou(c1, c2), 1.0);
}

TEST_P(MorphologySweep, OpeningShrinksClosingGrows) {
  const zi::Mask m = random_mask(32, 32, GetParam() + 991, 0.5);
  const zi::Mask o = zc::open(m, 1);
  const zi::Mask c = zc::close(m, 1);
  EXPECT_LE(zi::mask_area(o), zi::mask_area(m));
  // open(m) ⊆ m everywhere; m ⊆ close(m) away from the border (the
  // outside-is-background convention lets the closing's erosion step eat
  // foreground touching the image edge).
  EXPECT_EQ(zi::mask_area(zi::mask_and(o, m)), zi::mask_area(o));
  for (std::int64_t y = 1; y < 31; ++y) {
    for (std::int64_t x = 1; x < 31; ++x) {
      if (m.at(x, y) != 0) {
        ASSERT_EQ(c.at(x, y), 1) << x << "," << y;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MorphologySweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------ IoU/Dice invariants

// The dashboard numbers the pipeline refactors are judged against: if
// these invariants drift, every table in Mode C is suspect.
class MetricSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricSweep, IouDiceInvariantsOnRandomMasks) {
  const std::uint64_t seed = GetParam();
  zp::Rng densities(seed, 555);
  const zi::Mask a = random_mask(40, 40, seed + 101, 0.2 + 0.6 * densities.uniform());
  const zi::Mask b = random_mask(40, 40, seed + 202, 0.2 + 0.6 * densities.uniform());

  const ze::Metrics ab = ze::compute_metrics(a, b);
  const ze::Metrics ba = ze::compute_metrics(b, a);

  // Symmetry: IoU and Dice are symmetric in their arguments.
  EXPECT_DOUBLE_EQ(ab.iou, ba.iou);
  EXPECT_DOUBLE_EQ(ab.dice, ba.dice);

  // Range and ordering: 0 ≤ IoU ≤ Dice ≤ 1.
  EXPECT_GE(ab.iou, 0.0);
  EXPECT_LE(ab.iou, ab.dice);
  EXPECT_LE(ab.dice, 1.0);

  // Algebraic identity: Dice = 2·IoU / (1 + IoU) for set-based masks.
  EXPECT_NEAR(ab.dice, 2.0 * ab.iou / (1.0 + ab.iou), 1e-12);

  // Precision/recall swap under argument exchange.
  EXPECT_DOUBLE_EQ(ab.precision, ba.recall);
  EXPECT_DOUBLE_EQ(ab.recall, ba.precision);

  // Identity: a mask against itself scores perfectly.
  const ze::Metrics self = ze::compute_metrics(a, a);
  EXPECT_DOUBLE_EQ(self.iou, 1.0);
  EXPECT_DOUBLE_EQ(self.dice, 1.0);
  EXPECT_DOUBLE_EQ(self.accuracy, 1.0);
}

TEST_P(MetricSweep, DisjointAndDegenerateMasks) {
  const std::uint64_t seed = GetParam();
  // Disjoint halves: left-only vs right-only foreground.
  zi::Mask left(32, 32), right(32, 32);
  const zi::Mask noise = random_mask(32, 32, seed + 7, 0.5);
  for (std::int64_t y = 0; y < 32; ++y) {
    for (std::int64_t x = 0; x < 32; ++x) {
      if (noise.at(x, y) == 0) continue;
      (x < 16 ? left : right).at(x, y) = 1;
    }
  }
  if (zi::mask_area(left) == 0 || zi::mask_area(right) == 0) GTEST_SKIP();
  const ze::Metrics disjoint = ze::compute_metrics(left, right);
  EXPECT_DOUBLE_EQ(disjoint.iou, 0.0);
  EXPECT_DOUBLE_EQ(disjoint.dice, 0.0);

  // Documented conventions: empty-vs-empty is perfect agreement, exactly
  // one empty mask is total disagreement.
  const zi::Mask empty(32, 32);
  const ze::Metrics both_empty = ze::compute_metrics(empty, empty);
  EXPECT_DOUBLE_EQ(both_empty.iou, 1.0);
  EXPECT_DOUBLE_EQ(both_empty.dice, 1.0);
  const ze::Metrics one_empty = ze::compute_metrics(left, empty);
  EXPECT_DOUBLE_EQ(one_empty.iou, 0.0);
  EXPECT_DOUBLE_EQ(one_empty.dice, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u, 2026u));

// ----------------------------------------------------- distance bounds

class DistanceSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistanceSweep, ChamferApproximatesEuclidean) {
  const zi::Mask m = random_mask(24, 24, GetParam() + 31, 0.05);
  if (zi::mask_area(m) == 0) GTEST_SKIP();
  const zi::ImageF32 d = zc::distance_to_foreground(m);
  for (std::int64_t y = 0; y < 24; ++y) {
    for (std::int64_t x = 0; x < 24; ++x) {
      // Brute-force Euclidean distance.
      double best = 1e18;
      for (std::int64_t v = 0; v < 24; ++v) {
        for (std::int64_t u = 0; u < 24; ++u) {
          if (m.at(u, v) == 0) continue;
          const double dd = std::hypot(static_cast<double>(u - x),
                                       static_cast<double>(v - y));
          best = std::min(best, dd);
        }
      }
      // 3-4 chamfer error bound is ~8% of the true distance.
      ASSERT_NEAR(d.at(x, y), best, 0.09 * best + 0.34)
          << "at " << x << "," << y;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistanceSweep, ::testing::Values(1u, 7u, 13u));

// -------------------------------------------------------- Otsu contrast

class OtsuSweep : public ::testing::TestWithParam<double> {};  // contrast

TEST_P(OtsuSweep, FindsCutBetweenWellSeparatedModes) {
  const double contrast = GetParam();
  zp::Rng rng(3);
  zi::ImageF32 img(64, 64, 1);
  const float lo = 0.3f, hi = 0.3f + static_cast<float>(contrast);
  for (std::int64_t y = 0; y < 64; ++y) {
    for (std::int64_t x = 0; x < 64; ++x) {
      img.at(x, y) = (x < 32 ? lo : hi) + static_cast<float>(rng.normal(0.0, 0.02));
    }
  }
  const zc::ThresholdResult r = zc::otsu_threshold(img);
  EXPECT_GT(r.threshold, lo);
  EXPECT_LT(r.threshold, hi);
}

INSTANTIATE_TEST_SUITE_P(Contrasts, OtsuSweep,
                         ::testing::Values(0.15, 0.3, 0.5));

// ---------------------------------------------------- RNG stream sweep

class RngSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngSweep, UniformMomentsHoldAcrossStreams) {
  zp::Rng rng(2026, GetParam());
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
  EXPECT_NEAR(sum2 / kN - 0.25, 1.0 / 12.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Streams, RngSweep,
                         ::testing::Values(0u, 1u, 17u, 1000u, 99999u));

// -------------------------------------------------- readiness invariance

class ReadinessSweep : public ::testing::TestWithParam<int> {};  // bits

TEST_P(ReadinessSweep, NormalizationIsBitDepthInvariant) {
  const int bits = GetParam();
  zp::Rng rng(5);
  zi::ImageF32 scene(48, 48, 1);
  for (float& v : scene.pixels()) {
    v = 0.1f + 0.15f * static_cast<float>(rng.uniform());  // narrow sliver
  }
  const zi::ImageF32 ready8 =
      zi::make_ai_ready(zi::quantize(scene, 8));
  const zi::ImageF32 ready = zi::make_ai_ready(zi::quantize(scene, bits));
  // Same scene through different containers → nearly identical outputs
  // (bounded by 8-bit quantization of a 0.15-range signal).
  double max_diff = 0.0;
  for (std::size_t i = 0; i < ready.pixels().size(); ++i) {
    max_diff = std::max(max_diff, std::abs(static_cast<double>(
                                      ready.pixels()[i] - ready8.pixels()[i])));
  }
  EXPECT_LT(max_diff, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Bits, ReadinessSweep, ::testing::Values(8, 16, 32));
