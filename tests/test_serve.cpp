// SegmentService contract tests (the ISSUE-2 acceptance list):
//   (a) responses are byte-identical to the equivalent blocking
//       ZenesisPipeline call for every batch size / fan-out width,
//   (b) a full queue rejects immediately instead of blocking or dropping,
//   (c) expired deadlines complete with DeadlineExpired without running
//       the pipeline,
//   (d) shutdown drains admitted requests and rejects new ones.
// Plus cancellation, priority ordering, stats/dashboard publication, and
// config validation surfacing. Run under TSAN and ASAN via tools/ci.sh.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/core/session.hpp"
#include "zenesis/fibsem/synth.hpp"
#include "zenesis/serve/service.hpp"
#include "zenesis/tensor/kernels.hpp"
#include "zenesis/tensor/quant.hpp"

namespace zc = zenesis::core;
namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zs = zenesis::serve;

namespace {

constexpr const char* kPrompt = "bright needle-like crystalline catalyst";

zf::SyntheticSlice make_slice(std::int64_t size, std::uint64_t seed) {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = size;
  cfg.height = size;
  cfg.seed = seed;
  return zf::generate_slice(cfg, 0);
}

zf::SyntheticVolume make_volume() {
  zf::SynthConfig cfg;
  cfg.type = zf::SampleType::kCrystalline;
  cfg.width = 64;
  cfg.height = 64;
  cfg.depth = 4;
  cfg.seed = 99;
  return zf::generate_volume(cfg);
}

void expect_masks_equal(const zi::Mask& a, const zi::Mask& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "pixel " << i;
  }
}

}  // namespace

// (a) Byte-identical to blocking calls for every batch size / fan-out.
TEST(Serve, SliceResponsesMatchBlockingPipeline) {
  // A small request mix with repeats — repeats are exactly the
  // cache-amortized traffic the micro-batcher targets.
  std::vector<zf::SyntheticSlice> slices;
  for (std::uint64_t s : {11u, 22u, 33u}) slices.push_back(make_slice(64, s));
  const std::vector<std::size_t> traffic = {0, 1, 0, 2, 1, 0, 2, 2};

  const zc::ZenesisPipeline reference;
  std::vector<zc::SliceResult> expected;
  for (const std::size_t idx : traffic) {
    expected.push_back(
        reference.segment(zi::AnyImage(slices[idx].raw), kPrompt));
  }

  for (const std::size_t max_batch : {std::size_t{1}, std::size_t{4}}) {
    for (const std::size_t fanout : {std::size_t{1}, std::size_t{4}}) {
      zs::ServiceConfig cfg;
      cfg.max_batch = max_batch;
      cfg.fanout_threads = fanout;
      zs::SegmentService service(cfg);
      service.pause();  // admit everything, then one resume —
                        // exercises real micro-batch grouping
      std::vector<std::future<zs::Response>> futures;
      for (const std::size_t idx : traffic) {
        futures.push_back(service.submit(
            zs::Request::slice(zi::AnyImage(slices[idx].raw), kPrompt)));
      }
      service.resume();
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const zs::Response r = futures[i].get();
        ASSERT_TRUE(r.ok()) << "batch=" << max_batch << " fanout=" << fanout
                            << " err=" << r.error;
        ASSERT_TRUE(r.slice.has_value());
        expect_masks_equal(r.slice->mask, expected[i].mask);
        EXPECT_EQ(r.slice->primary_box, expected[i].primary_box);
        EXPECT_EQ(r.slice->confidence, expected[i].confidence);
      }
      const zs::ServiceStats st = service.stats();
      EXPECT_EQ(st.completed, traffic.size());
      EXPECT_EQ(st.admitted, traffic.size());
      if (max_batch > 1) {
        EXPECT_LT(st.batches, traffic.size());
      }
    }
  }
}

TEST(Serve, BoxMultiAndVolumeMatchBlockingPipeline) {
  const auto s = make_slice(64, 7);
  const auto vol = make_volume();
  const zc::ZenesisPipeline reference;

  zs::SegmentService service;
  auto f_box = service.submit(zs::Request::boxed(
      zi::AnyImage(s.raw), {8, 8, 48, 40}, zc::BoxPromptOptions{kPrompt, {}}));
  auto f_multi = service.submit(zs::Request::multi_object(
      zi::AnyImage(s.raw), {kPrompt, "dark holder"}));
  auto f_vol = service.submit(zs::Request::volume_batch(vol.volume, kPrompt));

  const zc::SliceResult want_box = reference.segment_with_box(
      reference.make_ready(zi::AnyImage(s.raw)), {8, 8, 48, 40},
      zc::BoxPromptOptions{kPrompt, {}});
  const auto want_multi =
      reference.segment_multi(zi::AnyImage(s.raw), {kPrompt, "dark holder"});
  const zc::VolumeResult want_vol =
      reference.segment_volume(zc::VolumeRequest::view(vol.volume, kPrompt));

  const zs::Response r_box = f_box.get();
  ASSERT_TRUE(r_box.ok());
  expect_masks_equal(r_box.slice->mask, want_box.mask);

  const zs::Response r_multi = f_multi.get();
  ASSERT_TRUE(r_multi.ok());
  ASSERT_TRUE(r_multi.multi.has_value());
  const auto& got_labels = r_multi.multi->labels;
  for (std::int64_t y = 0; y < got_labels.height(); ++y) {
    for (std::int64_t x = 0; x < got_labels.width(); ++x) {
      ASSERT_EQ(got_labels.at(x, y), want_multi.labels.at(x, y));
    }
  }

  const zs::Response r_vol = f_vol.get();
  ASSERT_TRUE(r_vol.ok());
  ASSERT_TRUE(r_vol.volume.has_value());
  ASSERT_EQ(r_vol.volume->slices.size(), want_vol.slices.size());
  for (std::size_t z = 0; z < want_vol.slices.size(); ++z) {
    expect_masks_equal(r_vol.volume->slices[z].mask, want_vol.slices[z].mask);
  }
  EXPECT_EQ(r_vol.volume->replaced_count, want_vol.replaced_count);
}

// (b) Bounded admission: a full queue rejects, nothing blocks or drops.
TEST(Serve, FullQueueRejectsInsteadOfBlocking) {
  const auto s = make_slice(48, 5);
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 3;
  zs::SegmentService service(cfg);
  service.pause();

  std::vector<std::future<zs::Response>> admitted;
  for (int i = 0; i < 3; ++i) {
    admitted.push_back(
        service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)));
  }
  EXPECT_EQ(service.queue_depth(), 3u);

  auto overflow =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  ASSERT_EQ(overflow.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // rejected immediately, no block
  const zs::Response r = overflow.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kQueueFull);

  service.resume();
  for (auto& f : admitted) EXPECT_TRUE(f.get().ok());  // nothing dropped
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.admitted, 3u);
  EXPECT_EQ(st.completed, 3u);
  EXPECT_EQ(st.queue_depth_high_water, 3u);
}

// (c) Expired deadlines never reach the pipeline.
TEST(Serve, ExpiredDeadlineCompletesWithoutRunningPipeline) {
  const auto s = make_slice(48, 6);
  zs::SegmentService service;
  service.pause();

  // Already expired at submit.
  auto pre = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt)
          .with_deadline(zs::Clock::now() - std::chrono::milliseconds(1)));
  EXPECT_EQ(pre.get().reject, zs::RejectReason::kDeadlineExpired);

  // Expires while queued (dispatch paused past the deadline).
  auto queued = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt)
          .with_deadline_in(std::chrono::milliseconds(20)));
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  service.resume();
  const zs::Response r = queued.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kDeadlineExpired);

  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.expired, 2u);
  EXPECT_EQ(st.completed, 0u);
  EXPECT_EQ(st.decode_us.count(), 0u);  // the pipeline never ran
}

// (d) Shutdown drains admitted work, then rejects.
TEST(Serve, ShutdownDrainsInFlightAndRejectsNew) {
  const auto s = make_slice(48, 8);
  zs::SegmentService service;
  service.pause();

  std::vector<std::future<zs::Response>> admitted;
  for (int i = 0; i < 4; ++i) {
    admitted.push_back(
        service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)));
  }
  service.shutdown();  // overrides pause; must drain all four

  for (auto& f : admitted) {
    const zs::Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error;
  }
  auto late = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  const zs::Response r = late.get();
  EXPECT_EQ(r.status, zs::Response::Status::kRejected);
  EXPECT_EQ(r.reject, zs::RejectReason::kShuttingDown);
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.rejected_shutting_down, 1u);
  service.shutdown();  // idempotent
}

TEST(Serve, CancelTokenRejectsBeforeDispatch) {
  const auto s = make_slice(48, 9);
  zs::SegmentService service;
  service.pause();

  auto token = std::make_shared<zs::CancelToken>();
  auto cancelled = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_cancel(token));
  auto kept =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  token->cancel();
  service.resume();

  EXPECT_EQ(cancelled.get().reject, zs::RejectReason::kCancelled);
  EXPECT_TRUE(kept.get().ok());
  EXPECT_EQ(service.stats().cancelled, 1u);
}

TEST(Serve, PriorityJumpsTheQueue) {
  const auto s = make_slice(48, 10);
  zs::ServiceConfig cfg;
  cfg.max_batch = 1;  // dispatch one at a time → completion order observable
  zs::SegmentService service(cfg);
  service.pause();

  auto low = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  auto high = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_priority(5));
  service.resume();
  const zs::Response r_high = high.get();
  const zs::Response r_low = low.get();
  ASSERT_TRUE(r_high.ok());
  ASSERT_TRUE(r_low.ok());
  // The urgent request dispatched first: it spent less time queued.
  EXPECT_LT(r_high.total_us, r_low.total_us);
}

TEST(Serve, PublishesStatsIntoSessionDashboard) {
  const auto s = make_slice(48, 11);
  zc::Session session;
  zs::SegmentService service;

  service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)).get();
  const auto result = session.mode_a_segment(zi::AnyImage(s.raw), kPrompt);
  session.mode_c_evaluate("synthetic", "zenesis", 0, result.mask,
                          s.ground_truth);
  service.publish_stats(session.dashboard());
  const auto& stats = session.dashboard().stats();
  ASSERT_TRUE(stats.count("serve_completed"));
  EXPECT_EQ(stats.at("serve_completed"), 1.0);
  ASSERT_TRUE(stats.count("serve_total_us_p50"));
  EXPECT_GT(stats.at("serve_total_us_p50"), 0.0);
  ASSERT_TRUE(stats.count("feature_cache_hits"));
  // Backend and precision are process-wide; publish_stats names the
  // active ones as one-hot keys.
  EXPECT_EQ(stats.at(std::string("serve_kernel_backend_") +
                     zenesis::tensor::backend_name()),
            1.0);
  EXPECT_EQ(stats.at(std::string("serve_precision_") +
                     zenesis::tensor::quant::precision_name()),
            1.0);

  // A later evaluation refreshes the session's own counters and leaves
  // the published serve_* values in place.
  session.mode_c_evaluate("synthetic", "zenesis", 1, result.mask,
                          s.ground_truth);
  EXPECT_EQ(stats.at("serve_completed"), 1.0);
}

// Regression: a malformed request inside a micro-batch fails with kError
// instead of throwing through the fan-out and terminating the dispatcher;
// healthy requests in the same batch are unaffected.
TEST(Serve, MalformedSliceRequestFailsWithoutKillingTheBatch) {
  const auto s = make_slice(48, 14);
  zs::ServiceConfig cfg;
  cfg.max_batch = 4;
  zs::SegmentService service(cfg);
  service.pause();  // both requests join one micro-batch

  auto bad = service.submit(zs::Request::slice(zi::AnyImage(), kPrompt));
  auto good = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  service.resume();

  const zs::Response rb = bad.get();
  EXPECT_EQ(rb.status, zs::Response::Status::kError);
  EXPECT_FALSE(rb.error.ok());
  EXPECT_FALSE(rb.error.message.empty());
  EXPECT_EQ(rb.error.stage, "serve.readiness");
  const zs::Response rg = good.get();
  EXPECT_TRUE(rg.ok()) << rg.error;

  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.failed, 1u);
  EXPECT_EQ(st.completed, 1u);

  // The dispatcher survived: the service still serves.
  EXPECT_TRUE(service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt))
                  .get()
                  .ok());
}

// Regression: cancelling queued work frees its queue slot — a full queue
// purges cancelled entries at admission instead of rejecting QueueFull.
TEST(Serve, CancellationRelievesQueueFullBackpressure) {
  const auto s = make_slice(48, 15);
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 2;
  zs::SegmentService service(cfg);
  service.pause();

  auto token = std::make_shared<zs::CancelToken>();
  auto doomed = service.submit(
      zs::Request::slice(zi::AnyImage(s.raw), kPrompt).with_cancel(token));
  auto kept = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));

  // Queue full, nothing cancelled yet: still an explicit rejection.
  const zs::Response full =
      service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt)).get();
  EXPECT_EQ(full.reject, zs::RejectReason::kQueueFull);

  token->cancel();
  // Admission purges the cancelled entry, so this submission is admitted
  // even though dispatch is still paused.
  auto after = service.submit(zs::Request::slice(zi::AnyImage(s.raw), kPrompt));
  EXPECT_EQ(doomed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(doomed.get().reject, zs::RejectReason::kCancelled);

  service.resume();
  EXPECT_TRUE(kept.get().ok());
  EXPECT_TRUE(after.get().ok());
  const zs::ServiceStats st = service.stats();
  EXPECT_EQ(st.rejected_queue_full, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed, 2u);
}

TEST(Serve, InvalidConfigSurfacesEveryMessage) {
  zs::ServiceConfig cfg;
  cfg.queue_capacity = 0;
  cfg.pipeline.max_boxes = 0;
  cfg.pipeline.heuristic.window = 0;
  const auto issues = cfg.validate();
  EXPECT_EQ(issues.size(), 3u);
  try {
    zs::SegmentService service(cfg);
    FAIL() << "construction must throw";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("queue_capacity"), std::string::npos);
    EXPECT_NE(msg.find("max_boxes"), std::string::npos);
    EXPECT_NE(msg.find("heuristic.window"), std::string::npos);
  }
}

TEST(ServeHistogram, PercentilesTrackSamples) {
  zenesis::serve::Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.mean(), 500.5, 1e-9);
  // Geometric buckets (ratio 1.25) bound relative error to ~25%.
  EXPECT_NEAR(h.percentile(50.0), 500.0, 135.0);
  EXPECT_NEAR(h.percentile(95.0), 950.0, 240.0);
  EXPECT_NEAR(h.percentile(99.0), 990.0, 250.0);
  EXPECT_LE(h.percentile(100.0), 1000.0 + 1e-9);
}
