// zen_net contract tests (ISSUE-9 acceptance list):
//   (a) the wire codec round-trips every frame shape and rejects malformed
//       framing without crashes or over-allocation,
//   (b) responses served over the wire are byte-identical to direct
//       SegmentService::submit calls (slice in every pixel format, and a
//       Mode-B volume_file request streamed from a real TIFF),
//   (c) trace ids flow from the client frame through obs spans and back,
//   (d) per-tenant weighted fairness and shed-before-QueueFull admission,
//   (e) wire counters surface in NetStats and reach the Mode-C dashboard
//       exactly once, as net_* keys.
// The fault-injection and fuzz suites live in test_net_faults.cpp and
// test_net_fuzz.cpp; the thousand-client soak in test_net_soak.cpp.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/tiff.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/obs/trace.hpp"
#include "zenesis/serve/service.hpp"

namespace zf = zenesis::fibsem;
namespace zi = zenesis::image;
namespace zn = zenesis::net;
namespace zo = zenesis::obs;
namespace zs = zenesis::serve;

using namespace std::chrono_literals;

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

void expect_masks_equal(const zi::Mask& a, const zi::Mask& b) {
  ASSERT_EQ(a.width(), b.width());
  ASSERT_EQ(a.height(), b.height());
  const auto pa = a.pixels();
  const auto pb = b.pixels();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i], pb[i]) << "pixel " << i;
  }
}

/// Feeds encoded bytes through a fresh decoder and returns the one frame.
zn::Frame decode_one(const std::vector<std::uint8_t>& bytes,
                     const zn::NetLimits& limits = {}) {
  zn::FrameDecoder decoder(limits);
  decoder.feed(bytes.data(), bytes.size());
  zn::Frame frame;
  EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kFrame);
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame;
}

}  // namespace

// (a) Codec round trips.
TEST(NetFrame, HelloCancelPingRoundTrip) {
  const zn::Frame hello = decode_one(zn::encode_hello(42, 7));
  EXPECT_EQ(hello.header.type,
            static_cast<std::uint16_t>(zn::FrameType::kHello));
  const auto parsed = zn::parse_hello(hello);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tenant, 42u);
  EXPECT_EQ(parsed->flags, 7u);

  const zn::Frame cancel = decode_one(zn::encode_cancel(1234));
  EXPECT_EQ(cancel.header.type,
            static_cast<std::uint16_t>(zn::FrameType::kCancel));
  EXPECT_EQ(cancel.header.request_id, 1234u);
  EXPECT_TRUE(cancel.payload.empty());

  const std::vector<std::uint8_t> blob = {1, 2, 3, 0xFF};
  const zn::Frame ping = decode_one(zn::encode_ping(blob));
  EXPECT_EQ(ping.payload, blob);
}

TEST(NetFrame, SliceRequestRoundTripsEveryPixelFormat) {
  zn::WireRequestOptions opts;
  opts.priority = -3;
  opts.deadline_ms = 2500;
  opts.trace_id = 0xCAFEF00Dull;

  const auto check = [&](zi::AnyImage img) {
    const zn::Frame frame =
        decode_one(zn::encode_slice_request(9, img, "porous carbon", opts));
    EXPECT_EQ(frame.header.request_id, 9u);
    const auto parsed = zn::parse_slice_request(frame, zn::NetLimits{});
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->prompt, "porous carbon");
    EXPECT_EQ(parsed->options.priority, -3);
    EXPECT_EQ(parsed->options.deadline_ms, 2500u);
    EXPECT_EQ(parsed->options.trace_id, 0xCAFEF00Dull);
    EXPECT_EQ(parsed->image.index(), img.index());
    std::visit(
        [&](const auto& got) {
          std::visit(
              [&](const auto& want) {
                ASSERT_EQ(got.width(), want.width());
                ASSERT_EQ(got.height(), want.height());
                ASSERT_EQ(got.channels(), want.channels());
                const auto gp = got.pixels();
                const auto wp = want.pixels();
                ASSERT_EQ(gp.size(), wp.size());
                for (std::size_t i = 0; i < gp.size(); ++i) {
                  ASSERT_EQ(std::memcmp(&gp[i], &wp[i], sizeof(gp[i])), 0);
                }
              },
              img);
        },
        parsed->image);
  };

  zi::ImageU8 u8(5, 4, 2);
  for (std::size_t i = 0; i < u8.pixels().size(); ++i) {
    u8.pixels()[i] = static_cast<std::uint8_t>(i * 7);
  }
  zi::ImageU16 u16(6, 3);
  for (std::size_t i = 0; i < u16.pixels().size(); ++i) {
    u16.pixels()[i] = static_cast<std::uint16_t>(i * 517);
  }
  zi::ImageU32 u32(3, 3);
  for (std::size_t i = 0; i < u32.pixels().size(); ++i) {
    u32.pixels()[i] = static_cast<std::uint32_t>(i * 100003);
  }
  zi::ImageF32 f32(4, 2);
  for (std::size_t i = 0; i < f32.pixels().size(); ++i) {
    f32.pixels()[i] = static_cast<float>(i) * 0.37f - 1.0f;
  }
  check(zi::AnyImage(u8));
  check(zi::AnyImage(u16));
  check(zi::AnyImage(u32));
  check(zi::AnyImage(f32));
}

TEST(NetFrame, VolumeFileRequestAndServerFramesRoundTrip) {
  zn::WireRequestOptions opts;
  opts.priority = 5;
  const zn::Frame req = decode_one(
      zn::encode_volume_file_request(77, "/tmp/stack.tif", kPrompt, opts));
  const auto parsed = zn::parse_volume_file_request(req, zn::NetLimits{});
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->path, "/tmp/stack.tif");
  EXPECT_EQ(parsed->prompt, kPrompt);
  EXPECT_EQ(parsed->options.priority, 5);

  zenesis::core::Error err;
  err.code = zenesis::core::ErrorCode::kQueueFull;
  err.stage = "net.admission";
  err.message = "tenant quota";
  const zn::Frame rej = decode_one(
      zn::encode_rejected(31, 0xAB, zn::WireReject::kTenantQuota, err));
  const auto rmsg = zn::parse_server_frame(rej, zn::NetLimits{});
  ASSERT_TRUE(rmsg.has_value());
  EXPECT_EQ(rmsg->type, zn::FrameType::kRejected);
  EXPECT_EQ(rmsg->request_id, 31u);
  EXPECT_EQ(rmsg->trace_id, 0xABu);
  EXPECT_EQ(rmsg->reject, zn::WireReject::kTenantQuota);
  EXPECT_EQ(rmsg->error.code, zenesis::core::ErrorCode::kQueueFull);
  EXPECT_EQ(rmsg->error.stage, "net.admission");
  EXPECT_EQ(rmsg->error.message, "tenant quota");

  const zn::Frame emsg_frame = decode_one(zn::encode_error(0, 0, err));
  const auto emsg = zn::parse_server_frame(emsg_frame, zn::NetLimits{});
  ASSERT_TRUE(emsg.has_value());
  EXPECT_EQ(emsg->type, zn::FrameType::kError);
  EXPECT_EQ(emsg->error.message, "tenant quota");
}

TEST(NetFrame, DecoderIsIncremental) {
  const std::vector<std::uint8_t> bytes = zn::encode_hello(3);
  zn::FrameDecoder decoder{zn::NetLimits{}};
  zn::Frame frame;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kNeedMore);
    decoder.feed(&bytes[i], 1);
  }
  EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kFrame);
  EXPECT_FALSE(decoder.mid_frame());
}

TEST(NetFrame, DecoderRejectsMalformedFraming) {
  const auto expect_error = [](std::vector<std::uint8_t> bytes,
                               zn::WireErrorKind kind) {
    zn::FrameDecoder decoder{zn::NetLimits{}};
    decoder.feed(bytes.data(), bytes.size());
    zn::Frame frame;
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kError);
    EXPECT_EQ(decoder.error_kind(), kind);
    // Errors latch: the stream is unframeable past a bad header.
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_EQ(decoder.next(frame), zn::FrameDecoder::Status::kError);
  };

  auto bad_magic = zn::encode_hello(1);
  bad_magic[0] ^= 0xFF;
  expect_error(std::move(bad_magic), zn::WireErrorKind::kBadMagic);

  auto bad_version = zn::encode_hello(1);
  bad_version[4] = 0x77;
  expect_error(std::move(bad_version), zn::WireErrorKind::kBadVersion);

  auto bad_type = zn::encode_hello(1);
  bad_type[6] = 0xEE;
  bad_type[7] = 0xEE;
  expect_error(std::move(bad_type), zn::WireErrorKind::kBadType);

  // payload_len = 0xFFFFFFFF must be rejected from the header alone,
  // before any buffering (the TiffReadLimits treatment).
  auto oversized = zn::encode_hello(1);
  oversized[16] = oversized[17] = oversized[18] = oversized[19] = 0xFF;
  expect_error(std::move(oversized), zn::WireErrorKind::kOversized);
}

// --- live server tests ---------------------------------------------------

TEST(Net, HelloAndPingPong) {
  zs::ServiceConfig scfg;
  zs::SegmentService service(scfg);
  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);

  ASSERT_TRUE(client.hello(42));
  EXPECT_TRUE(client.ping({0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_TRUE(client.ping({}));

  server.stop();
  const zn::NetStats stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// (b) Wire responses byte-identical to direct submits.
TEST(Net, SliceResponsesMatchDirectSubmit) {
  const auto s16 = make_slice(48, 21);
  zi::ImageU8 u8(32, 32);
  for (std::size_t i = 0; i < u8.pixels().size(); ++i) {
    u8.pixels()[i] = static_cast<std::uint8_t>((i * 13) % 251);
  }
  zi::ImageF32 f32(32, 32);
  for (std::size_t i = 0; i < f32.pixels().size(); ++i) {
    f32.pixels()[i] = static_cast<float>((i * 29) % 97) / 97.0f;
  }
  const std::vector<zi::AnyImage> images = {
      zi::AnyImage(s16.raw), zi::AnyImage(u8), zi::AnyImage(f32)};

  zs::SegmentService service;
  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));

  for (const zi::AnyImage& img : images) {
    const zs::Response want =
        service.submit(zs::Request::slice(img, kPrompt)).get();
    ASSERT_TRUE(want.ok());

    const std::uint64_t rid = client.submit_slice(img, kPrompt);
    ASSERT_NE(rid, 0u);
    const auto got = client.wait_for(rid);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->type, zn::FrameType::kResponse) << got->error.message;
    EXPECT_EQ(got->request_id, rid);
    expect_masks_equal(got->mask, want.slice->mask);
    EXPECT_EQ(got->box, want.slice->primary_box);
    EXPECT_EQ(got->confidence, want.slice->confidence);
    EXPECT_GT(got->total_us, 0.0);
  }
  server.stop();
}

TEST(Net, VolumeFileResponseMatchesDirectSubmit) {
  zf::SynthConfig vcfg;
  vcfg.type = zf::SampleType::kCrystalline;
  vcfg.width = 40;
  vcfg.height = 40;
  vcfg.depth = 3;
  vcfg.seed = 5;
  const zf::SyntheticVolume vol = zf::generate_volume(vcfg);
  const std::string path = "test_net_volume.tif";
  zenesis::io::write_volume_tiff(path, vol.volume);

  zs::SegmentService service;
  const zs::Response want =
      service.submit(zs::Request::volume_file(path, kPrompt)).get();
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(want.volume.has_value());

  zn::Server server(service);
  auto [client, server_fd] = zn::Client::loopback_pair();
  server.adopt(server_fd);
  ASSERT_TRUE(client.hello(1));
  const std::uint64_t rid = client.submit_volume_file(path, kPrompt);
  ASSERT_NE(rid, 0u);
  const auto got = client.wait_for(rid, 60000ms);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->type, zn::FrameType::kResponse) << got->error.message;
  const std::vector<zi::Mask> want_masks = want.volume->masks();
  ASSERT_EQ(got->volume_masks.size(), want_masks.size());
  for (std::size_t z = 0; z < got->volume_masks.size(); ++z) {
    expect_masks_equal(got->volume_masks[z], want_masks[z]);
  }
  EXPECT_EQ(got->replaced_count, want.volume->replaced_count);
  server.stop();
  std::remove(path.c_str());
}

// (c) Trace ids flow wire → obs spans → terminal frame.
TEST(Net, TraceIdPropagatesThroughSpans) {
  zo::set_enabled(true);
  zo::TraceCollector::global().clear();
  const std::uint64_t kTraceId = 0x5EEDF00Dull;

  {
    zs::SegmentService service;
    zn::Server server(service);
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    ASSERT_TRUE(client.hello(9));
    zn::WireRequestOptions opts;
    opts.trace_id = kTraceId;
    const std::uint64_t rid =
        client.submit_slice(zi::AnyImage(make_slice(32, 3).raw), kPrompt, opts);
    const auto got = client.wait_for(rid);
    ASSERT_TRUE(got.has_value());
    ASSERT_EQ(got->type, zn::FrameType::kResponse);
    EXPECT_EQ(got->trace_id, kTraceId);  // client-chosen id echoed back
    server.stop();
  }

  // The wire-level span and the service's spans carry the same id — the
  // whole request stitches into one trace.
  bool saw_net_request = false;
  bool saw_service_span = false;
  for (const zo::SpanEvent& ev : zo::TraceCollector::global().snapshot()) {
    if (ev.trace_id != kTraceId) continue;
    const std::string name = ev.name;
    if (name == "net.request") saw_net_request = true;
    if (name.rfind("serve.", 0) == 0 || name == "net.submit") {
      saw_service_span = true;
    }
  }
  zo::set_enabled(false);
  EXPECT_TRUE(saw_net_request);
  EXPECT_TRUE(saw_service_span);
}

// (d) Weighted round-robin fairness across tenants.
TEST(Net, WeightedFairnessUnderSaturation) {
  zs::ServiceConfig scfg;
  zs::SegmentService service(scfg);
  zn::ServerConfig ncfg;
  ncfg.tenants[1] = {1, 256};  // weight 1
  ncfg.tenants[2] = {3, 256};  // weight 3
  zn::Server server(service, ncfg);
  server.pause_bridge();

  auto [c1, fd1] = zn::Client::loopback_pair();
  auto [c2, fd2] = zn::Client::loopback_pair();
  server.adopt(fd1);
  server.adopt(fd2);
  ASSERT_TRUE(c1.hello(1));
  ASSERT_TRUE(c2.hello(2));

  const auto img = zi::AnyImage(make_slice(24, 8).raw);
  std::vector<std::uint64_t> rids1, rids2;
  for (int i = 0; i < 8; ++i) rids1.push_back(c1.submit_slice(img, kPrompt));
  for (int i = 0; i < 8; ++i) rids2.push_back(c2.submit_slice(img, kPrompt));
  // All 16 must be net-queued before the bridge runs: fairness is then a
  // pure function of the WRR policy, not arrival timing.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.backlog() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.backlog(), 16u);
  server.resume_bridge();

  for (const std::uint64_t rid : rids1) {
    const auto r = c1.wait_for(rid);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }
  for (const std::uint64_t rid : rids2) {
    const auto r = c2.wait_for(rid);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }

  const zn::NetStats stats = server.stats();
  ASSERT_GE(stats.submission_log.size(), 8u);
  // While both queues are saturated, every window of 4 submissions is
  // 1× tenant-1 + 3× tenant-2 (weights 1:3), starting with tenant 1.
  int t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    if (stats.submission_log[i] == 1) ++t1;
    if (stats.submission_log[i] == 2) ++t2;
  }
  EXPECT_EQ(t1, 2);
  EXPECT_EQ(t2, 6);
  EXPECT_EQ(stats.submission_log[0], 1u);  // rotation starts at tenant 1
  ASSERT_NE(stats.tenants.count(1), 0u);
  ASSERT_NE(stats.tenants.count(2), 0u);
  EXPECT_EQ(stats.tenants.at(1).completed, 8u);
  EXPECT_EQ(stats.tenants.at(2).completed, 8u);
  server.stop();
}

// (d) Load shedding happens at net admission, never as service QueueFull.
TEST(Net, ShedsBeforeServiceSeesQueueFull) {
  zs::ServiceConfig scfg;
  zs::SegmentService service(scfg);
  zn::ServerConfig ncfg;
  ncfg.tenants[1] = {1, 2};  // quota: 2 queued requests
  ncfg.shed_backlog = 3;     // global cap across tenants
  zn::Server server(service, ncfg);
  server.pause_bridge();

  auto [c1, fd1] = zn::Client::loopback_pair();
  auto [c2, fd2] = zn::Client::loopback_pair();
  server.adopt(fd1);
  server.adopt(fd2);
  ASSERT_TRUE(c1.hello(1));
  ASSERT_TRUE(c2.hello(2));
  const auto img = zi::AnyImage(make_slice(24, 4).raw);

  // Tenant 1 fills its quota of 2, then sheds with TenantQuota.
  const std::uint64_t a = c1.submit_slice(img, kPrompt);
  const std::uint64_t b = c1.submit_slice(img, kPrompt);
  const std::uint64_t over_quota = c1.submit_slice(img, kPrompt);
  const auto rq = c1.wait_for(over_quota);
  ASSERT_TRUE(rq.has_value());
  EXPECT_EQ(rq->type, zn::FrameType::kRejected);
  EXPECT_EQ(rq->reject, zn::WireReject::kTenantQuota);

  // Tenant 2 pushes the global backlog to shed_backlog, then sheds with
  // Overloaded.
  const std::uint64_t c = c2.submit_slice(img, kPrompt);
  const std::uint64_t overload = c2.submit_slice(img, kPrompt);
  const auto ro = c2.wait_for(overload);
  ASSERT_TRUE(ro.has_value());
  EXPECT_EQ(ro->type, zn::FrameType::kRejected);
  EXPECT_EQ(ro->reject, zn::WireReject::kOverloaded);

  server.resume_bridge();
  for (const std::uint64_t rid : {a, b}) {
    const auto r = c1.wait_for(rid);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }
  {
    const auto r = c2.wait_for(c);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }
  server.stop();

  const zn::NetStats nstats = server.stats();
  EXPECT_EQ(nstats.shed_tenant_quota, 1u);
  EXPECT_EQ(nstats.shed_overloaded, 1u);
  const zs::ServiceStats sstats = service.stats();
  // The whole point of net-level admission: the service's QueueFull
  // backstop never fires for wire traffic.
  EXPECT_EQ(sstats.rejected_queue_full, 0u);
}

// (e) Counters: NetStats and the dashboard's net_* keys. Every protocol
// error the event loop counts reaches the dashboard once — including the
// zero/duplicate request id and oversized ping paths — and no serve_*
// shadow of the wire counters is published next to it.
TEST(Net, StatsFlowIntoDashboardOnce) {
  zs::SegmentService service;
  zn::Server server(service, {});
  server.pause_bridge();  // keeps request 7 pending for the dup

  {
    auto [client, server_fd] = zn::Client::loopback_pair();
    server.adopt(server_fd);
    ASSERT_TRUE(client.hello(4));
    const zi::AnyImage img(make_slice(24, 2).raw);

    ASSERT_TRUE(client.send_bytes(zn::encode_slice_request(0, img, kPrompt, {})));
    const auto zero_id = client.recv();
    ASSERT_TRUE(zero_id.has_value());
    EXPECT_EQ(zero_id->type, zn::FrameType::kError);

    ASSERT_TRUE(client.send_bytes(zn::encode_ping(
        std::vector<std::uint8_t>(zn::NetLimits{}.max_ping_bytes + 1, 0xAB))));
    const auto big_ping = client.recv();
    ASSERT_TRUE(big_ping.has_value());
    EXPECT_EQ(big_ping->type, zn::FrameType::kError);

    ASSERT_EQ(client.submit_slice(img, kPrompt, {}, 7), 7u);
    ASSERT_EQ(client.submit_slice(img, kPrompt, {}, 7), 7u);
    const auto dup = client.wait_for(7);
    ASSERT_TRUE(dup.has_value());
    EXPECT_EQ(dup->type, zn::FrameType::kError);

    server.resume_bridge();
    const auto r = client.wait_for(7);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->type, zn::FrameType::kResponse);
  }  // client destructor closes the connection

  // Wait until the event loop notices the disconnect.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (server.stats().connections_active > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }

  zenesis::eval::Dashboard dashboard;
  service.publish_stats(dashboard);
  server.publish_stats(dashboard);
  const zn::NetStats live = server.stats();
  EXPECT_EQ(live.connections_active, 0u);
  EXPECT_EQ(live.protocol_errors, 3u);  // zero id, oversized ping, dup id
  const auto& published = dashboard.stats();
  ASSERT_NE(published.count("net_connections_accepted"), 0u);
  EXPECT_EQ(published.at("net_connections_accepted"), 1.0);
  ASSERT_NE(published.count("net_responses_sent"), 0u);
  EXPECT_EQ(published.at("net_responses_sent"), 1.0);
  ASSERT_NE(published.count("net_protocol_errors"), 0u);
  EXPECT_EQ(published.at("net_protocol_errors"),
            static_cast<double>(live.protocol_errors));
  ASSERT_NE(published.count("net_wire_us_p50"), 0u);
  for (const char* shadow :
       {"serve_connections_accepted", "serve_connections_active",
        "serve_requests_shed", "serve_protocol_errors"}) {
    EXPECT_EQ(published.count(shadow), 0u) << shadow;
  }

  server.stop();
  const zn::NetStats nstats = server.stats();
  EXPECT_EQ(nstats.requests_received, 1u);
  EXPECT_EQ(nstats.responses_sent, 1u);
  EXPECT_EQ(nstats.errors_sent, 3u);
  // hello + zero-id slice + ping + slice + duplicate slice
  EXPECT_EQ(nstats.frames_in, 5u);
  EXPECT_GE(nstats.bytes_in, 5u * zn::kHeaderBytes);
}

TEST(Net, ConfigValidationSurfacesEveryIssue) {
  zn::ServerConfig cfg;
  cfg.max_connections = 0;
  cfg.shed_backlog = 0;
  cfg.partial_frame_timeout = std::chrono::milliseconds(0);
  cfg.tenants[3] = {0, 0};
  const auto issues = cfg.validate();
  EXPECT_GE(issues.size(), 4u);
  zs::SegmentService service;
  EXPECT_THROW(zn::Server(service, cfg), std::invalid_argument);
}

TEST(Net, TcpListenerServesClients) {
  zs::SegmentService service;
  zn::Server server(service);
  std::uint16_t port = 0;
  try {
    port = server.listen_tcp(0);
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "loopback TCP unavailable in this environment";
  }
  ASSERT_NE(port, 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  zn::Client client(fd);
  ASSERT_TRUE(client.hello(11));
  const std::uint64_t rid =
      client.submit_slice(zi::AnyImage(make_slice(24, 6).raw), kPrompt);
  const auto r = client.wait_for(rid);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, zn::FrameType::kResponse);
  server.stop();
}
