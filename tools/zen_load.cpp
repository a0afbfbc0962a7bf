// zen_load — wire-level load generator and latency report for zen_net.
//
// Spins up an in-process SegmentService + net::Server, connects N
// loopback clients spread across T tenants, pumps R requests per client
// (repeating a small synthetic image pool, so the cache-hot path
// dominates exactly like steady-state traffic), then prints the wire and
// service latency distributions as a JSON report on stdout:
//
//   zen_load [--clients N] [--requests R] [--tenants T] [--size PX]
//
// Defaults: 200 clients x 4 requests, 8 tenants, 24x24 slices. The soak
// *test* (tests/test_net_soak.cpp) asserts correctness (byte-identity,
// zero sheds); this tool drives the same topology and reports the
// numbers. End-to-end benchmark records come from zbench.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "zenesis/fibsem/synth.hpp"
#include "zenesis/io/report.hpp"
#include "zenesis/net/client.hpp"
#include "zenesis/net/server.hpp"
#include "zenesis/serve/service.hpp"

using namespace zenesis;
using namespace std::chrono_literals;

namespace {

struct Options {
  std::size_t clients = 200;
  std::size_t requests = 4;   ///< per client
  std::uint32_t tenants = 8;
  std::int64_t size = 24;     ///< slice edge length in pixels
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--clients N] [--requests R] [--tenants T] "
               "[--size PX]\n",
               argv0);
  return 2;
}

std::vector<image::AnyImage> make_pool(std::int64_t size) {
  std::vector<image::AnyImage> pool;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    fibsem::SynthConfig cfg;
    cfg.type = fibsem::SampleType::kCrystalline;
    cfg.width = size;
    cfg.height = size;
    cfg.seed = seed;
    pool.emplace_back(fibsem::generate_slice(cfg, 0).raw);
  }
  return pool;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--clients") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.clients = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--requests") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.requests = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--tenants") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.tenants = static_cast<std::uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--size") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      opt.size = std::strtoll(v, nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (opt.clients == 0 || opt.requests == 0 || opt.tenants == 0 ||
      opt.size < 8) {
    return usage(argv[0]);
  }

  serve::SegmentService service;
  net::ServerConfig cfg;
  cfg.default_tenant = {1, 1u << 20};
  for (std::uint32_t t = 0; t < opt.tenants; ++t) {
    cfg.tenants[t + 1] = {1 + t % 3, 1u << 20};
  }
  cfg.shed_backlog = 1u << 20;
  cfg.max_connections = opt.clients + 16;
  net::Server server(service, cfg);

  const std::vector<image::AnyImage> pool = make_pool(opt.size);
  const std::string prompt = "bright needle-like crystalline catalyst";

  std::vector<net::Client> clients;
  clients.reserve(opt.clients);
  for (std::size_t i = 0; i < opt.clients; ++i) {
    auto [client, server_fd] = net::Client::loopback_pair();
    server.adopt(server_fd);
    clients.push_back(std::move(client));
  }
  for (std::size_t i = 0; i < opt.clients; ++i) {
    if (!clients[i].hello(static_cast<std::uint32_t>(i % opt.tenants) + 1)) {
      std::fprintf(stderr, "zen_load: hello failed for client %zu\n", i);
      return 1;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<std::uint64_t>> rids(opt.clients);
  for (std::size_t r = 0; r < opt.requests; ++r) {
    for (std::size_t i = 0; i < opt.clients; ++i) {
      net::WireRequestOptions wopts;
      wopts.priority = static_cast<std::int32_t>(i % 5) - 2;
      const std::uint64_t rid = clients[i].submit_slice(
          pool[(i + r) % pool.size()], prompt, wopts);
      if (rid == 0) {
        std::fprintf(stderr, "zen_load: submit failed for client %zu\n", i);
        return 1;
      }
      rids[i].push_back(rid);
    }
  }

  serve::Histogram total_us;  ///< service-side per-request total
  std::uint64_t ok = 0, rejected = 0, errors = 0;
  for (std::size_t i = 0; i < opt.clients; ++i) {
    for (const std::uint64_t rid : rids[i]) {
      const auto resp = clients[i].wait_for(rid, 600000ms);
      if (!resp) {
        std::fprintf(stderr, "zen_load: client %zu request %llu timed out\n",
                     i, static_cast<unsigned long long>(rid));
        return 1;
      }
      switch (resp->type) {
        case net::FrameType::kResponse:
          ok += 1;
          total_us.record(resp->total_us);
          break;
        case net::FrameType::kRejected: rejected += 1; break;
        default: errors += 1; break;
      }
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s =
      std::chrono::duration<double>(t1 - t0).count();
  const std::uint64_t total = ok + rejected + errors;

  const net::NetStats ns = server.stats();
  clients.clear();
  server.stop();

  io::JsonObject rec;
  rec.set("bench", std::string("net_load"));
  rec.set("clients", static_cast<std::int64_t>(opt.clients));
  rec.set("requests_per_client", static_cast<std::int64_t>(opt.requests));
  rec.set("tenants", static_cast<std::int64_t>(opt.tenants));
  rec.set("slice_px", static_cast<std::int64_t>(opt.size));
  rec.set("requests_total", static_cast<std::int64_t>(total));
  rec.set("responses_ok", static_cast<std::int64_t>(ok));
  rec.set("responses_rejected", static_cast<std::int64_t>(rejected));
  rec.set("responses_error", static_cast<std::int64_t>(errors));
  rec.set("wall_s", wall_s);
  rec.set("requests_per_sec",
          wall_s > 0.0 ? static_cast<double>(total) / wall_s : 0.0);
  rec.set("wire_us_p50", ns.wire_us.percentile(50));
  rec.set("wire_us_p95", ns.wire_us.percentile(95));
  rec.set("wire_us_p99", ns.wire_us.percentile(99));
  rec.set("wire_us_mean", ns.wire_us.mean());
  rec.set("wire_us_max", ns.wire_us.max());
  rec.set("total_us_p50", total_us.percentile(50));
  rec.set("total_us_p95", total_us.percentile(95));
  rec.set("total_us_p99", total_us.percentile(99));
  rec.set("shed_tenant_quota", static_cast<std::int64_t>(ns.shed_tenant_quota));
  rec.set("shed_overloaded", static_cast<std::int64_t>(ns.shed_overloaded));
  rec.set("protocol_errors", static_cast<std::int64_t>(ns.protocol_errors));
  rec.set("bytes_in", static_cast<std::int64_t>(ns.bytes_in));
  rec.set("bytes_out", static_cast<std::int64_t>(ns.bytes_out));

  std::printf("%s\n", rec.to_string(2).c_str());
  std::printf("zen_load: %llu requests, %.1f req/s\n",
              static_cast<unsigned long long>(total),
              total > 0 && wall_s > 0 ? static_cast<double>(total) / wall_s
                                      : 0.0);
  return 0;
}
