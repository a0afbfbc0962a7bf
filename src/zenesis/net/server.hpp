#pragma once
// zenesis::net::Server (zen_net) — the poll() event-loop wire front end
// in front of serve::SegmentService. This is the layer that turns the
// ROADMAP's "millions of users" north star into a testable claim: many
// concurrent connections speaking the compact binary protocol in
// frame.hpp, mapped onto serve::Request with per-tenant fairness and
// explicit load shedding layered on top of the service's own admission.
//
// Threading model (three roles, two threads):
//
//   event loop ── poll() over {listen fd, wake pipe, every connection}.
//     Reads bytes, runs the incremental FrameDecoder, handles protocol
//     frames (hello/ping/cancel) inline, and admits request frames into
//     per-tenant queues. Owns every fd: only this thread reads, writes,
//     or closes sockets.
//
//   bridge ── drains the tenant queues in weighted round-robin order
//     (each visit submits up to `weight` requests of the chosen tenant,
//     so under saturation tenant throughput is proportional to weight),
//     throttled so at most the service's `queue_capacity` requests are
//     inside it at once — the service's QueueFull backstop is therefore
//     never hit by wire traffic; shedding happened earlier, at net
//     admission, with a structured Rejected frame. The same thread reaps
//     completed futures, encodes terminal frames, and hands them to the
//     event loop through the connection outboxes + wake pipe.
//
// Admission ladder for a request frame (first failure wins):
//   1. decoder/frame errors            → Error frame, connection drains
//   2. no Hello (always required)      → Error frame, connection drains
//      rid 0 / duplicate request id    → Error frame (connection keeps going)
//   3. server draining                 → Rejected{ShuttingDown}
//   4. global backlog ≥ shed_backlog   → Rejected{Overloaded}
//   5. tenant queue ≥ tenant quota     → Rejected{TenantQuota}
//   6. queued; the service's own deadline/cancel/QueueFull outcomes come
//      back as Rejected frames with the service's reason.
//
// Robustness contract (enforced by tests/net_fuzz_harness.*,
// test_net_faults.cpp and test_net_soak.cpp): any client byte stream
// yields, per request actually decoded, exactly one terminal frame
// (Response / Rejected / Error) — and per connection at most one
// trailing Error frame before close. Never a crash, hang, unbounded
// buffer, or leaked queue slot. Slow-loris partial frames time out;
// disconnects cancel the connection's queued and in-flight work; a
// half-closed (shutdown(SHUT_WR)) connection still receives every
// response it is owed.
//
// Every request carries an obs trace id (client-proposed or server
// allocated) that flows through the net spans, the service's spans (see
// SegmentService::submit), and back in the terminal frame.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "zenesis/eval/dashboard.hpp"
#include "zenesis/net/frame.hpp"
#include "zenesis/serve/histogram.hpp"
#include "zenesis/serve/service.hpp"

namespace zenesis::net {

using Clock = std::chrono::steady_clock;

/// Per-tenant fairness knobs. `weight` is the tenant's share of bridge
/// submissions under saturation; `max_queued` is its quota of net-queued
/// requests (beyond it, new requests shed with Rejected{TenantQuota}).
struct TenantPolicy {
  std::uint32_t weight = 1;
  std::size_t max_queued = 256;
};

struct ServerConfig {
  NetLimits limits;
  /// Per-tenant overrides; tenants not listed use `default_tenant`.
  std::map<std::uint32_t, TenantPolicy> tenants;
  TenantPolicy default_tenant;
  /// Connections beyond this are accepted, told Rejected{Overloaded} and
  /// closed immediately.
  std::size_t max_connections = 4096;
  /// Total net-queued requests across tenants; beyond it requests shed
  /// with Rejected{Overloaded} regardless of tenant quota.
  std::size_t shed_backlog = 4096;
  /// A connection holding an incomplete frame longer than this is a
  /// slow-loris: it gets an Error{Timeout} frame and is closed.
  std::chrono::milliseconds partial_frame_timeout{5000};
  /// Bound on flushing outstanding responses during stop().
  std::chrono::milliseconds drain_timeout{5000};
  /// TIFF read limits applied to every wire VolumeFile request.
  /// Server-side policy: clients name a path, the operator bounds what
  /// opening it may cost.
  io::TiffOpenOptions tiff_open{};

  /// One message per invalid knob; empty = valid.
  std::vector<std::string> validate() const;
};

/// Per-tenant counter block inside NetStats.
struct TenantCounters {
  std::uint64_t received = 0;   ///< request frames admitted to the net queue
  std::uint64_t submitted = 0;  ///< handed to the service
  std::uint64_t completed = 0;  ///< terminal frames sent (any status)
  std::uint64_t shed = 0;       ///< TenantQuota rejections
};

/// Snapshot of the wire-level counters; copied out under the server lock.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t connections_timed_out = 0;  ///< slow-loris closures
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t requests_received = 0;  ///< admitted into tenant queues
  std::uint64_t responses_sent = 0;
  std::uint64_t rejected_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t cancels_received = 0;
  std::uint64_t shed_tenant_quota = 0;
  std::uint64_t shed_overloaded = 0;
  std::uint64_t protocol_errors = 0;

  /// Frame-complete → terminal-frame-queued, per request (wire-level
  /// latency as the event loop sees it).
  serve::Histogram wire_us;

  std::map<std::uint32_t, TenantCounters> tenants;

  /// Tenant ids of the first submissions, in bridge order (bounded; for
  /// deterministic fairness tests and the zen_load report).
  std::vector<std::uint32_t> submission_log;
};

class Server {
 public:
  /// Starts the event loop and bridge immediately. `service` must outlive
  /// this server and must not be shut down before stop() returns.
  Server(serve::SegmentService& service, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a loopback TCP listener (port 0 = ephemeral) and returns the
  /// bound port. Throws std::runtime_error when the socket cannot be
  /// created or bound (e.g. sandboxed environments).
  std::uint16_t listen_tcp(std::uint16_t port = 0);

  /// Adopts an established, connected fd (e.g. one end of a socketpair —
  /// the deterministic loopback tests and Client::loopback_pair use
  /// exactly this). The server takes ownership of the fd. Thread-safe.
  void adopt(int fd);

  /// Deterministic buildup control for tests: while paused, request
  /// frames queue at net admission but nothing is submitted. The bridge
  /// starts idle, so pausing right after construction holds every
  /// request.
  void pause_bridge();
  void resume_bridge();

  /// Stops admission (new requests get Rejected{ShuttingDown}), waits for
  /// in-flight requests, flushes outboxes (bounded by drain_timeout),
  /// closes every connection and joins both threads. Idempotent.
  void stop();

  NetStats stats() const;
  /// Net-queued requests (all tenants) not yet submitted to the service.
  std::size_t backlog() const;
  /// Requests currently inside the service.
  std::size_t inflight() const;

  /// Writes the wire-level counters into a Mode-C dashboard (net_* keys).
  void publish_stats(eval::Dashboard& dashboard) const;

  const ServerConfig& config() const noexcept { return cfg_; }

 private:
  struct NetRequest;
  struct Conn;
  struct TenantState;

  void evloop_main();
  void bridge_main();

  // Event-loop internals (evloop thread only unless noted).
  void handle_readable(const std::shared_ptr<Conn>& conn);
  void handle_writable(const std::shared_ptr<Conn>& conn);
  void handle_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void handle_request_frame(const std::shared_ptr<Conn>& conn, Frame&& frame);
  void handle_cancel(const std::shared_ptr<Conn>& conn,
                     std::uint64_t request_id);
  /// Queues a protocol-error close: reading stops, already-admitted
  /// requests still complete, then `error` is sent and the socket closed.
  void begin_error_close(const std::shared_ptr<Conn>& conn,
                         WireErrorKind kind, const std::string& message);
  /// Hard teardown (peer gone): cancels the connection's queued and
  /// in-flight requests, frees its tenant slots, closes the fd.
  void teardown(const std::shared_ptr<Conn>& conn);
  void maybe_finish_close_locked(const std::shared_ptr<Conn>& conn);

  // Shared helpers (any thread; take mu_ internally where noted).
  void append_frame_locked(const std::shared_ptr<Conn>& conn,
                           std::vector<std::uint8_t>&& bytes);
  void wake_evloop();
  TenantState& tenant_state_locked(std::uint32_t tenant);
  void complete_request_locked(const std::shared_ptr<Conn>& conn,
                               const std::shared_ptr<NetRequest>& req,
                               std::vector<std::uint8_t>&& frame,
                               bool is_response, bool is_reject);

  serve::SegmentService& service_;
  ServerConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable bridge_cv_;
  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;  ///< by conn id
  std::map<std::uint32_t, TenantState> tenants_;
  std::size_t backlog_ = 0;
  struct Inflight {
    std::future<serve::Response> future;
    std::shared_ptr<NetRequest> req;
    std::shared_ptr<Conn> conn;
  };
  std::vector<Inflight> inflight_;
  NetStats stats_;
  std::vector<int> adopt_queue_;
  std::uint64_t next_conn_id_ = 1;
  bool bridge_paused_ = false;
  bool stopping_ = false;
  bool bridge_done_ = false;
  std::size_t rr_cursor_ = 0;      ///< weighted round-robin position
  std::uint32_t rr_burst_used_ = 0;

  int wake_r_ = -1;
  int wake_w_ = -1;
  int listen_fd_ = -1;

  std::mutex lifecycle_mu_;  ///< serializes stop/join
  std::thread evloop_;
  std::thread bridge_;
};

}  // namespace zenesis::net
