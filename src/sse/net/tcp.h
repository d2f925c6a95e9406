#ifndef SSE_NET_TCP_H_
#define SSE_NET_TCP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sse/engine/worker_pool.h"
#include "sse/net/admission.h"
#include "sse/net/channel.h"
#include "sse/net/connection.h"
#include "sse/net/frame.h"
#include "sse/net/reactor.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/result.h"

namespace sse::net {

/// Loopback/network transport for the protocols: a real TCP server serving
/// any `MessageHandler`, and a matching `Channel` client. Framing is a
/// little-endian u32 length prefix around `Message::Encode()` bytes — the
/// same bytes the in-process channel counts, so measurements transfer.
///
/// The server is an event-driven reactor (`net/reactor.h`): a fixed set of
/// epoll loop threads owns every accepted socket as a non-blocking
/// `Connection` state machine (`net/connection.h`), and decoded request
/// frames are dispatched into ONE process-wide worker pool shared by all
/// connections. The thread budget is therefore `reactor_loops +
/// dispatch_workers`, independent of how many clients are connected —
/// 5k idle connections cost file descriptors and buffers, not threads.
///
/// By default the handler — a single-writer state machine for the plain
/// scheme servers — is protected by a per-server mutex, so requests from
/// different clients serialize at the dispatch point. A thread-safe
/// handler (engine::ServerEngine) opts out via
/// Options::serialize_handler=false, and concurrent connections then reach
/// the handler in parallel.
///
/// Each connection is served *pipelined*: the reactor decodes frames
/// continuously and replies are written as each completes — so a client
/// with many in-flight submissions keeps the wire and the handler busy at
/// the same time. Per-connection backpressure
/// (Options::pipeline_queue) pauses reading a connection whose reply
/// window is full, pushing back through TCP flow control. Error replies
/// echo the request's session stamp (when one can be recovered) so a
/// pipelined client can correlate them with the call they answer. With a
/// concurrent handler, replies to *different* requests may be written out
/// of submission order; session-stamped clients match by (client_id, seq),
/// and un-stamped clients should keep at most one call in flight.
class TcpServer {
 public:
  struct Options {
    /// Serialize all Handle() calls on one mutex. Leave on for handlers
    /// that are not internally synchronized. (Pipelining still overlaps
    /// socket reads/writes with handling even when serialized.)
    bool serialize_handler = true;
    /// Threads in the server-wide dispatch pool shared by every
    /// connection (the reactor refactor replaced the old per-connection
    /// pools; the name is kept for compatibility).
    size_t pipeline_workers = 4;
    /// Backpressure bound per connection: frames dispatched whose replies
    /// are not yet fully written. Beyond it the reactor stops reading
    /// that connection until replies drain.
    size_t pipeline_queue = 64;
    /// Answer kMsgStats admin requests in the server itself (from the
    /// process-wide metrics registry and span collector) instead of
    /// forwarding them to the handler.
    bool serve_stats = true;
    /// Epoll loop threads owning the sockets.
    size_t reactor_loops = 2;
    /// Graceful-shutdown budget: Stop() lets dispatched requests finish
    /// and flushes their queued replies for up to this long before
    /// closing sockets. 0 aborts immediately (replies may be dropped).
    double drain_timeout_ms = 5000.0;
    /// Close connections with no socket activity for this long and no
    /// requests in flight (counted by sse_net_idle_closed_total). 0
    /// disables sweeping — the default, since abandoned-socket reclaim
    /// is an operator policy, not a protocol behavior.
    uint64_t idle_timeout_ms = 0;
    /// Admission control: consulted on the loop thread for every data
    /// frame before it is queued for dispatch; a refusal sheds the frame
    /// with a retryable RESOURCE_EXHAUSTED carrying the controller's
    /// retry-after hint. Null (the default) admits everything.
    std::shared_ptr<AdmissionController> admission;
    /// Hard bound on the dispatch queue: frames arriving while this many
    /// tasks already wait for a worker are shed exactly like an admission
    /// refusal. Bounds dispatch *latency*, not just memory — a request
    /// admitted under this bound waits at most max_dispatch_queue
    /// handler-times for its worker. 0 = unbounded (the default).
    size_t max_dispatch_queue = 0;
    /// Record every served/shed frame into obs::SloTracker::Global()
    /// (availability + latency attainment per op class, scraped as the
    /// sse_slo_* gauges). Also gated process-wide by
    /// obs::SetSloRecordingEnabled for benches that price the layer.
    bool slo_tracking = true;
    /// Quiet time after the last shed before the server journals a
    /// brownout_exit event (obs/events.h). Entering brownout is edge
    /// triggered on the first shed.
    uint64_t brownout_exit_ms = 1000;
  };

  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts serving `handler`
  /// on the reactor threads. `handler` must outlive the server.
  static Result<std::unique_ptr<TcpServer>> Start(MessageHandler* handler,
                                                  uint16_t port = 0);
  static Result<std::unique_ptr<TcpServer>> Start(MessageHandler* handler,
                                                  uint16_t port,
                                                  Options options);

  /// The actually bound port.
  uint16_t port() const { return port_; }

  /// Stops accepting, drains in-flight requests (bounded by
  /// Options::drain_timeout_ms), flushes queued replies, then closes all
  /// sockets and joins the reactor/pool threads. Idempotent; also run by
  /// the destructor.
  void Stop();

  uint64_t requests_served() const { return requests_served_.load(); }
  uint64_t connections_accepted() const {
    return connections_accepted_.load();
  }
  /// Currently open connections (also exported as the
  /// sse_net_connections_active gauge).
  size_t connections_active() const;
  /// Fixed serving-thread budget: reactor loops + dispatch pool.
  size_t serving_threads() const;

 private:
  class Acceptor;

  TcpServer(MessageHandler* handler, int listen_fd, uint16_t port,
            Options options);
  /// Accept-loop body, run on loop 0 whenever the listener is readable.
  void AcceptReady();
  /// Closes connections idle past Options::idle_timeout_ms (periodic on
  /// loop 0; only fully quiescent connections are eligible).
  void SweepIdleConnections();
  /// Frame entry from a connection: admission check, accounting, then
  /// hand-off to the pool (or an immediate shed reply).
  void DispatchFrame(const std::shared_ptr<Connection>& conn, Bytes frame);
  /// Answers a frame refused before dispatch (admission shed or a full
  /// dispatch queue) with a session-addressed error reply, on the loop
  /// thread — shedding must be cheaper than serving.
  void ShedFrame(const std::shared_ptr<Connection>& conn, bool has_session,
                 uint64_t client_id, uint64_t seq, const Status& status);
  /// Records a shed for brownout edge detection, emitting a
  /// brownout_enter event on the not-shedding → shedding transition.
  void NoteShed(const char* reason);
  /// Emits brownout_exit once no shed has happened for
  /// Options::brownout_exit_ms; called on each admitted frame.
  void MaybeExitBrownout();
  /// Decode + handle one frame, producing the reply frame to write. Error
  /// replies are addressed with the request's session stamp when possible.
  /// `enqueued_ns` anchors the request's wire deadline: queue wait counts
  /// against the caller's budget, and expired work is dropped undone.
  Message HandleFrame(const Bytes& frame, uint64_t enqueued_ns);
  void OnConnectionClosed(Connection* conn);

  MessageHandler* handler_;
  int listen_fd_;
  uint16_t port_;
  Options options_;

  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<engine::WorkerPool> pool_;
  std::unique_ptr<Acceptor> acceptor_;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes Stop() callers
  bool stopped_ = false;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> connections_accepted_{0};
  /// Requests dispatched to the pool whose replies are not yet fully on
  /// the wire (or accounted as dropped); Stop() drains this to zero.
  std::atomic<uint64_t> inflight_requests_{0};

  mutable std::mutex conns_mu_;
  std::map<Connection*, std::shared_ptr<Connection>> conns_;

  std::mutex handler_mutex_;
  obs::MetricsRegistry::Registration active_gauge_;

  /// Brownout edge detection for the event journal: set on the first shed,
  /// cleared (with a brownout_exit event) by the first admitted frame that
  /// arrives Options::brownout_exit_ms after the last shed.
  std::atomic<bool> brownout_{false};
  std::atomic<uint64_t> last_shed_ns_{0};
};

/// Client channel over a TCP connection. One `Call` = one request/response
/// round trip on the persistent connection; `Submit`/`Await` pipeline many
/// calls over it at once. Submit writes the request frame immediately and
/// records the call as in flight; Await reads frames until the awaited
/// reply arrives, matching session-stamped replies to their submission by
/// the (client_id, seq) echo and buffering out-of-order arrivals.
/// Un-stamped replies are matched to the oldest in-flight call (FIFO),
/// which is only reliable against servers that reply in order — stamp
/// sessions (net::RetryingChannel does) for real pipelining. A transport
/// failure mid-pipeline fails every in-flight call, since frames after the
/// failure point cannot be trusted.
///
/// The receive path runs on the same `FrameAssembler` state machine the
/// server's reactor connections use, so both ends of the wire share one
/// framing implementation (torn prefixes, oversize frames and partial
/// reads behave identically).
///
/// Every blocking step is bounded: connect uses a non-blocking dial with a
/// poll(2) deadline, send/recv carry SO_SNDTIMEO/SO_RCVTIMEO. An expired
/// timeout surfaces as DEADLINE_EXCEEDED, other socket failures as
/// IO_ERROR — both retryable. After any failure the connection is in an
/// unknown mid-frame state, so the channel marks it broken and (with
/// auto_reconnect, the default) transparently dials a fresh one on the
/// next Call; Reset() forces the same teardown, which is how the retry
/// layer flushes a stream that may hold a stale reply.
class TcpChannel : public Channel {
 public:
  struct Options {
    /// Per-step deadlines in milliseconds; 0 = unbounded (old behavior).
    double connect_timeout_ms = 5000.0;
    double send_timeout_ms = 5000.0;
    double recv_timeout_ms = 5000.0;
    /// Redial automatically on the first Call after a failure or Reset().
    bool auto_reconnect = true;
  };

  ~TcpChannel() override;
  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// Connects to 127.0.0.1:`port` (or `host`).
  static Result<std::unique_ptr<TcpChannel>> Connect(
      uint16_t port, const std::string& host = "127.0.0.1");
  static Result<std::unique_ptr<TcpChannel>> Connect(uint16_t port,
                                                     const std::string& host,
                                                     Options options);

  Result<Message> Call(const Message& request) override;
  CallId Submit(const Message& request) override;
  Result<Message> Await(CallId id) override;
  size_t pending_calls() const override {
    return inflight_.size() + buffered_.size();
  }

  /// Tears the connection down; with auto_reconnect the next Call redials.
  /// In-flight submissions fail with UNAVAILABLE.
  void Reset() override;

  const ChannelStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Clear(); }

  /// Caps SO_SNDTIMEO/SO_RCVTIMEO below the configured per-step timeouts
  /// so one socket exchange cannot outlive the caller's remaining call
  /// budget (see Channel::SetIoDeadlineMs). Applied to the live socket
  /// immediately and re-applied after every redial.
  void SetIoDeadlineMs(double ms) override;

  bool connected() const { return fd_ >= 0; }
  uint64_t reconnects() const { return reconnects_; }

 private:
  /// A submitted call awaiting its reply.
  struct Inflight {
    bool has_session = false;
    uint64_t client_id = 0;
    uint64_t seq = 0;
  };

  TcpChannel(int fd, std::string host, uint16_t port, Options options)
      : fd_(fd), host_(std::move(host)), port_(port), options_(options) {}

  /// Reads socket bytes into the shared frame machine until one complete
  /// frame pops out. NOT_FOUND signals a clean EOF at a frame boundary
  /// when `eof_ok_at_start`; mid-frame EOFs are IO_ERROR.
  Result<Bytes> ReceiveFrame(bool eof_ok_at_start);
  /// Redials if the connection is broken (or fails if reconnects are off).
  Status EnsureConnected();
  /// Closes the socket and marks the channel broken.
  void MarkBroken();
  /// Fails every in-flight submission with `status` (the stream is gone).
  void FailInflight(const Status& status);
  /// Buffers `reply` as the completed result for call `id`, converting an
  /// application-level kMsgError into its embedded status (as Call does).
  void Complete(CallId id, Result<Message> reply);
  /// The in-flight call a decoded (or undecodable) frame answers, or 0.
  CallId MatchReply(const Message& reply) const;

  /// The configured timeouts with the SetIoDeadlineMs cap applied.
  double EffectiveSendTimeoutMs() const;
  double EffectiveRecvTimeoutMs() const;

  int fd_;
  std::string host_;
  uint16_t port_;
  Options options_;
  double io_deadline_cap_ms_ = 0.0;  // 0 = no cap
  uint64_t reconnects_ = 0;
  ChannelStats stats_;
  FrameAssembler rx_;  // same framing state machine as the server side
  std::map<CallId, Inflight> inflight_;
  std::deque<CallId> inflight_order_;  // submission order, for FIFO matching
};

}  // namespace sse::net

#endif  // SSE_NET_TCP_H_
