#include "sse/net/tcp.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "sse/net/deadline.h"
#include "sse/net/socket_util.h"
#include "sse/obs/events.h"
#include "sse/obs/slo.h"
#include "sse/obs/stats_rpc.h"
#include "sse/obs/trace.h"

namespace sse::net {

namespace {

/// Process-wide net-layer counters, looked up once. Cheap to bump (one
/// relaxed fetch_add) and aggregated across every channel and server in
/// the process — per-instance numbers stay in ChannelStats.
struct NetCounters {
  obs::MetricsRegistry::Counter* frames_sent;
  obs::MetricsRegistry::Counter* frames_received;
  obs::MetricsRegistry::Counter* bytes_sent;
  obs::MetricsRegistry::Counter* bytes_received;
  obs::MetricsRegistry::Counter* timeouts;
  obs::MetricsRegistry::Counter* reconnects;
  obs::MetricsRegistry::Counter* server_frames;

  static NetCounters& Get() {
    static NetCounters c = [] {
      auto& reg = obs::MetricsRegistry::Global();
      NetCounters n;
      n.frames_sent = reg.GetCounter("sse_net_client_frames_sent_total",
                                     "Frames written by TCP clients");
      n.frames_received = reg.GetCounter("sse_net_client_frames_received_total",
                                         "Frames read by TCP clients");
      n.bytes_sent = reg.GetCounter("sse_net_client_bytes_sent_total",
                                    "Payload bytes written by TCP clients");
      n.bytes_received = reg.GetCounter("sse_net_client_bytes_received_total",
                                        "Payload bytes read by TCP clients");
      n.timeouts = reg.GetCounter("sse_net_timeouts_total",
                                  "Socket send/recv deadline expiries");
      n.reconnects = reg.GetCounter("sse_net_reconnects_total",
                                    "Automatic client redials");
      n.server_frames = reg.GetCounter("sse_net_server_frames_total",
                                       "Frames dispatched by TCP servers");
      return n;
    }();
    return c;
  }
};

/// Distribution of the client pipeline window occupancy, sampled at each
/// Submit (value = calls already in flight, not a duration).
obs::LatencyHistogram& InflightWindowHistogram() {
  static auto* h = [] {
    auto* hist = new obs::LatencyHistogram();
    static auto reg = obs::MetricsRegistry::Global().RegisterHistogram(
        "sse_net_inflight_window",
        [hist] { return hist->Snap(); },
        "In-flight calls already pending at each Submit (count, not time)");
    return hist;
  }();
  return *h;
}

/// Distribution of the server dispatch-pool queue depth, sampled at each
/// frame dispatch (value = tasks already queued, not a duration).
obs::LatencyHistogram& DispatchQueueDepthHistogram() {
  static auto* h = [] {
    auto* hist = new obs::LatencyHistogram();
    static auto reg = obs::MetricsRegistry::Global().RegisterHistogram(
        "sse_net_dispatch_queue_depth",
        [hist] { return hist->Snap(); },
        "Tasks queued in the server dispatch pool at each frame arrival "
        "(count, not time)");
    return hist;
  }();
  return *h;
}

/// Queue-wait distribution: microseconds between a frame's arrival on the
/// loop thread and a pool worker picking it up. The admission layer's
/// wait-EWMA sees the same samples.
obs::LatencyHistogram& DispatchQueueWaitHistogram() {
  static auto* h = [] {
    auto* hist = new obs::LatencyHistogram();
    static auto reg = obs::MetricsRegistry::Global().RegisterHistogram(
        "sse_net_dispatch_queue_wait_us",
        [hist] { return hist->Snap(); },
        "Dispatch-queue wait per served frame, microseconds");
    return hist;
  }();
  return *h;
}

/// Overload-protection counters (the sse_admission_* series).
struct AdmissionCounters {
  obs::MetricsRegistry::Counter* shed;
  obs::MetricsRegistry::Counter* shed_mutations;
  obs::MetricsRegistry::Counter* queue_full;
  obs::MetricsRegistry::Counter* deadline_dropped;

  static AdmissionCounters& Get() {
    static AdmissionCounters c = [] {
      auto& reg = obs::MetricsRegistry::Global();
      AdmissionCounters a;
      a.shed = reg.GetCounter("sse_admission_shed_total",
                              "Frames shed by admission control");
      a.shed_mutations =
          reg.GetCounter("sse_admission_shed_mutations_total",
                         "Mutation frames shed by admission control");
      a.queue_full =
          reg.GetCounter("sse_admission_queue_full_total",
                         "Frames shed because the dispatch queue was full");
      a.deadline_dropped = reg.GetCounter(
          "sse_admission_deadline_dropped_total",
          "Requests dropped at dequeue with their wire deadline expired");
      return a;
    }();
    return c;
  }
};

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ---------------------------------------------------------------- server --

/// Listener handler on loop 0: accepts until EAGAIN on every readiness
/// event and hands fresh sockets to the server.
class TcpServer::Acceptor : public EventLoop::Handler {
 public:
  explicit Acceptor(TcpServer* server) : server_(server) {}
  void OnEvents(uint32_t events) override {
    if ((events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0) {
      server_->AcceptReady();
    }
  }

 private:
  TcpServer* server_;
};

TcpServer::TcpServer(MessageHandler* handler, int listen_fd, uint16_t port,
                     Options options)
    : handler_(handler),
      listen_fd_(listen_fd),
      port_(port),
      options_(options) {
  if (options_.reactor_loops == 0) options_.reactor_loops = 1;
  if (options_.dispatch_workers == 0) options_.dispatch_workers = 1;
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(MessageHandler* handler,
                                                    uint16_t port) {
  return Start(handler, port, Options{});
}

Result<std::unique_ptr<TcpServer>> TcpServer::Start(MessageHandler* handler,
                                                    uint16_t port,
                                                    Options options) {
  if (handler == nullptr) {
    return Status::InvalidArgument("handler must be non-null");
  }
  uint16_t bound_port = 0;
  Result<int> fd = ListenTcp(port, &bound_port);
  if (!fd.ok()) return fd.status();
  if (Status s = SetNonBlocking(*fd, true); !s.ok()) {
    ::close(*fd);
    return s;
  }

  auto server = std::unique_ptr<TcpServer>(
      new TcpServer(handler, *fd, bound_port, options));
  server->reactor_ = std::make_unique<Reactor>(server->options_.reactor_loops);
  server->pool_ =
      std::make_unique<WorkerPool>(server->options_.dispatch_workers);
  server->acceptor_ = std::make_unique<Acceptor>(server.get());
  server->active_gauge_ = obs::MetricsRegistry::Global().RegisterGauge(
      "sse_net_connections_active",
      [raw = server.get()] {
        return static_cast<double>(raw->connections_active());
      },
      "Open TCP connections on reactor servers");
  server->reactor_->Start();
  TcpServer* raw = server.get();
  raw->reactor_->loop(0)->Post([raw] {
    raw->reactor_->loop(0)->Add(raw->listen_fd_, EPOLLIN,
                                raw->acceptor_.get());
  });
  return server;
}

TcpServer::~TcpServer() { Stop(); }

size_t TcpServer::connections_active() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

size_t TcpServer::serving_threads() const {
  return options_.reactor_loops + pool_->thread_count();
}

void TcpServer::AcceptReady() {
  for (;;) {
    const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
    if (conn_fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN (drained) or listener gone
    }
    if (stopping_.load()) {
      ::close(conn_fd);
      continue;
    }
    if (!SetNonBlocking(conn_fd, true).ok()) {
      ::close(conn_fd);
      continue;
    }
    SetNoDelay(conn_fd);
    connections_accepted_.fetch_add(1);

    Connection::Callbacks callbacks;
    callbacks.on_frame = [this](const std::shared_ptr<Connection>& conn,
                                Bytes frame) {
      DispatchFrame(conn, std::move(frame));
    };
    callbacks.on_close = [this](Connection* conn) {
      OnConnectionClosed(conn);
    };
    auto conn = std::make_shared<Connection>(conn_fd, reactor_->NextLoop(),
                                             std::move(callbacks));
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.emplace(conn.get(), conn);
    }
    conn->Register();
  }
}

void TcpServer::OnConnectionClosed(Connection* conn) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(conn);
}

void TcpServer::ShedFrame(const std::shared_ptr<Connection>& conn,
                          bool has_session, uint64_t client_id, uint64_t seq,
                          const Status& status) {
  Message error = MakeErrorMessage(status);
  if (has_session) error.StampSession(client_id, seq);
  conn->SendFrame(error.EncodeFrame());
}

void TcpServer::NoteShed(const char* reason) {
  last_shed_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  // Edge-triggered: only the transition into shedding is an event. The
  // per-frame shed volume lives in the sse_admission_* counters.
  if (!brownout_.exchange(true, std::memory_order_relaxed)) {
    obs::EventJournal::Global().Emit(
        obs::EventKind::kBrownoutEnter,
        std::string("admission began shedding (") + reason + ")");
  }
}

void TcpServer::MaybeExitBrownout() {
  if (!brownout_.load(std::memory_order_relaxed)) return;
  const uint64_t last = last_shed_ns_.load(std::memory_order_relaxed);
  const uint64_t quiet_ns =
      static_cast<uint64_t>(options_.brownout_exit_ms) * 1'000'000ULL;
  if (SteadyNowNs() - last < quiet_ns) return;
  if (brownout_.exchange(false, std::memory_order_relaxed)) {
    obs::EventJournal::Global().Emit(
        obs::EventKind::kBrownoutExit,
        "no sheds for " + std::to_string(options_.brownout_exit_ms) +
            " ms; admitting normally");
  }
}

void TcpServer::DispatchFrame(const std::shared_ptr<Connection>& conn,
                              Bytes frame) {
  // Loop thread: admission, accounting, hand-off. The pool worker runs
  // the handler and writes the reply itself (Connection::SendFrame).
  const size_t queue_depth = pool_->queue_depth();
  DispatchQueueDepthHistogram().Record(queue_depth);
  // The session stamp is salvaged up front: a shed reply must be
  // addressable even though the frame never reaches a worker (and the
  // frame's bytes are gone once moved into a refused pool task).
  uint64_t client_id = 0;
  uint64_t seq = 0;
  const bool has_session = Message::PeekSession(frame, &client_id, &seq);
  const bool slo_on = obs::SloRecordingEnabled();
  obs::OpClass op = obs::OpClass::kControl;
  if (options_.admission != nullptr || options_.max_dispatch_queue > 0 ||
      slo_on) {
    op = ClassifyFrame(frame);
  }
  if (options_.admission != nullptr && op != obs::OpClass::kControl) {
    const AdmissionDecision verdict = options_.admission->Admit(op, queue_depth);
    if (!verdict.admit) {
      AdmissionCounters::Get().shed->Add();
      if (op == obs::OpClass::kMutation) {
        AdmissionCounters::Get().shed_mutations->Add();
      }
      if (slo_on) obs::SloTracker::Global().Record(op, 0, false);
      NoteShed(verdict.reason);
      ShedFrame(conn, has_session, client_id, seq,
                WithRetryAfter(
                    Status::ResourceExhausted(
                        std::string("server overloaded (") + verdict.reason +
                        "); retry later"),
                    verdict.retry_after_ms));
      return;
    }
  }
  MaybeExitBrownout();
  inflight_requests_.fetch_add(1);
  const uint64_t enqueued_ns = SteadyNowNs();
  const auto submitted = pool_->TrySubmit(
      [this, conn, frame = std::move(frame), enqueued_ns, op, slo_on] {
        const uint64_t wait_ns = SteadyNowNs() - enqueued_ns;
        DispatchQueueWaitHistogram().Record(
            static_cast<double>(wait_ns) / 1000.0);
        if (options_.admission != nullptr) {
          options_.admission->OnQueueWait(wait_ns);
        }
        Message reply = HandleFrame(frame, enqueued_ns);
        if (slo_on) {
          // Latency is measured from frame *arrival* (queue wait included):
          // that is what the caller experiences, and what the SLO promises.
          obs::SloTracker::Global().Record(op, SteadyNowNs() - enqueued_ns,
                                           reply.type != kMsgError);
        }
        conn->SendFrame(reply.EncodeFrame());
        inflight_requests_.fetch_sub(1);
      },
      options_.max_dispatch_queue);
  if (submitted == WorkerPool::SubmitResult::kAccepted) return;
  inflight_requests_.fetch_sub(1);
  if (submitted == WorkerPool::SubmitResult::kQueueFull) {
    // Never silently drop an over-quota frame: bounce it with a
    // retryable verdict so the client backs off instead of timing out.
    AdmissionCounters::Get().shed->Add();
    AdmissionCounters::Get().queue_full->Add();
    if (op == obs::OpClass::kMutation) {
      AdmissionCounters::Get().shed_mutations->Add();
    }
    if (slo_on) obs::SloTracker::Global().Record(op, 0, false);
    NoteShed("dispatch queue full");
    ShedFrame(conn, has_session, client_id, seq,
              WithRetryAfter(
                  Status::ResourceExhausted("server dispatch queue full"),
                  /*retry_after_ms=*/25));
    return;
  }
  // kShutdown: the server is mid-Stop; the connection is being closed
  // and the frame goes unanswered by design.
}

Message TcpServer::HandleFrame(const Bytes& frame, uint64_t enqueued_ns) {
  Result<Message> request = Message::Decode(frame);
  NetCounters::Get().server_frames->Add();
  obs::ScopedSpan dispatch_span(
      "server.dispatch",
      request.ok() ? obs::ContextOf(*request) : obs::TraceContext{});
  if (request.ok()) {
    dispatch_span.Annotate("msg_type", request->type);
  }
  // The caller's deadline is anchored at frame *arrival*, so time spent
  // waiting in the dispatch queue counts against the budget — exactly the
  // time a queue-blind server would waste executing already-abandoned work.
  const Deadline deadline =
      request.ok() ? Deadline::FromMessage(*request, enqueued_ns) : Deadline();
  Result<Message> reply = [&]() -> Result<Message> {
    if (!request.ok()) return request.status();
    if (options_.serve_stats && request->type == kMsgStats) {
      // Admin scrape: answered from the process-wide registry without
      // involving (or serializing on) the application handler.
      return obs::HandleStatsRequest(*request);
    }
    if (deadline.Expired()) {
      // The client has already given up on this call; executing it would
      // burn a worker on a reply nobody reads. Drop before the handler.
      AdmissionCounters::Get().deadline_dropped->Add();
      dispatch_span.Annotate("deadline_expired_at_dequeue", 1);
      return DeadlineExceededStatus("at dequeue");
    }
    // Publish the remaining budget for downstream layers (engine batch
    // boundaries, the durable server's pre-fsync check) on this thread.
    ScopedDeadline scope(deadline);
    if (options_.serialize_handler) {
      std::lock_guard<std::mutex> lock(handler_mutex_);
      return handler_->Handle(*request);
    }
    // Thread-safe handler (e.g. the sharded engine): pool workers reach
    // it concurrently.
    return handler_->Handle(*request);
  }();
  requests_served_.fetch_add(1);
  if (reply.ok()) return std::move(*reply);
  Message error = MakeErrorMessage(reply.status());
  // Address the error to the call it answers, so a pipelined client can
  // correlate it. When the request itself would not decode, salvage the
  // stamp from the raw frame (it precedes the damaged payload).
  if (request.ok()) {
    error.EchoSession(*request);
  } else {
    uint64_t client_id = 0;
    uint64_t seq = 0;
    if (Message::PeekSession(frame, &client_id, &seq)) {
      error.StampSession(client_id, seq);
    }
  }
  return error;
}

void TcpServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_) return;
  stopped_ = true;
  stopping_.store(true);

  // 1. Stop accepting: unregister and close the listener on its loop.
  {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    reactor_->loop(0)->Post([&] {
      reactor_->loop(0)->Del(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  // 2. Drain: connections stop reading new frames; requests already
  //    dispatched keep running and their replies keep flushing.
  auto snapshot_conns = [this] {
    std::vector<std::shared_ptr<Connection>> out;
    std::lock_guard<std::mutex> lock(conns_mu_);
    out.reserve(conns_.size());
    for (auto& [raw, shared] : conns_) out.push_back(shared);
    return out;
  };
  for (auto& conn : snapshot_conns()) conn->BeginDrain();

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<int64_t>(options_.drain_timeout_ms * 1000.0));
  while (options_.drain_timeout_ms > 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (inflight_requests_.load() == 0) {
      bool all_flushed = true;
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [raw, shared] : conns_) {
        if (shared->outstanding() > 0) {
          all_flushed = false;
          break;
        }
      }
      if (all_flushed) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Hard-close whatever remains (drained connections already closed
  //    themselves), then retire the pool and the loops.
  for (auto& conn : snapshot_conns()) conn->Close();
  // Shutdown (not destruction): loop threads may still be delivering
  // already-read frames into DispatchFrame until the reactor stops below,
  // and they must find a stopped pool, not freed memory.
  pool_->Shutdown();  // joins workers; their replies drop on closed conns
  reactor_->Stop();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
}

// ---------------------------------------------------------------- client --

Result<std::unique_ptr<TcpChannel>> TcpChannel::Connect(
    uint16_t port, const std::string& host) {
  return Connect(port, host, Options{});
}

Result<std::unique_ptr<TcpChannel>> TcpChannel::Connect(uint16_t port,
                                                        const std::string& host,
                                                        Options options) {
  Result<int> fd =
      DialTcp(host, port, options.connect_timeout_ms, options.send_timeout_ms,
              options.recv_timeout_ms);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<TcpChannel>(
      new TcpChannel(*fd, host, port, options));
}

TcpChannel::~TcpChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void TcpChannel::MarkBroken() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  // The stream may have died mid-frame; partial reassembly state is
  // garbage on the next connection.
  rx_.Reset();
}

void TcpChannel::FailInflight(const Status& status) {
  for (const CallId id : inflight_order_) {
    if (inflight_.count(id) > 0) buffered_.emplace(id, status);
  }
  inflight_.clear();
  inflight_order_.clear();
}

void TcpChannel::Reset() {
  MarkBroken();
  FailInflight(Status::Unavailable("connection reset with calls in flight"));
}

double TcpChannel::EffectiveSendTimeoutMs() const {
  if (io_deadline_cap_ms_ <= 0.0) return options_.send_timeout_ms;
  if (options_.send_timeout_ms <= 0.0) return io_deadline_cap_ms_;
  return std::min(options_.send_timeout_ms, io_deadline_cap_ms_);
}

double TcpChannel::EffectiveRecvTimeoutMs() const {
  if (io_deadline_cap_ms_ <= 0.0) return options_.recv_timeout_ms;
  if (options_.recv_timeout_ms <= 0.0) return io_deadline_cap_ms_;
  return std::min(options_.recv_timeout_ms, io_deadline_cap_ms_);
}

void TcpChannel::SetIoDeadlineMs(double ms) {
  io_deadline_cap_ms_ = ms > 0.0 ? ms : 0.0;
  if (fd_ >= 0) {
    ApplyIoTimeouts(fd_, EffectiveSendTimeoutMs(), EffectiveRecvTimeoutMs());
  }
}

Status TcpChannel::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  if (!options_.auto_reconnect) {
    return Status::Unavailable("connection closed and reconnects disabled");
  }
  Result<int> fd = DialTcp(host_, port_, options_.connect_timeout_ms,
                           options_.send_timeout_ms, options_.recv_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  // DialTcp applied the configured timeouts; re-apply if a retry layer has
  // capped this attempt tighter than the static configuration.
  if (io_deadline_cap_ms_ > 0.0) {
    ApplyIoTimeouts(fd_, EffectiveSendTimeoutMs(), EffectiveRecvTimeoutMs());
  }
  rx_.Reset();
  reconnects_ += 1;
  NetCounters::Get().reconnects->Add();
  return Status::OK();
}

Result<Bytes> TcpChannel::ReceiveFrame(bool eof_ok_at_start) {
  Bytes frame;
  if (rx_.Next(&frame)) return frame;
  uint8_t buf[16 * 1024];
  for (;;) {
    ssize_t n;
    do {
      n = ::recv(fd_, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n == 0) {
      if (!rx_.mid_frame() && eof_ok_at_start) {
        return Status::NotFound("peer closed the connection");
      }
      return Status::IoError(rx_.mid_frame()
                                 ? "socket closed mid-frame"
                                 : "socket closed with replies pending");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::DeadlineExceeded("socket recv timed out");
      }
      return Status::IoError("socket recv failed: " +
                             std::string(std::strerror(errno)));
    }
    SSE_RETURN_IF_ERROR(rx_.Feed(buf, static_cast<size_t>(n)));
    if (rx_.Next(&frame)) return frame;
  }
}

void TcpChannel::Complete(CallId id, Result<Message> reply) {
  if (reply.ok()) {
    // Surface an application-level error reply as its embedded status,
    // exactly as the synchronous Call path does.
    Status app_error = DecodeErrorMessage(*reply);
    if (!app_error.ok()) reply = app_error;
  }
  inflight_.erase(id);
  for (auto it = inflight_order_.begin(); it != inflight_order_.end(); ++it) {
    if (*it == id) {
      inflight_order_.erase(it);
      break;
    }
  }
  buffered_.emplace(id, std::move(reply));
}

Channel::CallId TcpChannel::MatchReply(const Message& reply) const {
  if (reply.has_session) {
    for (const auto& [id, call] : inflight_) {
      if (call.has_session && call.client_id == reply.client_id &&
          call.seq == reply.seq) {
        return id;
      }
    }
    return 0;  // stale or unknown: not ours to deliver
  }
  // Un-stamped reply: a lockstep server answers in order, so it belongs to
  // the oldest in-flight call.
  return inflight_order_.empty() ? 0 : inflight_order_.front();
}

Channel::CallId TcpChannel::Submit(const Message& request) {
  const CallId id = next_call_id_++;
  obs::ScopedSpan send_span("net.send_frame", obs::ContextOf(request));
  InflightWindowHistogram().Record(inflight_order_.size());
  Status status = EnsureConnected();
  if (status.ok()) {
    const Bytes frame = request.EncodeFrame();
    // Byte counts cover the message, not its length prefix, as the
    // in-process channel counts them.
    const size_t bytes = frame.size() - kFrameHeaderSize;
    send_span.Annotate("bytes", bytes);
    status = WriteAllBlocking(fd_, frame.data(), frame.size());
    if (status.ok()) {
      stats_.rounds += 1;
      stats_.frames_sent += 1;
      stats_.bytes_sent += bytes;
      stats_.calls_by_type[request.type] += 1;
      NetCounters::Get().frames_sent->Add();
      NetCounters::Get().bytes_sent->Add(bytes);
    } else {
      if (status.code() == StatusCode::kDeadlineExceeded) {
        NetCounters::Get().timeouts->Add();
      }
      MarkBroken();
      FailInflight(status);
    }
  }
  if (!status.ok()) {
    buffered_.emplace(id, status);
    return id;
  }
  inflight_.emplace(
      id, Inflight{request.has_session, request.client_id, request.seq});
  inflight_order_.push_back(id);
  return id;
}

Result<Message> TcpChannel::Await(CallId id) {
  while (buffered_.count(id) == 0) {
    if (inflight_.count(id) == 0) {
      return Status::InvalidArgument("unknown or already-awaited call ticket");
    }
    Result<Bytes> frame = ReceiveFrame(/*eof_ok_at_start=*/false);
    if (!frame.ok()) {
      // The stream may be mid-frame (e.g. a recv timeout); nothing after
      // this point can be trusted, so every in-flight call fails and the
      // next use redials.
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        NetCounters::Get().timeouts->Add();
      }
      MarkBroken();
      FailInflight(frame.status());
      break;
    }
    stats_.frames_received += 1;
    stats_.bytes_received += frame->size();
    NetCounters::Get().frames_received->Add();
    NetCounters::Get().bytes_received->Add(frame->size());
    Result<Message> reply = Message::Decode(*frame);
    if (!reply.ok()) {
      // A frame that does not parse still answers *some* call. Attribute
      // it by its salvaged session stamp if possible, else to the oldest
      // in-flight call; the retry layer treats the status as retryable.
      uint64_t client_id = 0;
      uint64_t seq = 0;
      CallId target = 0;
      if (Message::PeekSession(*frame, &client_id, &seq)) {
        for (const auto& [cand, call] : inflight_) {
          if (call.has_session && call.client_id == client_id &&
              call.seq == seq) {
            target = cand;
            break;
          }
        }
      }
      if (target == 0 && !inflight_order_.empty()) {
        target = inflight_order_.front();
      }
      if (target != 0) Complete(target, reply.status());
      continue;
    }
    const CallId target = MatchReply(*reply);
    if (target == 0) continue;  // stale reply from a superseded call: drop
    Complete(target, std::move(*reply));
  }
  auto it = buffered_.find(id);
  if (it == buffered_.end()) {
    return Status::Internal("await terminated without a result");
  }
  Result<Message> result = std::move(it->second);
  buffered_.erase(it);
  return result;
}

Result<Message> TcpChannel::Call(const Message& request) {
  return Await(Submit(request));
}

}  // namespace sse::net
