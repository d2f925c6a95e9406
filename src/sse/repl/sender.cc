#include "sse/repl/sender.h"

#include <algorithm>
#include <chrono>

#include "sse/storage/snapshot.h"
#include "sse/storage/wal.h"
#include "sse/util/logging.h"

namespace sse::repl {

namespace {

/// Records per ReplAppend frame while catching up or draining.
constexpr size_t kMaxRecordsPerAppend = 256;

obs::MetricsRegistry::Counter* AckTimeoutCounter() {
  static obs::MetricsRegistry::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(
          "sse_repl_ack_timeouts_total",
          "wait-one replication acks that timed out (write acked anyway)");
  return counter;
}

obs::MetricsRegistry::Counter* SnapshotShipCounter() {
  static obs::MetricsRegistry::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter(
          "sse_repl_snapshots_shipped_total",
          "checkpoint blobs shipped to followers behind the compaction "
          "horizon");
  return counter;
}

}  // namespace

ReplSender::ReplSender(std::string dir, std::vector<Endpoint> followers,
                       uint64_t epoch)
    : ReplSender(std::move(dir), std::move(followers), epoch, Options()) {}

ReplSender::ReplSender(std::string dir, std::vector<Endpoint> followers,
                       uint64_t epoch, Options options)
    : dir_(std::move(dir)), epoch_(epoch), options_(options) {
  for (Endpoint& endpoint : followers) {
    auto f = std::make_unique<Follower>();
    f->endpoint = std::move(endpoint);
    followers_.push_back(std::move(f));
  }
  auto& registry = obs::MetricsRegistry::Global();
  registrations_.push_back(registry.RegisterGauge(
      "sse_repl_followers_connected",
      [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        double n = 0;
        for (const auto& f : followers_) n += f->connected ? 1 : 0;
        return n;
      },
      "followers with a live replication channel"));
  registrations_.push_back(registry.RegisterGauge(
      "sse_repl_follower_lag_seqs",
      [this] {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t lag = 0;
        for (const auto& f : followers_) {
          if (log_end_ + 1 > f->next_seq) {
            lag = std::max(lag, log_end_ + 1 - f->next_seq);
          }
        }
        return static_cast<double>(lag);
      },
      "largest follower replication lag in WAL records"));
  registrations_.push_back(registry.RegisterHistogram(
      "sse_repl_ship_seconds", [this] { return ship_hist_.Snap(); },
      "round-trip latency of replication append/snapshot exchanges"));
}

ReplSender::~ReplSender() { Stop(); }

void ReplSender::Start(uint64_t next_seq) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return;
    started_ = true;
    log_end_ = next_seq > 0 ? next_seq - 1 : 0;
  }
  for (auto& f : followers_) {
    f->thread = std::thread([this, raw = f.get()] { FollowerLoop(raw); });
  }
}

void ReplSender::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  ack_cv_.notify_all();
  for (auto& f : followers_) {
    if (f->thread.joinable()) f->thread.join();
  }
}

void ReplSender::OnAppend(uint64_t wal_seq, BytesView record) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffer_.emplace_back(wal_seq, Bytes(record.begin(), record.end()));
    while (buffer_.size() > options_.live_buffer_records) buffer_.pop_front();
    log_end_ = wal_seq;
  }
  work_cv_.notify_all();
}

void ReplSender::WaitReplicated(uint64_t wal_seq) {
  if (options_.ack_mode != AckMode::kWaitOne) return;
  std::unique_lock<std::mutex> lock(mutex_);
  if (followers_.empty()) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.ack_timeout_ms);
  const bool acked = ack_cv_.wait_until(lock, deadline, [&] {
    return stop_ || fenced_ || max_acked_ >= wal_seq;
  });
  if (!acked) {
    ++ack_timeouts_;
    AckTimeoutCounter()->Add();
  }
}

std::vector<ReplSender::FollowerStatus> ReplSender::followers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FollowerStatus> out;
  out.reserve(followers_.size());
  for (const auto& f : followers_) {
    out.push_back(FollowerStatus{
        f->endpoint.host + ":" + std::to_string(f->endpoint.port),
        f->connected, f->next_seq});
  }
  return out;
}

uint64_t ReplSender::max_acked_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_acked_;
}

uint64_t ReplSender::log_end() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_end_;
}

uint64_t ReplSender::ack_timeouts() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ack_timeouts_;
}

uint64_t ReplSender::snapshots_shipped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_shipped_;
}

bool ReplSender::fenced() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fenced_;
}

bool ReplSender::SleepBackoff(uint64_t* backoff_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  work_cv_.wait_for(lock, std::chrono::milliseconds(*backoff_ms),
                    [&] { return stop_; });
  *backoff_ms = std::min(*backoff_ms * 2, options_.max_backoff_ms);
  return !stop_;
}

void ReplSender::ApplyAckLocked(Follower* f, const ReplAck& ack) {
  if (ack.epoch > epoch_ && !fenced_) {
    // A follower has been promoted past us: this primary is deposed.
    fenced_ = true;
    SSE_LOG(Error) << "repl: fenced by epoch " << ack.epoch << " (ours "
                   << epoch_ << "); this node is no longer primary";
    ack_cv_.notify_all();
  }
  f->next_seq = ack.next_seq;
  if (ack.accepted && ack.next_seq > 0 && ack.next_seq - 1 > max_acked_) {
    // The follower's cursor is its durable log end: everything below it
    // survives a follower crash.
    max_acked_ = ack.next_seq - 1;
    ack_cv_.notify_all();
  }
}

Result<ReplAck> ReplSender::Exchange(net::TcpChannel* channel, Follower* f,
                                     const net::Message& msg) {
  const auto start = std::chrono::steady_clock::now();
  Result<net::Message> reply = channel->Call(msg);
  ship_hist_.Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  if (!reply.ok()) return reply.status();
  ReplAck ack;
  SSE_ASSIGN_OR_RETURN(ack, ReplAck::FromMessage(*reply));
  std::lock_guard<std::mutex> lock(mutex_);
  ApplyAckLocked(f, ack);
  return ack;
}

Status ReplSender::CollectFromDisk(uint64_t from, std::vector<Bytes>* records,
                                   bool* need_snapshot) {
  records->clear();
  *need_snapshot = false;
  const storage::WalOptions wal_options{options_.env,
                                        options_.wal_segment_bytes,
                                        /*salvage=*/false};
  storage::WalReplayReport report;
  bool full = false;
  uint64_t expected = from;
  Status replayed = storage::WriteAheadLog::Replay(
      dir_, wal_options, from,
      [&](uint64_t seq, BytesView payload) {
        if (seq != expected) {
          // The oldest surviving segment starts above `from`: compaction
          // has removed the history this follower needs.
          *need_snapshot = true;
          full = true;
          return Status::Unavailable("catch-up gap");
        }
        records->push_back(Bytes(payload.begin(), payload.end()));
        ++expected;
        if (records->size() >= kMaxRecordsPerAppend) {
          full = true;
          return Status::Unavailable("batch full");
        }
        return Status::OK();
      },
      &report);
  if (!replayed.ok() && !full) return replayed;
  if (records->empty() && report.lowest_seq > from) *need_snapshot = true;
  if (*need_snapshot) records->clear();
  return Status::OK();
}

Status ReplSender::ShipSnapshot(net::TcpChannel* channel, Follower* f) {
  storage::SnapshotSet snapshots(dir_, options_.env);
  Bytes blob;
  SSE_ASSIGN_OR_RETURN(blob, snapshots.ReadNewestValid());
  core::DurableServer::SnapshotBlob contents;
  SSE_ASSIGN_OR_RETURN(contents, core::DurableServer::DecodeSnapshot(blob));
  ReplSnapshot snap;
  snap.epoch = epoch_;
  snap.cut_seq = contents.wal_seq;
  snap.blob = std::move(blob);
  ReplAck ack;
  SSE_ASSIGN_OR_RETURN(ack, Exchange(channel, f, snap.ToMessage()));
  if (!ack.accepted) {
    return Status::Unavailable("follower refused snapshot install");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++snapshots_shipped_;
  }
  SnapshotShipCounter()->Add();
  return Status::OK();
}

void ReplSender::FollowerLoop(Follower* f) {
  std::unique_ptr<net::TcpChannel> channel;
  uint64_t backoff_ms = options_.initial_backoff_ms;
  net::TcpChannel::Options channel_options;
  channel_options.connect_timeout_ms =
      static_cast<double>(options_.connect_timeout_ms);
  channel_options.send_timeout_ms = static_cast<double>(options_.io_timeout_ms);
  channel_options.recv_timeout_ms = static_cast<double>(options_.io_timeout_ms);
  channel_options.auto_reconnect = false;

  auto drop_channel = [&] {
    channel.reset();
    std::lock_guard<std::mutex> lock(mutex_);
    f->connected = false;
  };

  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stop_ || fenced_) break;
    }

    if (channel == nullptr) {
      Result<std::unique_ptr<net::TcpChannel>> connected =
          net::TcpChannel::Connect(f->endpoint.port, f->endpoint.host,
                                   channel_options);
      if (!connected.ok()) {
        if (!SleepBackoff(&backoff_ms)) break;
        continue;
      }
      channel = std::move(connected).value();
      // An empty append is the cursor query: the ack tells us where this
      // follower's durable log ends, i.e. where to resume shipping.
      ReplAppend probe;
      probe.epoch = epoch_;
      Result<ReplAck> ack = Exchange(channel.get(), f, probe.ToMessage());
      if (!ack.ok()) {
        drop_channel();
        if (!SleepBackoff(&backoff_ms)) break;
        continue;
      }
      backoff_ms = options_.initial_backoff_ms;
      std::lock_guard<std::mutex> lock(mutex_);
      f->connected = true;
    }

    // Decide this iteration's work under the lock; do I/O outside it.
    uint64_t from = 0;
    bool probe_only = false;
    ReplAppend append;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait_for(
          lock, std::chrono::milliseconds(options_.probe_interval_ms),
          [&] { return stop_ || fenced_ || f->next_seq <= log_end_; });
      if (stop_ || fenced_) break;
      from = f->next_seq;
      if (from > log_end_) {
        probe_only = true;  // caught up: heartbeat keeps the cursor fresh
      } else if (!buffer_.empty() && from >= buffer_.front().first) {
        // The live tail covers the cursor; buffer seqs are contiguous.
        const size_t index =
            static_cast<size_t>(from - buffer_.front().first);
        const size_t count =
            std::min(kMaxRecordsPerAppend, buffer_.size() - index);
        append.records.reserve(count);
        for (size_t i = 0; i < count; ++i) {
          append.records.push_back(buffer_[index + i].second);
        }
      }
    }

    append.epoch = epoch_;
    append.first_seq = from;
    if (!probe_only && append.records.empty()) {
      // Cursor is behind the live buffer: read the primary's segments.
      bool need_snapshot = false;
      const Status collected =
          CollectFromDisk(from, &append.records, &need_snapshot);
      if (!collected.ok()) {
        SSE_LOG(Warning) << "repl: disk catch-up for "
                         << f->endpoint.host << ":" << f->endpoint.port
                         << " failed: " << collected.ToString();
        if (!SleepBackoff(&backoff_ms)) break;
        continue;
      }
      if (need_snapshot) {
        const Status shipped = ShipSnapshot(channel.get(), f);
        if (!shipped.ok()) {
          SSE_LOG(Warning) << "repl: snapshot ship to " << f->endpoint.host
                           << ":" << f->endpoint.port
                           << " failed: " << shipped.ToString();
          drop_channel();
          if (!SleepBackoff(&backoff_ms)) break;
        }
        continue;
      }
      if (append.records.empty()) {
        // Segments end below log_end_ (rotation race); retry shortly.
        if (!SleepBackoff(&backoff_ms)) break;
        continue;
      }
    }

    Result<ReplAck> ack = Exchange(channel.get(), f, append.ToMessage());
    if (!ack.ok()) {
      drop_channel();
      if (!SleepBackoff(&backoff_ms)) break;
      continue;
    }
    backoff_ms = options_.initial_backoff_ms;
    // A refused append is not a transport fault: the ack's cursor already
    // rewound/advanced us and the next iteration ships from there.
  }
  drop_channel();
}

}  // namespace sse::repl
