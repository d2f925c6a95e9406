#include "sse/net/connection.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <utility>

#include "sse/net/socket_util.h"
#include "sse/obs/metrics_registry.h"

namespace sse::net {

namespace {

/// Same series TcpServer's counters live in; GetCounter is idempotent per
/// name, so both layers share one counter.
obs::MetricsRegistry::Counter* ReadPauseCounter() {
  static auto* counter = obs::MetricsRegistry::Global().GetCounter(
      "sse_net_read_pauses_total",
      "Connections paused by reply-window backpressure");
  return counter;
}

}  // namespace

Connection::Connection(int fd, EventLoop* loop, Callbacks callbacks)
    : fd_(fd), loop_(loop), callbacks_(std::move(callbacks)) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::Register() {
  auto self = shared_from_this();
  loop_->RunInLoop([self] {
    if (self->closed_) return;
    self->interest_ = EPOLLIN;
    if (!self->loop_->Add(self->fd_, self->interest_, self.get()).ok()) {
      self->CloseNow();
      return;
    }
    self->registered_ = true;
  });
}

void Connection::SendFrame(Bytes payload) {
  Bytes framed = EncodeFrame(payload);
  auto self = shared_from_this();
  loop_->RunInLoop([self, framed = std::move(framed)]() mutable {
    self->QueueReply(std::move(framed));
  });
}

void Connection::BeginDrain() {
  auto self = shared_from_this();
  loop_->RunInLoop([self] {
    if (self->closed_) return;
    self->draining_ = true;
    self->reading_ = false;
    self->UpdateInterest();
    if (self->outstanding_.load(std::memory_order_relaxed) == 0 &&
        self->write_queue_.empty()) {
      self->CloseNow();
    }
  });
}

void Connection::Close() {
  auto self = shared_from_this();
  loop_->RunInLoop([self] { self->CloseNow(); });
}

void Connection::OnEvents(uint32_t events) {
  // The loop dispatches on a raw pointer; pin the object in case a close
  // path drops the server's last reference mid-callback.
  auto self = shared_from_this();
  if (closed_) return;
  if ((events & EPOLLERR) != 0) {
    CloseNow();
    return;
  }
  if ((events & (EPOLLIN | EPOLLHUP)) != 0 && reading_) HandleReadable();
  if (closed_) return;
  if ((events & EPOLLOUT) != 0) HandleWritable();
  if (closed_) return;
  if ((events & EPOLLHUP) != 0 && !reading_ && write_queue_.empty() &&
      outstanding_.load(std::memory_order_relaxed) == 0) {
    CloseNow();
  }
}

void Connection::HandleReadable() {
  // Bound the bytes consumed per wakeup so one hot connection cannot
  // starve its loop siblings; level-triggered epoll re-fires for the rest.
  constexpr size_t kMaxBytesPerWake = 128 * 1024;
  uint8_t buf[16 * 1024];
  size_t total = 0;
  while (reading_ && !closed_ && total < kMaxBytesPerWake) {
    size_t n = 0;
    const IoResult r = ReadSomeNonBlocking(fd_, buf, sizeof(buf), &n);
    if (r == IoResult::kOk) {
      total += n;
      if (!assembler_.Feed(buf, n).ok()) {
        // Oversize/poisoned frame stream: unrecoverable protocol breach.
        CloseNow();
        return;
      }
      DeliverFrames();
    } else if (r == IoResult::kWouldBlock) {
      break;
    } else if (r == IoResult::kEof) {
      peer_eof_ = true;
      reading_ = false;
      // Frames already received still get served; replies flush to the
      // (possibly half-closed) peer, then the connection retires.
      DeliverFrames();
      UpdateInterest();
      if (outstanding_.load(std::memory_order_relaxed) == 0 &&
          write_queue_.empty()) {
        CloseNow();
      }
      return;
    } else {
      CloseNow();
      return;
    }
  }
  if (!closed_) UpdateInterest();
}

void Connection::DeliverFrames() {
  Bytes frame;
  while (!closed_ &&
         outstanding_.load(std::memory_order_relaxed) < kMaxOutstanding &&
         assembler_.Next(&frame)) {
    outstanding_.fetch_add(1, std::memory_order_relaxed);
    callbacks_.on_frame(shared_from_this(), std::move(frame));
  }
  if (closed_) return;
  // Backpressure: pause the socket while a full window of replies is in
  // flight (or frames are still buffered waiting for a free slot).
  const bool was_reading = reading_;
  reading_ = !draining_ && !peer_eof_ &&
             outstanding_.load(std::memory_order_relaxed) <
                 kMaxOutstanding &&
             assembler_.ready() == 0;
  if (was_reading && !reading_ && !draining_ && !peer_eof_) {
    ReadPauseCounter()->Add();
  }
}

void Connection::QueueReply(Bytes framed) {
  if (closed_) {
    // The reply raced a close: drop the bytes but keep the accounting
    // balanced so drains and backpressure never wedge.
    ReplyRetired();
    return;
  }
  write_queue_.push_back(std::move(framed));
  queued_replies_.fetch_add(1, std::memory_order_relaxed);
  FlushWrites();
}

void Connection::HandleWritable() { FlushWrites(); }

void Connection::FlushWrites() {
  while (!closed_ && !write_queue_.empty()) {
    const Bytes& front = write_queue_.front();
    size_t n = 0;
    const IoResult r = WriteSomeNonBlocking(
        fd_, front.data() + write_offset_, front.size() - write_offset_, &n);
    if (r == IoResult::kOk) {
      write_offset_ += n;
      if (write_offset_ == front.size()) {
        write_queue_.pop_front();
        write_offset_ = 0;
        queued_replies_.fetch_sub(1, std::memory_order_relaxed);
        ReplyRetired();
      }
    } else if (r == IoResult::kWouldBlock) {
      // Partial write: resume exactly here on the next EPOLLOUT.
      UpdateInterest();
      return;
    } else {
      CloseNow();
      return;
    }
  }
  if (closed_) return;
  UpdateInterest();
  if ((draining_ || peer_eof_) && write_queue_.empty() &&
      outstanding_.load(std::memory_order_relaxed) == 0) {
    CloseNow();
  }
}

void Connection::ReplyRetired() {
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  if (closed_) return;
  if (!reading_ && !draining_ && !peer_eof_) {
    // A backpressure slot opened: serve any frames buffered while paused,
    // then re-arm the socket if the window allows.
    DeliverFrames();
    UpdateInterest();
  }
  if ((draining_ || peer_eof_) && write_queue_.empty() &&
      outstanding_.load(std::memory_order_relaxed) == 0) {
    CloseNow();
  }
}

void Connection::UpdateInterest() {
  if (!registered_ || closed_) return;
  const uint32_t wanted = (reading_ ? EPOLLIN : 0u) |
                          (!write_queue_.empty() ? EPOLLOUT : 0u);
  if (wanted == interest_) return;
  if (loop_->Mod(fd_, wanted).ok()) interest_ = wanted;
}

void Connection::CloseNow() {
  if (closed_) return;
  closed_ = true;
  reading_ = false;
  // Undispatched replies die with the connection; retire their slots so
  // server-wide in-flight accounting reaches zero.
  const size_t dropped = write_queue_.size();
  write_queue_.clear();
  queued_replies_.store(0, std::memory_order_relaxed);
  outstanding_.fetch_sub(dropped, std::memory_order_relaxed);
  if (registered_) {
    loop_->Del(fd_);
    registered_ = false;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (callbacks_.on_close) callbacks_.on_close(this);
}

}  // namespace sse::net
