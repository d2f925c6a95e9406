#include "sse/net/connection.h"

#include <sys/epoll.h>
#include <unistd.h>

#include <utility>

#include "sse/net/socket_util.h"
#include "sse/obs/metrics_registry.h"

namespace sse::net {

namespace {

obs::MetricsRegistry::Counter* ReadPauseCounter() {
  static auto* counter = obs::MetricsRegistry::Global().GetCounter(
      "sse_net_read_pauses_total",
      "Connections paused by reply-window backpressure");
  return counter;
}

}  // namespace

Connection::Connection(int fd, EventLoop* loop, Callbacks callbacks)
    : loop_(loop), callbacks_(std::move(callbacks)), fd_(fd) {}

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

void Connection::SendFrame(Bytes frame) {
  // What the loop must do after this send, if anything.
  void (Connection::*then)() = nullptr;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (closed_) {
      // The reply raced a close: drop the bytes but retire the slot so
      // drains and backpressure never wedge.
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      return;
    }
    if (!write_queue_.empty()) {
      // The loop is writing the queue (EPOLLOUT is armed, or an arm is
      // posted): go behind it.
      write_queue_.push_back(std::move(frame));
      return;
    }
    size_t written = 0;
    IoResult r = IoResult::kOk;
    while (written < frame.size()) {
      size_t n = 0;
      r = WriteSomeNonBlocking(fd_, frame.data() + written,
                               frame.size() - written, &n);
      if (r != IoResult::kOk) break;
      written += n;
    }
    if (written == frame.size()) {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      // Reading stopped (full window, drain or peer EOF): only the loop can
      // resume it or close, and it may be waiting for this slot.
      if (!reading_) then = &Connection::AfterRetire;
    } else if (r == IoResult::kWouldBlock) {
      // The socket is full: the loop writes the rest on EPOLLOUT.
      write_queue_.push_back(std::move(frame));
      write_offset_ = written;
      then = &Connection::UpdateInterest;
    } else {
      outstanding_.fetch_sub(1, std::memory_order_relaxed);
      then = &Connection::CloseNow;
    }
  }
  if (then == nullptr) return;
  // Posted even on the loop thread: a shed reply is sent from inside
  // DeliverFrames, which must not re-enter itself.
  auto self = shared_from_this();
  loop_->Post([self, then] { (self.get()->*then)(); });
}

void Connection::BeginDrain() {
  auto self = shared_from_this();
  loop_->RunInLoop([self] {
    if (self->closed_) return;
    self->draining_ = true;
    {
      std::lock_guard<std::mutex> lock(self->write_mu_);
      self->reading_ = false;
    }
    self->UpdateInterest();
    self->CloseIfDone();
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
  if ((events & EPOLLOUT) != 0) FlushWrites();
  if (closed_) return;
  if ((events & EPOLLHUP) != 0 && !reading_ &&
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
      // Frames already received still get served (DeliverFrames stops
      // reading under the lock); replies flush to the (possibly
      // half-closed) peer, then the connection retires.
      DeliverFrames();
      UpdateInterest();
      CloseIfDone();
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
  for (;;) {
    while (!closed_ &&
           outstanding_.load(std::memory_order_relaxed) < kMaxOutstanding &&
           assembler_.Next(&frame)) {
      outstanding_.fetch_add(1, std::memory_order_relaxed);
      callbacks_.on_frame(shared_from_this(), std::move(frame));
    }
    if (closed_) return;
    // Backpressure: pause the socket while a full window of replies is in
    // flight (or frames are still buffered waiting for a free slot). The
    // decision is made under the lock a sender retires its slot under.
    bool paused = false;
    {
      std::lock_guard<std::mutex> lock(write_mu_);
      const bool window_open =
          outstanding_.load(std::memory_order_relaxed) < kMaxOutstanding;
      // A reply retired since the loop above stopped: deliver more.
      if (window_open && assembler_.ready() > 0) continue;
      const bool was_reading = reading_;
      reading_ = !draining_ && !peer_eof_ && window_open;
      paused = was_reading && !reading_ && !draining_ && !peer_eof_;
    }
    if (paused) ReadPauseCounter()->Add();
    return;
  }
}

void Connection::FlushWrites() {
  size_t retired = 0;
  bool failed = false;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    while (!write_queue_.empty()) {
      const Bytes& front = write_queue_.front();
      size_t n = 0;
      const IoResult r = WriteSomeNonBlocking(
          fd_, front.data() + write_offset_, front.size() - write_offset_, &n);
      if (r == IoResult::kWouldBlock) break;  // resume here on EPOLLOUT
      if (r != IoResult::kOk) {
        failed = true;
        break;
      }
      write_offset_ += n;
      if (write_offset_ == front.size()) {
        write_queue_.pop_front();
        write_offset_ = 0;
        outstanding_.fetch_sub(1, std::memory_order_relaxed);
        ++retired;
      }
    }
  }
  if (failed) {
    CloseNow();
    return;
  }
  UpdateInterest();
  if (retired > 0) AfterRetire();
}

void Connection::AfterRetire() {
  if (closed_) return;
  if (!reading_ && !draining_ && !peer_eof_) {
    // A backpressure slot opened: serve any frames buffered while paused,
    // then re-arm the socket if the window allows.
    DeliverFrames();
    UpdateInterest();
  }
  CloseIfDone();
}

void Connection::CloseIfDone() {
  // Queued replies hold slots too, so no slot outstanding means nothing
  // left to send.
  if (!closed_ && (draining_ || peer_eof_) &&
      outstanding_.load(std::memory_order_relaxed) == 0) {
    CloseNow();
  }
}

void Connection::UpdateInterest() {
  if (!registered_ || closed_) return;
  bool want_write = false;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    want_write = !write_queue_.empty();
  }
  const uint32_t wanted =
      (reading_ ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  if (wanted == interest_) return;
  if (loop_->Mod(fd_, wanted).ok()) interest_ = wanted;
}

void Connection::CloseNow() {
  if (closed_) return;
  if (registered_) {
    loop_->Del(fd_);
    registered_ = false;
  }
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    closed_ = true;
    reading_ = false;
    // Queued replies die with the connection; retire their slots so
    // server-wide in-flight accounting reaches zero.
    outstanding_.fetch_sub(write_queue_.size(), std::memory_order_relaxed);
    write_queue_.clear();
    write_offset_ = 0;
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  if (callbacks_.on_close) callbacks_.on_close(this);
}

}  // namespace sse::net
