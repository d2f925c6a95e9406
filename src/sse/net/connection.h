#ifndef SSE_NET_CONNECTION_H_
#define SSE_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "sse/net/frame.h"
#include "sse/net/reactor.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::net {

/// One accepted socket on an EventLoop: a state machine that
///  1. reassembles length-prefixed frames incrementally (FrameAssembler,
///     shared with the client channel),
///  2. hands each decoded frame to `on_frame` (which dispatches it into a
///     process-wide pool — NOT on the loop thread),
///  3. drains a buffered write queue on EPOLLOUT, resuming partial writes
///     where they stopped, and
///  4. applies backpressure: once `max_outstanding` frames are dispatched
///     but their replies not yet fully written, the connection drops
///     EPOLLIN interest and stops pulling bytes off the socket; TCP flow
///     control pushes back to the client. Reading resumes as replies
///     drain.
///
/// Threading: every member is owned by the connection's loop thread.
/// `SendFrame` is the one cross-thread entry point — it posts the framed
/// bytes to the loop. Dispatch callbacks hold the connection alive via
/// shared_ptr; after Close() their completions are counted and dropped,
/// so a late handler reply can never touch a reused fd.
class Connection : public EventLoop::Handler,
                   public std::enable_shared_from_this<Connection> {
 public:
  struct Options {
    /// Backpressure bound: frames dispatched whose replies are not yet
    /// fully on the wire. 1 restores strict request->reply lockstep.
    size_t max_outstanding = 64;
  };

  struct Callbacks {
    /// A decoded request frame. Runs on the loop thread; implementations
    /// must hand the work off (e.g. WorkerPool::Submit) and later call
    /// conn->SendFrame(reply) or conn->AbandonReply().
    std::function<void(const std::shared_ptr<Connection>&, Bytes frame)>
        on_frame;
    /// The connection fully closed (fd released). Loop thread.
    std::function<void(Connection*)> on_close;
  };

  /// Takes ownership of `fd` (non-blocking). Call Register() afterwards.
  Connection(int fd, EventLoop* loop, Options options, Callbacks callbacks);
  ~Connection() override;

  /// Registers with the loop and starts reading. Any thread.
  void Register();

  /// Queues one reply frame (payload only; framing added here) and
  /// schedules the write. Any thread. Pairs 1:1 with an `on_frame`
  /// delivery. If the connection has closed meanwhile the reply is
  /// dropped but still accounted, so outstanding counts stay balanced.
  void SendFrame(Bytes payload);

  /// Accounts a dispatched frame that will never produce a reply frame.
  /// Any thread.
  void AbandonReply();

  /// Stops reading new frames; queued requests still complete and queued
  /// replies still flush ("drain" half of graceful shutdown). Any thread.
  void BeginDrain();

  /// Hard-closes: drops queued replies and releases the fd. Any thread.
  void Close();

  /// Dispatched-but-not-fully-written frames (approximate cross-thread).
  size_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }
  /// Reply frames queued or mid-write (approximate cross-thread).
  size_t queued_replies() const {
    return queued_replies_.load(std::memory_order_relaxed);
  }
  bool closed() const { return closed_flag_.load(std::memory_order_acquire); }

  int fd() const { return fd_; }
  EventLoop* loop() const { return loop_; }

  /// Steady-clock milliseconds of the last byte read or written (set at
  /// construction, then on socket activity). Cross-thread readable; the
  /// idle sweeper compares it against NowMs().
  int64_t last_activity_ms() const {
    return last_activity_ms_.load(std::memory_order_relaxed);
  }
  /// The activity clock's notion of "now".
  static int64_t NowMs();

 private:
  void OnEvents(uint32_t events) override;
  void HandleReadable();
  void HandleWritable();
  /// Pops reassembled frames and hands them to on_frame until the
  /// backpressure window fills; recomputes the read-pause state.
  void DeliverFrames();
  /// Appends one framed reply to the write queue (loop thread).
  void QueueReply(Bytes framed);
  /// Flushes as much of the write queue as the socket accepts.
  void FlushWrites();
  void UpdateInterest();
  void CloseNow();
  /// One reply fully left the state machine (written, dropped or
  /// abandoned): releases a backpressure slot.
  void ReplyRetired();

  int fd_;
  EventLoop* loop_;
  Options options_;
  Callbacks callbacks_;

  FrameAssembler assembler_;
  std::deque<Bytes> write_queue_;  // framed bytes
  size_t write_offset_ = 0;        // into write_queue_.front()

  uint32_t interest_ = 0;      // current epoll mask
  bool registered_ = false;
  bool reading_ = true;        // EPOLLIN wanted (false: paused or draining)
  bool draining_ = false;
  bool peer_eof_ = false;
  bool closed_ = false;        // loop-thread view

  std::atomic<size_t> outstanding_{0};
  std::atomic<size_t> queued_replies_{0};
  std::atomic<bool> closed_flag_{false};
  std::atomic<int64_t> last_activity_ms_{0};
};

}  // namespace sse::net

#endif  // SSE_NET_CONNECTION_H_
