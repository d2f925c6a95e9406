#ifndef SSE_NET_CONNECTION_H_
#define SSE_NET_CONNECTION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>

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
///  3. writes each reply on the thread that sends it when the socket takes
///     it at once, and otherwise queues it for the loop, which drains the
///     queue on EPOLLOUT, resuming partial writes where they stopped, and
///  4. applies backpressure: once `kMaxOutstanding` frames are dispatched
///     but their replies not yet fully written, the connection drops
///     EPOLLIN interest and stops pulling bytes off the socket; TCP flow
///     control pushes back to the client. Reading resumes as replies
///     retire.
///
/// Threading: the loop thread owns reads, epoll interest, pause, drain and
/// close. `SendFrame` runs on any thread — usually the dispatch worker
/// that produced the reply. `write_mu_` guards what both sides touch: the
/// write queue, the partial-write offset, whether the fd is open
/// (`closed_`, `fd_`) and `reading_`. The loop changes those only under
/// the lock and, as their only writer, may read `closed_`, `fd_` and
/// `reading_` without it; other threads read them only under it. Nothing
/// calls out while holding the lock: `on_frame`, `on_close` and every post
/// to the loop run after it is released. Invariants:
///  - Every delivered frame retires exactly once, when its reply is
///    written whole (by the sender or by the loop) or dropped because the
///    connection closed (by CloseNow if it was queued, by SendFrame if it
///    came later). `outstanding()` returns to zero, which drain and
///    TcpServer::Stop wait for.
///  - Frames on one socket never interleave: every send() runs under
///    `write_mu_`, and a sender writes directly only into an empty queue;
///    otherwise its frame goes behind what is queued, so one thread's
///    replies also leave in the order it sent them.
///  - No write reaches a closed or reused fd: CloseNow closes the fd under
///    `write_mu_`, and a sender checks `closed_` under the same lock. A
///    dispatch task holds the connection by shared_ptr, so a late reply
///    finds it closed, never freed.
///  - No wake-up is lost: a sender retires its slot and reads `reading_`
///    in one critical section, and the loop clears `reading_` (pause,
///    drain, peer EOF) under the same lock before it re-checks the
///    outstanding count. Either the loop sees the slot retired, or the
///    sender sees reading stopped and posts the loop to resume or close.
///  - A sender never blocks on the socket: send() is non-blocking, and
///    whatever the socket does not take at once goes to the loop.
class Connection : public EventLoop::Handler,
                   public std::enable_shared_from_this<Connection> {
 public:
  /// Backpressure bound: frames dispatched whose replies are not yet
  /// fully on the wire.
  static constexpr size_t kMaxOutstanding = 64;

  struct Callbacks {
    /// A decoded request frame. Runs on the loop thread; implementations
    /// must hand the work off (e.g. WorkerPool::TrySubmit) and later answer
    /// it with conn->SendFrame(reply.EncodeFrame()).
    std::function<void(const std::shared_ptr<Connection>&, Bytes frame)>
        on_frame;
    /// The connection fully closed (fd released). Loop thread.
    std::function<void(Connection*)> on_close;
  };

  /// Takes ownership of `fd` (non-blocking). Call Register() afterwards.
  Connection(int fd, EventLoop* loop, Callbacks callbacks);
  ~Connection() override;

  /// Registers with the loop and starts reading. Any thread.
  void Register();

  /// Sends one reply frame, length prefix included (Message::EncodeFrame).
  /// Any thread; pairs 1:1 with an `on_frame` delivery. Into an empty
  /// write queue the frame is written here; what the socket does not take
  /// at once is queued for the loop. If the connection has closed the
  /// frame is dropped but still retired, so outstanding counts stay
  /// balanced.
  void SendFrame(Bytes frame);

  /// Stops reading new frames; queued requests still complete and queued
  /// replies still flush ("drain" half of graceful shutdown). Any thread.
  void BeginDrain();

  /// Hard-closes: drops queued replies and releases the fd. Any thread.
  void Close();

  /// Dispatched-but-not-fully-written frames (approximate cross-thread).
  size_t outstanding() const {
    return outstanding_.load(std::memory_order_relaxed);
  }

 private:
  void OnEvents(uint32_t events) override;
  void HandleReadable();
  /// Pops reassembled frames and hands them to on_frame until the
  /// backpressure window fills; recomputes the read-pause state.
  void DeliverFrames();
  /// Flushes as much of the write queue as the socket accepts.
  void FlushWrites();
  void UpdateInterest();
  /// Loop side of retiring replies: serves frames buffered while the
  /// window was full and re-arms reads, or closes a draining or half-closed
  /// connection that has nothing left to send.
  void AfterRetire();
  /// Closes a draining or half-closed connection once no reply is
  /// outstanding.
  void CloseIfDone();
  void CloseNow();

  EventLoop* loop_;
  Callbacks callbacks_;

  FrameAssembler assembler_;
  uint32_t interest_ = 0;  // current epoll mask
  bool registered_ = false;
  bool draining_ = false;
  bool peer_eof_ = false;

  /// Guards the members below it (see the class comment).
  std::mutex write_mu_;
  int fd_;
  std::deque<Bytes> write_queue_;  // frames, length prefix included
  size_t write_offset_ = 0;        // into write_queue_.front()
  bool closed_ = false;
  bool reading_ = true;  // EPOLLIN wanted (false: paused, draining or EOF)

  std::atomic<size_t> outstanding_{0};
};

}  // namespace sse::net

#endif  // SSE_NET_CONNECTION_H_
