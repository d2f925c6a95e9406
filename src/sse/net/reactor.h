#ifndef SSE_NET_REACTOR_H_
#define SSE_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sse/util/result.h"

namespace sse::net {

/// Event-driven network core: N epoll loop threads, each owning a set of
/// non-blocking fds, level-triggered. An fd's epoll interest, reads and
/// lifecycle run on the loop thread that owns it; other threads reach the
/// loop through Post(), which enqueues a closure under a mutex and wakes
/// the loop via an eventfd. A handler may let other threads write to its
/// fd under a lock of its own: `Connection` does, so that the worker that
/// produced a reply can send it without a post (see net/connection.h).
///
/// The reactor replaces thread-per-connection serving: however many
/// connections are registered, the thread budget stays `loops` here plus
/// whatever dispatch pool the owner runs handlers on.
class EventLoop {
 public:
  /// Receiver for readiness events on one registered fd. Dispatched by fd
  /// lookup (not by stored pointer), so a handler removed mid-batch is
  /// never invoked on a stale pointer.
  class Handler {
   public:
    virtual ~Handler() = default;
    virtual void OnEvents(uint32_t events) = 0;  // EPOLL* bits
  };

  EventLoop();
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Spawns the loop thread. Call once.
  void Start();
  /// Asks the loop to exit, runs any still-pending posted closures once,
  /// and joins the thread. Idempotent.
  void Stop();

  /// Enqueues `fn` to run on the loop thread; wakes the loop. Safe from
  /// any thread, including the loop thread itself (runs this wake cycle).
  void Post(std::function<void()> fn);

  /// Runs `fn` inline when already on the loop thread, else Post()s it.
  void RunInLoop(std::function<void()> fn);

  bool InLoopThread() const {
    return std::this_thread::get_id() == loop_thread_id_.load();
  }

  /// fd registration; loop-thread-only (assert via InLoopThread).
  Status Add(int fd, uint32_t events, Handler* handler);
  Status Mod(int fd, uint32_t events);
  void Del(int fd);

 private:
  void Run();
  void Wake();
  void DrainWakeFd();
  void RunPending();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
  std::atomic<std::thread::id> loop_thread_id_{};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};

  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;

  /// fd -> handler, loop-thread-only after Start.
  std::map<int, Handler*> handlers_;
};

/// A fixed set of EventLoops plus round-robin placement for new
/// connections. Loop 0 conventionally carries the acceptor.
class Reactor {
 public:
  explicit Reactor(size_t loops);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void Start();
  void Stop();

  EventLoop* loop(size_t i) { return loops_[i].get(); }
  size_t loop_count() const { return loops_.size(); }

  /// The loop the next connection should land on (round-robin).
  EventLoop* NextLoop();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::atomic<size_t> next_{0};
};

}  // namespace sse::net

#endif  // SSE_NET_REACTOR_H_
