#ifndef SSE_NET_WORKER_POOL_H_
#define SSE_NET_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sse::net {

/// Fixed-size worker pool executing submitted closures FIFO.
///
/// TcpServer's dispatch pool: the reactor loops hand each decoded request
/// frame to it, and a worker runs the handler and writes the reply to the
/// connection itself (Connection::SendFrame).
/// Nothing waits on a task it submitted, so tasks never block a worker on
/// work queued behind it.
class WorkerPool {
 public:
  explicit WorkerPool(size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Outcome of a TrySubmit: accepted, refused because the queue already
  /// holds `max_queue` tasks (shed — the caller owes the client a
  /// retryable verdict), or refused because the pool is shutting down
  /// (drop silently, the server is going away).
  enum class SubmitResult { kAccepted, kQueueFull, kShutdown };

  /// Enqueues `task` for asynchronous execution, refusing with kQueueFull
  /// when `max_queue` (> 0) tasks are already queued — keeping dispatch
  /// latency, not just dispatch memory, bounded under overload.
  /// max_queue == 0 means unbounded.
  SubmitResult TrySubmit(std::function<void()> task, size_t max_queue);

  /// Drains the queue and joins the workers, leaving the object valid:
  /// concurrent TrySubmit/queue_depth callers see a stopped pool instead
  /// of freed memory. Idempotent; the destructor calls it.
  void Shutdown();

  size_t thread_count() const { return threads_.size(); }

  /// Tasks queued but not yet picked up by a worker; the server samples
  /// this at each dispatch into the sse_net_dispatch_queue_depth series.
  size_t queue_depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace sse::net

#endif  // SSE_NET_WORKER_POOL_H_
