#include "sse/net/worker_pool.h"

#include <utility>

namespace sse::net {

WorkerPool::WorkerPool(size_t threads) {
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() { Shutdown(); }

void WorkerPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

WorkerPool::SubmitResult WorkerPool::TrySubmit(std::function<void()> task,
                                               size_t max_queue) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return SubmitResult::kShutdown;
    if (max_queue > 0 && queue_.size() >= max_queue) {
      return SubmitResult::kQueueFull;
    }
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
  return SubmitResult::kAccepted;
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace sse::net
