#include "sse/net/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "sse/obs/metrics_registry.h"

namespace sse::net {

namespace {

/// Distribution of ready events per epoll_wait wakeup (value = event
/// count, not a duration): a proxy for how batched the loop runs under
/// fan-in. Registered once per process, merged across all loops.
obs::LatencyHistogram& EpollWaitHistogram() {
  static auto* h = [] {
    auto* hist = new obs::LatencyHistogram();
    static auto reg = obs::MetricsRegistry::Global().RegisterHistogram(
        "sse_net_epoll_wait",
        [hist] { return hist->Snap(); },
        "Ready events per epoll_wait wakeup across reactor loops "
        "(count, not time)");
    return hist;
  }();
  return *h;
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
}

EventLoop::~EventLoop() {
  Stop();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::Start() {
  if (started_.exchange(true)) return;
  // Register the wake eventfd before the thread runs so the first Post
  // cannot race the registration.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  thread_ = std::thread([this] {
    loop_thread_id_.store(std::this_thread::get_id());
    Run();
  });
}

void EventLoop::Stop() {
  if (!started_.load()) return;
  if (!stopping_.exchange(true)) Wake();
  if (thread_.joinable() && !InLoopThread()) thread_.join();
}

void EventLoop::Post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(fn));
  }
  Wake();
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  if (InLoopThread()) {
    fn();
  } else {
    Post(std::move(fn));
  }
}

void EventLoop::Wake() {
  const uint64_t one = 1;
  [[maybe_unused]] ssize_t n;
  do {
    n = ::write(wake_fd_, &one, sizeof(one));
  } while (n < 0 && errno == EINTR);
}

void EventLoop::DrainWakeFd() {
  uint64_t buf;
  ssize_t n;
  do {
    n = ::read(wake_fd_, &buf, sizeof(buf));
  } while (n > 0 || (n < 0 && errno == EINTR));
}

Status EventLoop::Add(int fd, uint32_t events, Handler* handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IoError("epoll_ctl(ADD) failed: " +
                           std::string(std::strerror(errno)));
  }
  handlers_[fd] = handler;
  return Status::OK();
}

Status EventLoop::Mod(int fd, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IoError("epoll_ctl(MOD) failed: " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

void EventLoop::Del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::RunPending() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    tasks.swap(pending_);
  }
  for (auto& task : tasks) task();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll fd gone; nothing sane left to do
    }
    EpollWaitHistogram().Record(static_cast<uint64_t>(n));
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        DrainWakeFd();
        continue;
      }
      // Look the handler up per event: an earlier handler in this batch
      // may have closed this fd (Del erases the entry), in which case the
      // stale readiness bit is simply dropped.
      auto it = handlers_.find(fd);
      if (it != handlers_.end()) it->second->OnEvents(events[i].events);
    }
    RunPending();
  }
  // Run closures posted up to the stop point so resources they carry
  // (shared connection handles, completion notifications) are released.
  RunPending();
}

Reactor::Reactor(size_t loops) {
  if (loops == 0) loops = 1;
  loops_.reserve(loops);
  for (size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
  }
}

Reactor::~Reactor() { Stop(); }

void Reactor::Start() {
  for (auto& loop : loops_) loop->Start();
}

void Reactor::Stop() {
  for (auto& loop : loops_) loop->Stop();
}

EventLoop* Reactor::NextLoop() {
  return loops_[next_.fetch_add(1, std::memory_order_relaxed) % loops_.size()]
      .get();
}

}  // namespace sse::net
