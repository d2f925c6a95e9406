#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "sse/core/scheme3_messages.h"
#include "sse/engine/scheme3_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/tcp.h"
#include "test_util.h"

namespace sse::net {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

class EchoHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    return Message{static_cast<uint16_t>(request.type + 1), request.payload};
  }
};

/// Live thread count of this process, from the kernel's view.
size_t ThreadCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    count += 1;
  }
  return count;
}

/// Raises RLIMIT_NOFILE as far as allowed and returns the resulting soft
/// limit, so the soak can size itself to the sandbox.
size_t RaiseFdLimit() {
  struct rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return 1024;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    setrlimit(RLIMIT_NOFILE, &rl);
    getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<size_t>(rl.rlim_cur);
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool WaitFor(const std::function<bool()>& cond, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

/// The live thread count once it has held still for 100 ms (bounded by
/// WaitFor): a thread of an earlier test, such as a stopped server's, can
/// still be exiting when the next test takes its baseline.
size_t SettledThreadCount() {
  size_t count = ThreadCount();
  auto since = std::chrono::steady_clock::now();
  WaitFor(
      [&] {
        const size_t now = ThreadCount();
        if (now != count) {
          count = now;
          since = std::chrono::steady_clock::now();
        }
        return std::chrono::steady_clock::now() - since >=
               std::chrono::milliseconds(100);
      },
      10000);
  return count;
}

// The refactor's core claim: connections cost file descriptors, not
// threads. Thousands of idle connections leave the process thread count
// exactly where it was, and the server still answers requests promptly.
TEST(NetScaleTest, IdleConnectionSoakKeepsThreadBudgetFixed) {
  const size_t fd_limit = RaiseFdLimit();
  // The soak sizes itself to the sandbox: each connection costs two fds
  // (client end + accepted end), and 256 are reserved for everything else
  // the process holds open. A sandbox too small for a meaningful soak is
  // a skip, not a rigged pass.
  constexpr size_t kReservedFds = 256;
  constexpr size_t kMinTarget = 100;
  if (fd_limit < 2 * kMinTarget + kReservedFds) {
    GTEST_SKIP() << "RLIMIT_NOFILE " << fd_limit << " leaves no room for a "
                 << kMinTarget << "-connection soak";
  }
  size_t target = (fd_limit - kReservedFds) / 2;
  // Cap: beyond this the test measures the sandbox, not the reactor.
  target = std::min<size_t>(target, kUnderTsan ? 500 : 12000);

  EchoHandler handler;
  TcpServer::Options opts;
  opts.serialize_handler = false;
  opts.reactor_loops = 2;
  opts.dispatch_workers = 4;
  auto server = TcpServer::Start(&handler, 0, opts);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_EQ((*server)->serving_threads(), 2u + 4u);

  const size_t threads_before = ThreadCount();

  std::vector<int> fds;
  fds.reserve(target);
  for (size_t i = 0; i < target; ++i) {
    const int fd = ConnectLoopback((*server)->port());
    ASSERT_GE(fd, 0) << "connect " << i << " failed: " << std::strerror(errno);
    fds.push_back(fd);
  }
  ASSERT_TRUE(WaitFor(
      [&] { return (*server)->connections_active() >= target; }, 10000))
      << "accepted " << (*server)->connections_active() << " of " << target;

  // Thread-per-connection would have spawned `target` threads by now; the
  // reactor spawns none (tolerate a couple of unrelated runtime threads).
  const size_t threads_during = ThreadCount();
  EXPECT_LE(threads_during, threads_before + 2)
      << "thread count grew with connection count";

  // The server still answers a real request while holding them all.
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  const auto t0 = std::chrono::steady_clock::now();
  auto reply = (*channel)->Call(Message{7, Bytes{1, 2, 3}});
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            1000);

  for (const int fd : fds) ::close(fd);
  (*channel).reset();
  EXPECT_TRUE(WaitFor(
      [&] { return (*server)->connections_active() == 0; }, 10000))
      << (*server)->connections_active() << " connections still open";
  (*server)->Stop();
}

// The engine starts no thread of its own: every request runs on the
// thread that calls Handle(), so the process thread budget is the TCP
// server's alone, whatever the shard count.
TEST(NetScaleTest, EngineStartsNoThreads) {
  for (size_t shards : {4u, 8u}) {
    const size_t threads_before = SettledThreadCount();
    engine::EngineOptions options;
    options.num_shards = shards;
    auto engine = engine::ServerEngine::Create(
        std::make_unique<engine::Scheme3Adapter>(core::SchemeOptions{}),
        options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(ThreadCount(), threads_before) << shards << " shards";

    // A search reaches every shard holding one of its probes, still on
    // this thread.
    core::S3SearchRequest search;
    search.chain_element = Bytes(32, 1);
    search.counter = 64;
    auto reply = (*engine)->Handle(search.ToMessage());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(ThreadCount(), threads_before) << shards << " shards";
  }
}

// Churn with hostile clients: connections that vanish mid-request, tear a
// frame in half, or write garbage. The server must keep serving polite
// clients throughout and account every connection back down to zero.
TEST(NetScaleTest, ConnectionChurnUnderFaultsKeepsServing) {
  EchoHandler handler;
  TcpServer::Options opts;
  opts.serialize_handler = false;
  auto server = TcpServer::Start(&handler, 0, opts);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  const int kRounds = kUnderTsan ? 20 : 60;
  std::atomic<bool> failed{false};

  std::thread polite([&] {
    // A well-behaved client doing real round trips the whole time.
    auto channel = TcpChannel::Connect(port);
    if (!channel.ok()) {
      failed.store(true);
      return;
    }
    for (int i = 0; i < kRounds && !failed.load(); ++i) {
      auto reply = (*channel)->Call(Message{7, Bytes{static_cast<uint8_t>(i)}});
      if (!reply.ok() || reply->payload != Bytes{static_cast<uint8_t>(i)}) {
        failed.store(true);
      }
    }
  });

  std::thread rude([&] {
    for (int i = 0; i < kRounds; ++i) {
      const int fd = ConnectLoopback(port);
      if (fd < 0) continue;
      switch (i % 3) {
        case 0: {
          // Torn frame: a length prefix promising bytes that never come.
          const uint8_t torn[] = {0x40, 0x00, 0x00, 0x00, 0xAA};
          (void)!::send(fd, torn, sizeof(torn), MSG_NOSIGNAL);
          break;
        }
        case 1: {
          // Framed garbage: decodes as a frame, fails as a Message. The
          // server answers with an error frame instead of dying.
          Bytes wire = sse::testing::FrameBytes(Bytes{0xDE, 0xAD, 0xBE, 0xEF});
          (void)!::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        }
        default:
          // Connect-and-slam.
          break;
      }
      ::close(fd);
    }
  });

  polite.join();
  rude.join();
  EXPECT_FALSE(failed.load()) << "polite client failed during churn";
  // A rude client's connect returns before the reactor accepts it, so
  // both counts are waited for: every connection accepted, then every one
  // closed.
  EXPECT_TRUE(WaitFor(
      [&] {
        return (*server)->connections_accepted() >=
               static_cast<uint64_t>(kRounds);
      },
      10000))
      << "accepted " << (*server)->connections_accepted() << " of "
      << kRounds;
  EXPECT_TRUE(WaitFor(
      [&] { return (*server)->connections_active() == 0; }, 10000))
      << (*server)->connections_active() << " connections leaked";
  (*server)->Stop();
  EXPECT_EQ((*server)->connections_active(), 0u);
}

}  // namespace
}  // namespace sse::net
