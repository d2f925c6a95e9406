#include "sse/net/tcp.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/net/retry.h"
#include "sse/net/socket_util.h"
#include "sse/obs/metrics_registry.h"
#include "test_util.h"

namespace sse::net {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::TestMasterKey;

class EchoHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    if (request.type == 99) return Status::Internal("boom");
    return Message{static_cast<uint16_t>(request.type + 1), request.payload};
  }
};

TEST(TcpTest, RoundTripOverRealSockets) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  EXPECT_GT((*server)->port(), 0);

  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  Message request{7, Bytes{1, 2, 3}};
  auto reply = (*channel)->Call(request);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, 8);
  EXPECT_EQ(reply->payload, request.payload);
  EXPECT_EQ((*channel)->stats().rounds, 1u);
  EXPECT_EQ((*server)->requests_served(), 1u);
}

TEST(TcpTest, HandlerErrorTravelsAsStatus) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  auto reply = (*channel)->Call(Message{99, {}});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInternal);
}

TEST(TcpTest, LargePayloads) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  DeterministicRandom rng(1);
  Bytes big(1 << 20);
  ASSERT_TRUE(rng.Fill(big).ok());
  auto reply = (*channel)->Call(Message{1, big});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->payload, big);
}

TEST(TcpTest, ConcurrentClients) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  constexpr int kClients = 4;
  constexpr int kCallsEach = 50;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto channel = TcpChannel::Connect((*server)->port());
      if (!channel.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        Bytes payload{static_cast<uint8_t>(c), static_cast<uint8_t>(i)};
        auto reply = (*channel)->Call(Message{1, payload});
        if (!reply.ok() || reply->payload != payload) ++failures;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*server)->requests_served(),
            static_cast<uint64_t>(kClients * kCallsEach));
}

TEST(TcpTest, StopUnblocksIdleConnection) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call(Message{1, {}}).ok());
  // The connection stays open and idle; Stop must not hang on it.
  (*server)->Stop();
  EXPECT_FALSE((*channel)->Call(Message{1, {}}).ok());
}

TEST(TcpTest, SequentialConnections) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  for (int i = 0; i < 3; ++i) {
    auto channel = TcpChannel::Connect((*server)->port());
    ASSERT_TRUE(channel.ok()) << "connection " << i;
    auto reply = (*channel)->Call(Message{1, Bytes{static_cast<uint8_t>(i)}});
    ASSERT_TRUE(reply.ok());
  }
  EXPECT_EQ((*server)->requests_served(), 3u);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Grab a port, then stop the server: connecting must fail cleanly.
  EchoHandler handler;
  uint16_t port = 0;
  {
    auto server = TcpServer::Start(&handler);
    ASSERT_TRUE(server.ok());
    port = (*server)->port();
  }
  auto channel = TcpChannel::Connect(port);
  EXPECT_FALSE(channel.ok());
}

TEST(TcpTest, StopIsIdempotent) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  (*server)->Stop();
  (*server)->Stop();
}

class SlowHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    if (slow_.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
    }
    return Message{static_cast<uint16_t>(request.type + 1), request.payload};
  }
  std::atomic<bool> slow_{true};
};

TEST(TcpTest, RecvTimeoutSurfacesDeadlineExceeded) {
  SlowHandler handler;
  // Serve connections truly concurrently so the reconnect after the timeout
  // is not stuck behind the still-sleeping first request.
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  TcpChannel::Options opts;
  opts.recv_timeout_ms = 50.0;
  auto channel = TcpChannel::Connect((*server)->port(), "127.0.0.1", opts);
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  auto reply = (*channel)->Call(Message{1, Bytes{1}});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(reply.status().IsRetryable());
  // The timed-out connection is torn down: the late reply can never be
  // mistaken for an answer to a later call.
  EXPECT_FALSE((*channel)->connected());

  // With the handler fast again, the next Call transparently redials.
  handler.slow_.store(false);
  auto retry = (*channel)->Call(Message{1, Bytes{2}});
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->payload, Bytes{2});
  EXPECT_EQ((*channel)->reconnects(), 1u);
}

TEST(TcpTest, ResetForcesReconnectOnNextCall) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  ASSERT_TRUE((*channel)->Call(Message{1, Bytes{1}}).ok());

  (*channel)->Reset();
  EXPECT_FALSE((*channel)->connected());
  auto reply = (*channel)->Call(Message{1, Bytes{2}});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ((*channel)->reconnects(), 1u);
  EXPECT_EQ((*server)->connections_accepted(), 2u);
}

TEST(TcpTest, ReconnectDisabledFailsFastAfterReset) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  TcpChannel::Options opts;
  opts.auto_reconnect = false;
  auto channel = TcpChannel::Connect((*server)->port(), "127.0.0.1", opts);
  ASSERT_TRUE(channel.ok());
  (*channel)->Reset();
  auto reply = (*channel)->Call(Message{1, {}});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(TcpTest, SessionStampSurvivesTheWire) {
  EchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  Message request{7, Bytes{1, 2, 3}};
  request.StampSession(1234, 56);
  auto reply = (*channel)->Call(request);
  // EchoHandler copies type+payload but not the stamp; what matters here
  // is that a stamped request framed over a real socket decodes cleanly.
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->payload, request.payload);
}

/// Echoes type + 1 and the request's session stamp, the way the real
/// server stacks do — which is what pipelined correlation relies on.
class SessionEchoHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    Message reply{static_cast<uint16_t>(request.type + 1), request.payload};
    reply.EchoSession(request);
    return reply;
  }
};

TEST(TcpPipelineTest, SubmitManyAwaitInReverseOrder) {
  SessionEchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  constexpr int kInflight = 8;
  std::vector<Channel::CallId> ids;
  for (int i = 0; i < kInflight; ++i) {
    Message request{7, Bytes{static_cast<uint8_t>(i)}};
    request.StampSession(42, 100 + static_cast<uint64_t>(i));
    ids.push_back((*channel)->Submit(request));
  }
  EXPECT_EQ((*channel)->pending_calls(), static_cast<size_t>(kInflight));
  // All eight frames hit the wire before the first Await.
  EXPECT_EQ((*channel)->stats().frames_sent,
            static_cast<uint64_t>(kInflight));

  // Awaiting in reverse forces the channel to buffer earlier replies and
  // correlate each frame by its (client_id, seq) echo.
  for (int i = kInflight - 1; i >= 0; --i) {
    auto reply = (*channel)->Await(ids[static_cast<size_t>(i)]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->payload, Bytes{static_cast<uint8_t>(i)});
    EXPECT_EQ(reply->seq, 100 + static_cast<uint64_t>(i));
  }
  EXPECT_EQ((*channel)->pending_calls(), 0u);
  EXPECT_EQ((*channel)->stats().frames_received,
            static_cast<uint64_t>(kInflight));
}

/// Sleeps on requests whose first payload byte is 1, so a later fast
/// request's reply overtakes it on the wire.
class StallMarkedHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    if (!request.payload.empty() && request.payload[0] == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    Message reply{static_cast<uint16_t>(request.type + 1), request.payload};
    reply.EchoSession(request);
    return reply;
  }
};

TEST(TcpPipelineTest, OutOfOrderRepliesCorrelateBySessionEcho) {
  StallMarkedHandler handler;
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;  // let the fast request overtake
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  Message slow{7, Bytes{1}};
  slow.StampSession(9, 1);
  Message fast{7, Bytes{0}};
  fast.StampSession(9, 2);
  const Channel::CallId slow_id = (*channel)->Submit(slow);
  const Channel::CallId fast_id = (*channel)->Submit(fast);

  // The slow reply is awaited first even though the fast one reaches the
  // socket first: the channel must buffer the overtaking frame for its own
  // call instead of handing it to the wrong one.
  auto slow_reply = (*channel)->Await(slow_id);
  ASSERT_TRUE(slow_reply.ok()) << slow_reply.status().ToString();
  EXPECT_EQ(slow_reply->payload, Bytes{1});
  EXPECT_EQ(slow_reply->seq, 1u);

  auto fast_reply = (*channel)->Await(fast_id);
  ASSERT_TRUE(fast_reply.ok()) << fast_reply.status().ToString();
  EXPECT_EQ(fast_reply->payload, Bytes{0});
  EXPECT_EQ(fast_reply->seq, 2u);
}

TEST(TcpPipelineTest, UnstampedSubmissionsMatchFifo) {
  SessionEchoHandler handler;
  TcpServer::Options server_opts;
  server_opts.dispatch_workers = 1;  // strict reply order for FIFO matching
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  const Channel::CallId a = (*channel)->Submit(Message{7, Bytes{10}});
  const Channel::CallId b = (*channel)->Submit(Message{7, Bytes{11}});
  auto reply_a = (*channel)->Await(a);
  ASSERT_TRUE(reply_a.ok()) << reply_a.status().ToString();
  EXPECT_EQ(reply_a->payload, Bytes{10});
  auto reply_b = (*channel)->Await(b);
  ASSERT_TRUE(reply_b.ok()) << reply_b.status().ToString();
  EXPECT_EQ(reply_b->payload, Bytes{11});
}

TEST(TcpPipelineTest, TransportFailureFailsEveryInflightCall) {
  SlowHandler handler;  // keeps both requests unanswered while we kill it
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  // Hard kill: no graceful drain, so the in-flight replies are dropped
  // rather than flushed (the drain path has its own regression test).
  server_opts.drain_timeout_ms = 0.0;
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  Message first{7, Bytes{1}};
  first.StampSession(5, 1);
  Message second{7, Bytes{2}};
  second.StampSession(5, 2);
  const Channel::CallId id1 = (*channel)->Submit(first);
  const Channel::CallId id2 = (*channel)->Submit(second);
  (*server)->Stop();

  // Frames after the failure point cannot be trusted: both in-flight calls
  // fail rather than hang or read a torn stream.
  EXPECT_FALSE((*channel)->Await(id1).ok());
  EXPECT_FALSE((*channel)->Await(id2).ok());
  EXPECT_EQ((*channel)->pending_calls(), 0u);
  EXPECT_FALSE((*channel)->connected());
}

class DrainProbeHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    arrived_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return Message{static_cast<uint16_t>(request.type + 1), request.payload};
  }
  std::atomic<int> arrived_{0};
};

TEST(TcpPipelineTest, GracefulStopDrainsInflightReplies) {
  DrainProbeHandler handler;
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  std::vector<Channel::CallId> ids;
  for (uint64_t i = 0; i < 4; ++i) {
    Message request{7, Bytes{static_cast<uint8_t>(i)}};
    request.StampSession(9, i + 1);
    ids.push_back((*channel)->Submit(request));
  }
  // Wait until every request has genuinely reached the handler, so Stop()
  // has real work in flight to drain (not just unread socket bytes).
  while (handler.arrived_.load() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*server)->Stop();

  // Graceful shutdown: the in-flight requests completed and their replies
  // were flushed before the sockets closed, so every call still succeeds.
  // (The handler does not echo session stamps, so with concurrent workers
  // the FIFO match may pair replies with other calls — what matters here
  // is that all four replies made it out before the close.)
  std::multiset<uint8_t> got;
  for (size_t i = 0; i < ids.size(); ++i) {
    auto reply = (*channel)->Await(ids[i]);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, 8);
    ASSERT_EQ(reply->payload.size(), 1u);
    got.insert(reply->payload[0]);
  }
  EXPECT_EQ(got, (std::multiset<uint8_t>{0, 1, 2, 3}));
  EXPECT_EQ((*server)->requests_served(), 4u);
  EXPECT_EQ((*server)->connections_active(), 0u);
}

TEST(TcpPipelineTest, ResetFailsInflightWithUnavailable) {
  SlowHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());
  Message request{7, Bytes{1}};
  request.StampSession(5, 1);
  const Channel::CallId id = (*channel)->Submit(request);
  (*channel)->Reset();
  auto reply = (*channel)->Await(id);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
}

TEST(TcpPipelineTest, AwaitRejectsUnknownAndSpentTickets) {
  SessionEchoHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  EXPECT_EQ((*channel)->Await(9999).status().code(),
            StatusCode::kInvalidArgument);
  const Channel::CallId id = (*channel)->Submit(Message{7, Bytes{1}});
  ASSERT_TRUE((*channel)->Await(id).ok());
  // A ticket can be awaited exactly once.
  EXPECT_EQ((*channel)->Await(id).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpPipelineTest, BatchedStoreOverTcpCostsFewFrames) {
  // The acceptance shape of the pipelined refactor: a K-keyword Store is
  // two pipelined batch envelopes — nonce round + update round — not 2·K
  // lockstep round trips. Measured in physical frames on a real socket.
  core::SchemeOptions options = FastTestConfig().scheme;
  options.batch_ops = true;
  auto engine = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(options),
      engine::EngineOptions{});
  SSE_ASSERT_OK_RESULT(engine);
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;  // the engine is thread-safe
  auto server = TcpServer::Start(engine->get(), 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  DeterministicRandom rng(3);
  RetryOptions retry_opts;
  retry_opts.batch_size = 64;
  retry_opts.max_inflight = 8;
  RetryingChannel retry(channel->get(), retry_opts, &rng);
  auto client =
      core::Scheme1Client::Create(TestMasterKey(), options, &retry, &rng);
  SSE_ASSERT_OK_RESULT(client);

  std::vector<std::string> keywords;
  for (int i = 0; i < 16; ++i) keywords.push_back("kw" + std::to_string(i));
  SSE_ASSERT_OK(
      (*client)->Store({core::Document::Make(1, "many keywords", keywords)}));
  EXPECT_LE((*channel)->stats().frames_sent, 4u);
  EXPECT_LE((*channel)->stats().frames_received, 4u);

  // And the pipelined MultiSearch answers every keyword correctly.
  auto outcomes = (*client)->MultiSearch(keywords);
  SSE_ASSERT_OK_RESULT(outcomes);
  ASSERT_EQ(outcomes->size(), keywords.size());
  for (const auto& outcome : *outcomes) {
    EXPECT_EQ(outcome.ids, (std::vector<uint64_t>{1}));
  }
}

// ------------------------------------------------------------ reply path --
// The dispatch worker writes its reply itself when the socket takes it at
// once. These cases drive what the common path never reaches: full socket
// buffers (partial writes queued for the loop), a full reply window (reads
// paused until a slot retires), and a peer that closes mid-flight.

template <typename Pred>
bool WaitFor(Pred pred, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

uint64_t ReadPauses() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sse_net_read_pauses_total")
      ->Value();
}

/// Answers every request with a 256 KiB payload derived from its seq, so a
/// reply's bytes show which call it answers and whether it arrived whole.
class BigReplyHandler : public MessageHandler {
 public:
  static Bytes Payload(uint64_t seq) {
    Bytes payload(256 * 1024);
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(seq * 131 + i / 1024 + i);
    }
    return payload;
  }
  Result<Message> Handle(const Message& request) override {
    Message reply{static_cast<uint16_t>(request.type + 1),
                  Payload(request.seq)};
    reply.EchoSession(request);
    return reply;
  }
};

TEST(TcpReplyPathTest, FullWindowAndPartialWritesDeliverEachReplyOnce) {
  BigReplyHandler handler;
  auto server = TcpServer::Start(&handler);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  // 80 calls, more than the reply window holds, whose 20 MiB of replies
  // the client does not read yet: the socket fills, replies go partial and
  // queue behind each other, and the full window pauses reading.
  constexpr uint64_t kCalls = 80;
  static_assert(kCalls > Connection::kMaxOutstanding);
  const uint64_t pauses_before = ReadPauses();
  std::vector<Channel::CallId> ids;
  for (uint64_t seq = 1; seq <= kCalls; ++seq) {
    Message request{7, Bytes{static_cast<uint8_t>(seq)}};
    request.StampSession(77, seq);
    ids.push_back((*channel)->Submit(request));
  }
  ASSERT_TRUE(WaitFor([&] { return ReadPauses() > pauses_before; },
                      std::chrono::seconds(10)))
      << "the reply window never filled";

  // Every reply arrives whole, matched to its own call.
  for (uint64_t seq = 1; seq <= kCalls; ++seq) {
    auto reply = (*channel)->Await(ids[seq - 1]);
    ASSERT_TRUE(reply.ok()) << "seq " << seq << ": "
                            << reply.status().ToString();
    EXPECT_EQ(reply->client_id, 77u);
    EXPECT_EQ(reply->seq, seq);
    EXPECT_TRUE(reply->payload == BigReplyHandler::Payload(seq))
        << "seq " << seq;
  }
  // The paused connection resumed: a further call is served, and no reply
  // came twice (a duplicate would have arrived ahead of this one).
  Message more{7, Bytes{0}};
  more.StampSession(77, kCalls + 1);
  auto reply = (*channel)->Call(more);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->seq, kCalls + 1);
  EXPECT_EQ((*channel)->stats().frames_received, kCalls + 1);
  EXPECT_EQ((*server)->requests_served(), kCalls + 1);
}

/// Sleeps about 20 ms per request, so replies are still being produced
/// after the peer has gone.
class SleepyEchoHandler : public MessageHandler {
 public:
  Result<Message> Handle(const Message& request) override {
    arrived_.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Message reply{static_cast<uint16_t>(request.type + 1), request.payload};
    reply.EchoSession(request);
    return reply;
  }
  std::atomic<int> arrived_{0};
};

TEST(TcpReplyPathTest, ClientCloseMidFlightLetsStopReturnPromptly) {
  SleepyEchoHandler handler;
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  server_opts.drain_timeout_ms = 5000.0;
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  for (uint64_t seq = 1; seq <= 32; ++seq) {
    Message request{7, Bytes{static_cast<uint8_t>(seq)}};
    request.StampSession(5, seq);
    (*channel)->Submit(request);
  }
  ASSERT_TRUE(WaitFor([&] { return handler.arrived_.load() >= 4; },
                      std::chrono::seconds(5)));
  channel->reset();  // closes the socket with most replies still to come

  // Every reply slot retires — written into the dying socket or dropped at
  // the close — so the drain ends long before its budget.
  const auto start = std::chrono::steady_clock::now();
  (*server)->Stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(stop_ms, 2500) << "a reply slot never retired";
  EXPECT_EQ((*server)->connections_active(), 0u);
}

TEST(TcpReplyPathTest, HalfClosedPeerGetsEveryReplyThenEof) {
  SleepyEchoHandler handler;
  TcpServer::Options server_opts;
  server_opts.serialize_handler = false;
  auto server = TcpServer::Start(&handler, 0, server_opts);
  ASSERT_TRUE(server.ok());
  Result<int> fd = DialTcp("127.0.0.1", (*server)->port(), 5000.0, 5000.0,
                           5000.0);
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();

  // Eight requests, then EOF. The loop sees the EOF long before the
  // handler's replies exist, so each worker that writes one finds reading
  // stopped and must wake the loop; the last wake-up closes the socket.
  constexpr uint64_t kCalls = 8;
  Bytes wire;
  for (uint64_t seq = 1; seq <= kCalls; ++seq) {
    Message request{7, Bytes{static_cast<uint8_t>(seq)}};
    request.StampSession(6, seq);
    const Bytes frame = request.EncodeFrame();
    wire.insert(wire.end(), frame.begin(), frame.end());
  }
  SSE_ASSERT_OK(WriteAllBlocking(*fd, wire.data(), wire.size()));
  ASSERT_EQ(::shutdown(*fd, SHUT_WR), 0);

  FrameAssembler rx;
  std::set<uint64_t> seqs;
  uint8_t buf[4096];
  for (;;) {
    const ssize_t n = ::recv(*fd, buf, sizeof(buf), 0);
    ASSERT_GE(n, 0) << "no EOF before the receive timeout";
    if (n == 0) break;
    SSE_ASSERT_OK(rx.Feed(buf, static_cast<size_t>(n)));
    Bytes frame;
    while (rx.Next(&frame)) {
      auto reply = Message::Decode(frame);
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      EXPECT_TRUE(seqs.insert(reply->seq).second) << "seq " << reply->seq;
    }
  }
  ::close(*fd);
  EXPECT_FALSE(rx.mid_frame());
  EXPECT_EQ(seqs.size(), kCalls);
  EXPECT_TRUE(WaitFor([&] { return (*server)->connections_active() == 0; },
                      std::chrono::seconds(5)));
}

TEST(TcpTest, FullSchemeOverTcp) {
  // The whole Scheme 2 stack over real sockets.
  const auto config = FastTestConfig();
  core::Scheme2Server scheme_server(config.scheme);
  auto server = TcpServer::Start(&scheme_server);
  ASSERT_TRUE(server.ok());
  auto channel = TcpChannel::Connect((*server)->port());
  ASSERT_TRUE(channel.ok());

  DeterministicRandom rng(5);
  auto client = core::Scheme2Client::Create(TestMasterKey(), config.scheme,
                                            channel->get(), &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({
      core::Document::Make(0, "over the wire", {"tcp", "net"}),
      core::Document::Make(1, "second doc", {"net"}),
  }));
  auto outcome = (*client)->Search("net");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "over the wire");
  EXPECT_EQ((*channel)->stats().rounds, 2u);  // 1 store + 1 search
}

}  // namespace
}  // namespace sse::net
