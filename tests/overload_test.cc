// The overload-protection suite: deadline propagation on the wire and
// through the handler layers, server-side admission control with
// mutation-vs-search priority, client-side retry budgets and per-endpoint
// circuit breakers, and a brownout chaos test driving the whole stack —
// real reactor TCP server, bounded dispatch queue, admission controller —
// past saturation while an oracle checks that exactly-once never breaks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "sse/baselines/cgko_sse1.h"
#include "sse/baselines/goh_zidx.h"
#include "sse/baselines/swp.h"
#include "sse/core/durable_server.h"
#include "sse/core/persistable.h"
#include "sse/core/registry.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "sse/engine/scheme_shard.h"
#include "sse/net/admission.h"
#include "sse/net/batch.h"
#include "sse/net/deadline.h"
#include "sse/net/message.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/net/worker_pool.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/stats_rpc.h"
#include "sse/repl/failover_channel.h"
#include "test_util.h"

namespace sse {
namespace {

using core::Document;
using core::SystemKind;
using net::AdmissionDecision;
using net::ClassifyFrame;
using net::Deadline;
using net::Message;
using net::OpClass;
using net::QueueAdmissionController;
using net::RetryAfterHintMs;
using net::RetryingChannel;
using net::RetryOptions;
using net::ScopedDeadline;
using net::WithRetryAfter;
using net::WorkerPool;
using sse::testing::FastTestConfig;
using sse::testing::TempDir;
using sse::testing::TestMasterKey;

// ---------------------------------------------------------------------------
// Deadline: wire header + anchored expiry + thread-local propagation.

TEST(DeadlineTest, WireHeaderRoundTripsOutsideSessionCrc) {
  Message msg{core::kMsgS1UpdateRequest, Bytes{1, 2, 3}};
  msg.StampSession(/*client=*/7, /*sequence=*/9);
  msg.has_deadline = true;
  msg.deadline_ms = 50;

  auto decoded = Message::Decode(msg.Encode());
  SSE_ASSERT_OK_RESULT(decoded);
  EXPECT_TRUE(decoded->has_deadline);
  EXPECT_EQ(decoded->deadline_ms, 50u);
  EXPECT_TRUE(decoded->has_session);
  EXPECT_EQ(decoded->client_id, 7u);
  EXPECT_EQ(decoded->payload, (Bytes{1, 2, 3}));

  // A retry may re-stamp a smaller budget on the already-stamped message:
  // the deadline header sits outside the session CRC, so the payload
  // checksum still verifies.
  msg.deadline_ms = 5;
  auto restamped = Message::Decode(msg.Encode());
  SSE_ASSERT_OK_RESULT(restamped);
  EXPECT_EQ(restamped->deadline_ms, 5u);

  // PeekSession still finds the stamp on the deadline-carrying frame.
  uint64_t client = 0, seq = 0;
  EXPECT_TRUE(Message::PeekSession(msg.Encode(), &client, &seq));
  EXPECT_EQ(client, 7u);
  EXPECT_EQ(seq, 9u);
}

TEST(DeadlineTest, AnchoredExpiryAndRemaining) {
  const uint64_t now = Deadline::NowNs();

  // "None": never expires, unbounded remaining budget.
  Deadline none;
  EXPECT_FALSE(none.has_deadline());
  EXPECT_FALSE(none.Expired(now + 1'000'000'000ull));
  EXPECT_EQ(none.RemainingMs(now), UINT32_MAX);

  Deadline fresh = Deadline::FromRemainingMs(100, now);
  EXPECT_TRUE(fresh.has_deadline());
  EXPECT_FALSE(fresh.Expired(now));
  EXPECT_FALSE(fresh.Expired(now + 99'000'000ull));
  EXPECT_TRUE(fresh.Expired(now + 100'000'000ull));
  EXPECT_EQ(fresh.RemainingMs(now + 100'000'000ull), 0u);
  EXPECT_LE(fresh.RemainingMs(now), 100u);

  // FromMessage anchors to the *local* observation clock, so queue wait
  // counts against the budget and remote clock skew cannot matter.
  Message msg{core::kMsgS2SearchRequest, {}};
  msg.has_deadline = true;
  msg.deadline_ms = 30;
  Deadline anchored = Deadline::FromMessage(msg, now - 40'000'000ull);
  EXPECT_TRUE(anchored.Expired(now));
  Deadline unanchored = Deadline::FromMessage(msg, now);
  EXPECT_FALSE(unanchored.Expired(now));

  Message plain{core::kMsgS2SearchRequest, {}};
  EXPECT_FALSE(Deadline::FromMessage(plain, now).has_deadline());
}

TEST(DeadlineTest, StampMessageWritesRemainingBudget) {
  Message msg{core::kMsgS2UpdateRequest, {}};
  Deadline d = Deadline::FromRemainingMs(40, Deadline::NowNs());
  d.StampMessage(&msg);
  ASSERT_TRUE(msg.has_deadline);
  EXPECT_GE(msg.deadline_ms, 1u);
  EXPECT_LE(msg.deadline_ms, 40u);

  // Stamping a "none" deadline strips any stale header.
  Deadline().StampMessage(&msg);
  EXPECT_FALSE(msg.has_deadline);
}

TEST(DeadlineTest, ScopedDeadlineNestsPerThread) {
  EXPECT_FALSE(net::CurrentDeadline().has_deadline());
  const uint64_t now = Deadline::NowNs();
  {
    ScopedDeadline outer(Deadline::FromRemainingMs(1000, now));
    EXPECT_TRUE(net::CurrentDeadline().has_deadline());
    const uint64_t outer_expiry = net::CurrentDeadline().expires_ns();
    {
      ScopedDeadline inner(Deadline::FromRemainingMs(10, now));
      EXPECT_NE(net::CurrentDeadline().expires_ns(), outer_expiry);
    }
    EXPECT_EQ(net::CurrentDeadline().expires_ns(), outer_expiry);

    // Other threads see their own (absent) deadline, not this one.
    std::thread([] {
      EXPECT_FALSE(net::CurrentDeadline().has_deadline());
    }).join();
  }
  EXPECT_FALSE(net::CurrentDeadline().has_deadline());
}

TEST(DeadlineTest, ExceededStatusIsRetryable) {
  const Status status = net::DeadlineExceededStatus("at dequeue");
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(status.IsRetryable());
  EXPECT_NE(status.message().find("at dequeue"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Admission: frame classification, retry-after hints, the queue policy.

TEST(AdmissionTest, ClassifiesFramesByWireType) {
  auto frame_of = [](uint16_t type) {
    return Message{type, Bytes{0xAA}}.Encode();
  };
  EXPECT_EQ(ClassifyFrame(frame_of(core::kMsgS1UpdateRequest)),
            OpClass::kMutation);
  EXPECT_EQ(ClassifyFrame(frame_of(core::kMsgS2UpdateRequest)),
            OpClass::kMutation);
  EXPECT_EQ(ClassifyFrame(frame_of(core::kMsgS2ReinitRequest)),
            OpClass::kMutation);
  EXPECT_EQ(ClassifyFrame(frame_of(core::kMsgS1SearchRequest)),
            OpClass::kSearch);
  EXPECT_EQ(ClassifyFrame(frame_of(core::kMsgS2SearchRequest)),
            OpClass::kSearch);
  EXPECT_EQ(ClassifyFrame(frame_of(net::kMsgStats)), OpClass::kControl);
  EXPECT_EQ(ClassifyFrame(frame_of(net::kMsgReplAppend)), OpClass::kControl);
  EXPECT_EQ(ClassifyFrame(frame_of(net::kMsgReplPromote)), OpClass::kControl);
  // Unknown types classify as mutations — the conservative (shed-first)
  // direction; a truncated frame likewise.
  EXPECT_EQ(ClassifyFrame(frame_of(0x7777)), OpClass::kMutation);
  EXPECT_EQ(ClassifyFrame(Bytes{0x01}), OpClass::kMutation);

  // Batch envelopes are classified by their first sub-op, through the
  // optional session/trace/deadline headers.
  auto batch_of = [](uint16_t op_type) {
    net::BatchRequest batch;
    batch.ops.push_back({/*seq=*/11, op_type, Bytes{1, 2}});
    batch.ops.push_back({/*seq=*/12, op_type, Bytes{3}});
    Message msg = batch.ToMessage();
    msg.StampSession(5, 42);
    msg.has_deadline = true;
    msg.deadline_ms = 100;
    return msg.Encode();
  };
  EXPECT_EQ(ClassifyFrame(batch_of(core::kMsgS2UpdateRequest)),
            OpClass::kMutation);
  EXPECT_EQ(ClassifyFrame(batch_of(core::kMsgS2SearchRequest)),
            OpClass::kSearch);
}

TEST(AdmissionTest, MutationClassMatchesEveryServer) {
  // Every request type of the six systems: admission classifies a type as
  // a mutation (shed first) exactly when the scheme's classic server says
  // it mutates, and an engine-capable scheme's adapter agrees with it.
  const std::map<SystemKind, std::vector<uint16_t>> requests = {
      {SystemKind::kScheme1,
       {core::kMsgS1NonceRequest, core::kMsgS1UpdateRequest,
        core::kMsgS1SearchRequest, core::kMsgS1SearchFinish}},
      {SystemKind::kScheme2,
       {core::kMsgS2UpdateRequest, core::kMsgS2SearchRequest,
        core::kMsgS2FetchAllRequest, core::kMsgS2ReinitRequest}},
      {SystemKind::kSwp, {baselines::kMsgSwpStore, baselines::kMsgSwpSearch}},
      {SystemKind::kGohZidx,
       {baselines::kMsgGohStore, baselines::kMsgGohSearch}},
      {SystemKind::kCgkoSse1,
       {baselines::kMsgCgkoBuild, baselines::kMsgCgkoSearch}},
      {SystemKind::kScheme3,
       {core::kMsgS3UpdateRequest, core::kMsgS3SearchRequest,
        core::kMsgS3ProbeRequest}},
  };
  ASSERT_EQ(requests.size(), core::AllSchemes().size());
  const core::SystemConfig config = FastTestConfig();
  for (const core::SchemeDescriptor& scheme : core::AllSchemes()) {
    SCOPED_TRACE(std::string(scheme.name));
    auto server = scheme.make_server(config);
    SSE_ASSERT_OK_RESULT(server);
    std::unique_ptr<engine::SchemeAdapter> adapter;
    if (scheme.traits.engine_capable) adapter = scheme.make_adapter(config);
    for (uint16_t type : requests.at(scheme.kind)) {
      SCOPED_TRACE(net::MessageTypeName(type));
      const bool mutating = (*server)->IsMutating(type);
      EXPECT_EQ(ClassifyFrame(Message{type, Bytes{0xAA}}.Encode()) ==
                    OpClass::kMutation,
                mutating);
      if (adapter != nullptr) {
        EXPECT_EQ(adapter->IsMutating(type), mutating);
      }
    }
  }
}

TEST(AdmissionTest, RetryAfterHintRoundTripsThroughErrorMessages) {
  const Status shed =
      WithRetryAfter(Status::ResourceExhausted("server overloaded"), 40);
  uint32_t hint = 0;
  ASSERT_TRUE(RetryAfterHintMs(shed, &hint));
  EXPECT_EQ(hint, 40u);

  // The hint survives the kMsgError wire encoding (code + message text).
  const Status decoded =
      net::DecodeErrorMessage(net::MakeErrorMessage(shed));
  EXPECT_EQ(decoded.code(), StatusCode::kResourceExhausted);
  hint = 0;
  ASSERT_TRUE(RetryAfterHintMs(decoded, &hint));
  EXPECT_EQ(hint, 40u);

  EXPECT_FALSE(RetryAfterHintMs(Status::Unavailable("no hint here"), &hint));
}

TEST(AdmissionTest, DepthWatermarksShedMutationsFirst) {
  QueueAdmissionController::Options options;
  options.max_queue_depth = 16;  // mutations derive 16 / 2 = 8
  QueueAdmissionController controller(options);

  EXPECT_TRUE(controller.Admit(OpClass::kMutation, 7).admit);
  AdmissionDecision shed = controller.Admit(OpClass::kMutation, 8);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "queue_full");
  EXPECT_GE(shed.retry_after_ms, 25u);

  // Searches ride out the brownout until the higher watermark.
  EXPECT_TRUE(controller.Admit(OpClass::kSearch, 8).admit);
  EXPECT_TRUE(controller.Admit(OpClass::kSearch, 15).admit);
  EXPECT_FALSE(controller.Admit(OpClass::kSearch, 16).admit);

  // Control traffic is never shed, no matter the depth.
  EXPECT_TRUE(controller.Admit(OpClass::kControl, 10'000).admit);
  EXPECT_GE(controller.shed_total(), 2u);
}

TEST(AdmissionTest, QueueWaitEwmaSheds) {
  QueueAdmissionController::Options options;
  options.max_queue_wait_ms = 10.0;  // mutations derive 5ms
  options.wait_ewma_alpha = 1.0;     // each sample replaces the EWMA
  QueueAdmissionController controller(options);

  EXPECT_TRUE(controller.Admit(OpClass::kMutation, 0).admit);

  controller.OnQueueWait(/*wait_ns=*/6'000'000);  // 6ms
  EXPECT_NEAR(controller.wait_ewma_ms(), 6.0, 0.1);
  EXPECT_FALSE(controller.Admit(OpClass::kMutation, 0).admit);
  EXPECT_TRUE(controller.Admit(OpClass::kSearch, 0).admit);

  controller.OnQueueWait(/*wait_ns=*/20'000'000);  // 20ms
  AdmissionDecision shed = controller.Admit(OpClass::kSearch, 0);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "queue_wait");

  controller.OnQueueWait(/*wait_ns=*/1'000'000);  // recovered: 1ms
  EXPECT_TRUE(controller.Admit(OpClass::kMutation, 0).admit);
}

TEST(AdmissionTest, MemoryPressureShedsMutationsOnly) {
  std::atomic<bool> pressured{false};
  QueueAdmissionController::Options options;
  options.max_queue_depth = 1024;
  options.memory_pressure = [&] { return pressured.load(); };
  QueueAdmissionController controller(options);

  EXPECT_TRUE(controller.Admit(OpClass::kMutation, 0).admit);
  pressured = true;
  AdmissionDecision shed = controller.Admit(OpClass::kMutation, 0);
  EXPECT_FALSE(shed.admit);
  EXPECT_STREQ(shed.reason, "memory");
  // Searches allocate no durable state; they keep flowing.
  EXPECT_TRUE(controller.Admit(OpClass::kSearch, 0).admit);
  pressured = false;
  EXPECT_TRUE(controller.Admit(OpClass::kMutation, 0).admit);
}

TEST(AdmissionTest, RetryAfterScalesWithOverload) {
  QueueAdmissionController::Options options;
  options.max_queue_depth = 8;  // mutations derive 4
  options.retry_after_ms = 10;
  QueueAdmissionController controller(options);

  const AdmissionDecision mild = controller.Admit(OpClass::kMutation, 4);
  const AdmissionDecision deep = controller.Admit(OpClass::kMutation, 12);
  EXPECT_FALSE(mild.admit);
  EXPECT_FALSE(deep.admit);
  EXPECT_EQ(mild.retry_after_ms, 10u);       // 1x at the watermark
  EXPECT_EQ(deep.retry_after_ms, 30u);       // 3x overload
  const AdmissionDecision capped = controller.Admit(OpClass::kMutation, 4000);
  EXPECT_EQ(capped.retry_after_ms, 80u);     // clamped at 8x
}

// ---------------------------------------------------------------------------
// WorkerPool: the bounded dispatch queue underneath the shed path.

TEST(WorkerPoolTest, TrySubmitBoundsQueue) {
  using SubmitResult = WorkerPool::SubmitResult;
  WorkerPool pool(1);

  std::mutex gate;
  gate.lock();  // wedge the single worker on the first task
  std::atomic<int> ran{0};
  ASSERT_EQ(pool.TrySubmit(
                [&] {
                  std::lock_guard<std::mutex> hold(gate);
                  ran.fetch_add(1);
                },
                /*max_queue=*/0),
            SubmitResult::kAccepted);
  // Wait for the worker to pick the blocker up so the queue is empty.
  while (pool.queue_depth() > 0) std::this_thread::yield();

  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }, /*max_queue=*/2),
            SubmitResult::kAccepted);
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }, /*max_queue=*/2),
            SubmitResult::kAccepted);
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }, /*max_queue=*/2),
            SubmitResult::kQueueFull);
  // max_queue == 0 means unbounded.
  EXPECT_EQ(pool.TrySubmit([&] { ran.fetch_add(1); }, /*max_queue=*/0),
            SubmitResult::kAccepted);

  gate.unlock();
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(pool.TrySubmit([] {}, /*max_queue=*/2), SubmitResult::kShutdown);
}

// ---------------------------------------------------------------------------
// Retry budgets + per-attempt deadline stamping (client side).

/// Scripted inner channel: fails the next `fail_next` calls with the
/// configured status, then answers every call with an ack echoing the
/// session stamp. Records what each attempt carried on the wire.
class ScriptedChannel : public net::Channel {
 public:
  struct Attempt {
    bool has_deadline = false;
    uint32_t deadline_ms = 0;
  };

  Result<Message> Call(const Message& request) override {
    attempts_.push_back({request.has_deadline, request.deadline_ms});
    if (fail_next > 0) {
      --fail_next;
      return failure;
    }
    Message reply{kAckType, {}};
    reply.EchoSession(request);
    return reply;
  }

  void Reset() override {}
  const net::ChannelStats& stats() const override { return stats_; }
  void ResetStats() override {}
  void SetIoDeadlineMs(double ms) override { io_caps_.push_back(ms); }

  static constexpr uint16_t kAckType = 0x0791;
  int fail_next = 0;
  Status failure = Status::Unavailable("scripted failure");
  const std::vector<Attempt>& attempts() const { return attempts_; }
  const std::vector<double>& io_caps() const { return io_caps_; }

 private:
  std::vector<Attempt> attempts_;
  std::vector<double> io_caps_;
  net::ChannelStats stats_;
};

TEST(RetryBudgetTest, BucketRefusesRetriesWhenEmpty) {
  ScriptedChannel inner;
  inner.fail_next = 100;  // never recovers
  RetryOptions options;
  options.max_attempts = 10;
  options.retry_budget = 2.0;
  RetryingChannel retry(&inner, options);
  retry.set_sleep_fn([](double) {});

  auto reply = retry.Call(Message{0x0790, {}});
  ASSERT_FALSE(reply.ok());
  // First attempt is free; two retries spend the bucket; the third retry
  // is refused and the last failure surfaces with the budget verdict.
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(reply.status().message().find("retry budget exhausted"),
            std::string::npos);
  EXPECT_EQ(retry.retry_stats().attempts, 3u);
  EXPECT_EQ(retry.retry_stats().budget_exhausted, 1u);
  EXPECT_DOUBLE_EQ(retry.retry_tokens(), 0.0);
}

TEST(RetryBudgetTest, SuccessesRefillTheBucket) {
  ScriptedChannel inner;
  RetryOptions options;
  options.max_attempts = 10;
  options.retry_budget = 4.0;
  options.retry_budget_refill = 0.5;
  RetryingChannel retry(&inner, options);
  retry.set_sleep_fn([](double) {});

  // Two failed attempts before success: spends 2 tokens, refills 0.5.
  inner.fail_next = 2;
  SSE_ASSERT_OK_RESULT(retry.Call(Message{0x0790, {}}));
  EXPECT_DOUBLE_EQ(retry.retry_tokens(), 2.5);

  // Clean successes credit the bucket back, capped at the budget.
  for (int i = 0; i < 5; ++i) {
    SSE_ASSERT_OK_RESULT(retry.Call(Message{0x0790, {}}));
  }
  EXPECT_DOUBLE_EQ(retry.retry_tokens(), 4.0);
  EXPECT_EQ(retry.retry_stats().budget_exhausted, 0u);
}

TEST(RetryBudgetTest, ShedStatusIsRetriedWithHintFloor) {
  ScriptedChannel inner;
  inner.fail_next = 1;
  inner.failure =
      WithRetryAfter(Status::ResourceExhausted("server overloaded"), 120);
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff_ms = 1.0;
  options.max_backoff_ms = 5.0;  // the hint must override this cap
  RetryingChannel retry(&inner, options);
  std::vector<double> sleeps;
  retry.set_sleep_fn([&](double ms) { sleeps.push_back(ms); });

  // RESOURCE_EXHAUSTED is not retryable in the global Status sense (a
  // consumed hash chain is permanent), but a *server shed* is — the retry
  // layer makes that call, and paces itself by the server's hint.
  SSE_ASSERT_OK_RESULT(retry.Call(Message{0x0790, {}}));
  EXPECT_EQ(retry.retry_stats().retries, 1u);
  ASSERT_EQ(sleeps.size(), 1u);
  EXPECT_GE(sleeps[0], 120.0);
}

TEST(RetryDeadlineTest, StampsRemainingBudgetPerAttempt) {
  ScriptedChannel inner;
  inner.fail_next = 1;
  RetryOptions options;
  options.max_attempts = 5;
  options.call_deadline_ms = 500.0;
  RetryingChannel retry(&inner, options);
  double clock_ms = 0.0;
  retry.set_clock_fn([&] { return clock_ms; });
  retry.set_sleep_fn([&](double) { clock_ms += 200.0; });

  SSE_ASSERT_OK_RESULT(retry.Call(Message{0x0790, {}}));
  ASSERT_EQ(inner.attempts().size(), 2u);
  // First attempt carries the whole budget; the retry only what is left,
  // and the transport's IO timeout is capped to the same remainder so the
  // last attempt cannot overshoot the budget.
  EXPECT_TRUE(inner.attempts()[0].has_deadline);
  EXPECT_EQ(inner.attempts()[0].deadline_ms, 500u);
  EXPECT_TRUE(inner.attempts()[1].has_deadline);
  EXPECT_EQ(inner.attempts()[1].deadline_ms, 300u);
  ASSERT_EQ(inner.io_caps().size(), 2u);
  EXPECT_DOUBLE_EQ(inner.io_caps()[0], 500.0);
  EXPECT_DOUBLE_EQ(inner.io_caps()[1], 300.0);

  // Without a deadline nothing is stamped.
  ScriptedChannel bare;
  RetryOptions off = options;
  off.call_deadline_ms = 0.0;
  RetryingChannel no_stamp(&bare, off);
  no_stamp.set_sleep_fn([](double) {});
  SSE_ASSERT_OK_RESULT(no_stamp.Call(Message{0x0790, {}}));
  ASSERT_EQ(bare.attempts().size(), 1u);
  EXPECT_FALSE(bare.attempts()[0].has_deadline);
  EXPECT_TRUE(bare.io_caps().empty());
}

// ---------------------------------------------------------------------------
// Server-side deadline enforcement: at dequeue, mid-batch, before fsync.

/// Thread-safe handler whose data ops sleep a configurable time — the
/// stand-in for an expensive request when the test needs a saturated
/// dispatch queue or a deadline that expires while work is queued.
class SlowCountingHandler : public net::MessageHandler {
 public:
  explicit SlowCountingHandler(int sleep_ms) : sleep_ms_(sleep_ms) {}

  Result<Message> Handle(const Message& request) override {
    handled_.fetch_add(1);
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    Message reply{kAckType, {}};
    reply.EchoSession(request);
    return reply;
  }

  int handled() const { return handled_.load(); }

  static constexpr uint16_t kAckType = 0x0793;

 private:
  const int sleep_ms_;
  std::atomic<int> handled_{0};
};

TEST(TcpDeadlineTest, ExpiredRequestDroppedAtDequeue) {
  SlowCountingHandler handler(/*sleep_ms=*/100);
  net::TcpServer::Options options;
  options.serialize_handler = false;
  options.dispatch_workers = 1;  // one worker: the second frame must queue
  auto server = net::TcpServer::Start(&handler, 0, options);
  SSE_ASSERT_OK_RESULT(server);
  auto channel = net::TcpChannel::Connect((*server)->port());
  SSE_ASSERT_OK_RESULT(channel);

  // Frame A occupies the worker for 100ms; frame B arrives with a 1ms
  // budget and sits in the dispatch queue past it. The server must drop B
  // at dequeue — retryable DEADLINE_EXCEEDED, handler never invoked.
  Message slow{0x0792, Bytes{0x01}};
  Message doomed{0x0792, Bytes{0x02}};
  doomed.has_deadline = true;
  doomed.deadline_ms = 1;
  const auto id_a = (*channel)->Submit(slow);
  const auto id_b = (*channel)->Submit(doomed);

  SSE_ASSERT_OK_RESULT((*channel)->Await(id_a));
  auto dropped = (*channel)->Await(id_b);
  ASSERT_FALSE(dropped.ok());
  EXPECT_EQ(dropped.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(dropped.status().IsRetryable());
  EXPECT_EQ(handler.handled(), 1);
  (*server)->Stop();
}

TEST(TcpAdmissionTest, BoundedDispatchQueueShedsWithRetryableVerdict) {
  SlowCountingHandler handler(/*sleep_ms=*/20);
  net::TcpServer::Options options;
  options.serialize_handler = false;
  options.dispatch_workers = 1;
  options.max_dispatch_queue = 2;
  auto server = net::TcpServer::Start(&handler, 0, options);
  SSE_ASSERT_OK_RESULT(server);
  auto channel = net::TcpChannel::Connect((*server)->port());
  SSE_ASSERT_OK_RESULT(channel);

  // Flood 12 slow frames at a queue bounded to 2: the overflow is shed
  // with RESOURCE_EXHAUSTED + a retry-after hint instead of queueing
  // without bound. Session stamps let the pipelined replies correlate.
  constexpr int kFlood = 12;
  std::vector<net::Channel::CallId> ids;
  for (int i = 0; i < kFlood; ++i) {
    Message msg{0x0792, Bytes{static_cast<uint8_t>(i)}};
    msg.StampSession(/*client=*/21, /*sequence=*/100 + i);
    ids.push_back((*channel)->Submit(msg));
  }
  int ok = 0, shed = 0;
  for (const auto id : ids) {
    auto reply = (*channel)->Await(id);
    if (reply.ok()) {
      ++ok;
      continue;
    }
    ASSERT_EQ(reply.status().code(), StatusCode::kResourceExhausted)
        << reply.status().ToString();
    uint32_t hint = 0;
    EXPECT_TRUE(RetryAfterHintMs(reply.status(), &hint));
    EXPECT_GE(hint, 1u);
    ++shed;
  }
  EXPECT_GE(ok, 1);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(ok + shed, kFlood);
  EXPECT_EQ(handler.handled(), ok);
  (*server)->Stop();
}

/// Minimal persistable handler for the durable-deadline tests: XOR cells
/// keyed by one byte (double-apply visible), with an optional per-op sleep
/// so a deadline can expire between batch sub-ops.
class XorCellsHandler : public core::PersistableHandler {
 public:
  static constexpr uint16_t kOpSet = 0x0794;     // payload: cell, delta, slow
  static constexpr uint16_t kOpGet = 0x0796;     // payload: cell
  static constexpr uint16_t kOpAck = 0x0795;

  Result<Message> Handle(const Message& request) override {
    std::lock_guard<std::mutex> lock(mutex_);
    if (request.type == kOpSet) {
      if (request.payload.size() != 3) {
        return Status::InvalidArgument("set wants cell,delta,slow");
      }
      if (request.payload[2] != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(750));
      }
      cells_[request.payload[0]] ^= request.payload[1];
      ++applies_;
      Message reply{kOpAck, {}};
      reply.EchoSession(request);
      return reply;
    }
    if (request.type == kOpGet && request.payload.size() == 1) {
      Message reply{kOpAck, Bytes{cells_[request.payload[0]]}};
      reply.EchoSession(request);
      return reply;
    }
    return Status::InvalidArgument("unknown op");
  }

  Result<Bytes> SerializeState() const override { return Bytes{}; }
  Status RestoreState(BytesView) override { return Status::OK(); }
  bool IsMutating(uint16_t msg_type) const override {
    return msg_type == kOpSet;
  }

  int applies() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return applies_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<uint8_t, uint8_t> cells_;
  int applies_ = 0;
};

Message SetOp(uint8_t cell, uint8_t delta, bool slow = false) {
  return Message{XorCellsHandler::kOpSet,
                 Bytes{cell, delta, static_cast<uint8_t>(slow ? 1 : 0)}};
}

TEST(DurableDeadlineTest, ExpiredMutationDroppedBeforeWalAppend) {
  TempDir dir;
  XorCellsHandler inner;
  auto durable = core::DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);

  SSE_ASSERT_OK_RESULT((*durable)->Handle(SetOp(1, 0x0F)));
  EXPECT_EQ((*durable)->wal_records(), 1u);

  // An expired mutation must cost neither an apply nor a WAL record (let
  // alone the fsync): nobody is waiting for the reply.
  const Deadline expired =
      Deadline::FromRemainingMs(1, Deadline::NowNs() - 50'000'000ull);
  {
    ScopedDeadline scope(expired);
    auto refused = (*durable)->Handle(SetOp(1, 0xF0));
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(refused.status().IsRetryable());

    // Read-only work under the same expired deadline still serves — the
    // durable layer only refuses what would burn an fsync.
    SSE_ASSERT_OK_RESULT(
        (*durable)->Handle(Message{XorCellsHandler::kOpGet, Bytes{1}}));
  }
  EXPECT_EQ((*durable)->wal_records(), 1u);
  EXPECT_EQ(inner.applies(), 1);
}

TEST(DurableDeadlineTest, MidBatchExpiryFailsRemainingOpsOnly) {
  TempDir dir;
  XorCellsHandler inner;
  auto durable = core::DurableServer::Open(dir.path(), &inner);
  SSE_ASSERT_OK_RESULT(durable);

  // Op 1 sleeps 750ms against a 500ms budget: ops 0-1 commit, ops 2-3 are
  // refused per-op while the envelope reply itself stays OK.
  net::BatchRequest batch;
  auto add = [&](uint64_t seq, const Message& op) {
    batch.ops.push_back({seq, op.type, op.payload});
  };
  add(101, SetOp(1, 0x01));
  add(102, SetOp(2, 0x02, /*slow=*/true));
  add(103, SetOp(3, 0x04));
  add(104, SetOp(4, 0x08));
  Message envelope = batch.ToMessage();
  envelope.StampSession(/*client=*/31, /*sequence=*/100);

  Result<Message> reply = Status::OK();
  {
    ScopedDeadline scope(
        Deadline::FromRemainingMs(500, Deadline::NowNs()));
    reply = (*durable)->Handle(envelope);
  }
  SSE_ASSERT_OK_RESULT(reply);
  auto entries = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(entries);
  ASSERT_EQ(entries->entries.size(), 4u);
  EXPECT_EQ(entries->entries[0].type, XorCellsHandler::kOpAck);
  EXPECT_EQ(entries->entries[1].type, XorCellsHandler::kOpAck);
  for (size_t i = 2; i < 4; ++i) {
    ASSERT_EQ(entries->entries[i].type, net::kMsgError) << "op " << i;
    const Status status = net::DecodeErrorMessage(
        Message{entries->entries[i].type, entries->entries[i].payload});
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << "op " << i;
  }
  // Exactly the committed prefix reached the WAL.
  EXPECT_EQ((*durable)->wal_records(), 2u);
  EXPECT_EQ(inner.applies(), 2);
}

TEST(EngineDeadlineTest, ExpiredBatchFailsEveryOp) {
  core::SystemConfig config = FastTestConfig();
  config.engine_shards = 2;
  DeterministicRandom rng(41);
  core::SseSystem sys =
      sse::testing::MakeTestSystem(SystemKind::kScheme2, &rng, config);

  net::BatchRequest batch;
  batch.ops.push_back({201, core::kMsgS2SearchRequest, Bytes{1}});
  batch.ops.push_back({202, core::kMsgS2SearchRequest, Bytes{2}});
  Message envelope = batch.ToMessage();
  envelope.StampSession(/*client=*/33, /*sequence=*/200);

  Result<Message> reply = Status::OK();
  {
    ScopedDeadline scope(
        Deadline::FromRemainingMs(1, Deadline::NowNs() - 50'000'000ull));
    reply = sys.server->Handle(envelope);
  }
  SSE_ASSERT_OK_RESULT(reply);
  auto entries = net::BatchReply::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(entries);
  ASSERT_EQ(entries->entries.size(), 2u);
  for (const auto& entry : entries->entries) {
    ASSERT_EQ(entry.type, net::kMsgError);
    const Status status =
        net::DecodeErrorMessage(Message{entry.type, entry.payload});
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  }
}

// ---------------------------------------------------------------------------
// Per-endpoint circuit breaker in the failover router.

/// Plays a replication primary for the router's stats probe; data ops are
/// scripted per-mode so the test can walk the breaker state machine.
class ModalPrimaryHandler : public net::MessageHandler {
 public:
  enum class Mode { kOk, kShed, kUnavailable };

  Result<Message> Handle(const Message& request) override {
    if (request.type == net::kMsgStats) {
      obs::StatsReply stats;
      stats.prometheus_text = "sse_repl_is_primary 1\n";
      Message reply = stats.ToMessage();
      reply.EchoSession(request);
      return reply;
    }
    data_calls_.fetch_add(1);
    switch (mode_.load()) {
      case Mode::kShed:
        return WithRetryAfter(
            Status::ResourceExhausted("server overloaded (queue_full)"), 150);
      case Mode::kUnavailable:
        return Status::Unavailable("scripted outage");
      case Mode::kOk:
        break;
    }
    Message reply{XorCellsHandler::kOpAck, {}};
    reply.EchoSession(request);
    return reply;
  }

  void set_mode(Mode mode) { mode_ = mode; }
  int data_calls() const { return data_calls_.load(); }

 private:
  std::atomic<Mode> mode_{Mode::kOk};
  std::atomic<int> data_calls_{0};
};

TEST(FailoverBreakerTest, ShedOpensBreakerForRetryAfterWithoutDemotion) {
  using BreakerState = repl::FailoverChannel::BreakerState;
  ModalPrimaryHandler handler;
  net::TcpServer::Options sopts;
  sopts.serve_stats = false;  // the handler plays the repl stats endpoint
  auto server = net::TcpServer::Start(&handler, 0, sopts);
  SSE_ASSERT_OK_RESULT(server);

  repl::FailoverChannel::Options fopts;
  fopts.is_mutating = [](const Message& m) {
    return m.type == XorCellsHandler::kOpSet;
  };
  repl::FailoverChannel channel({{"127.0.0.1", (*server)->port()}}, fopts);

  // A shed reply opens the breaker for exactly the server's hint.
  handler.set_mode(ModalPrimaryHandler::Mode::kShed);
  auto shed = channel.Call(SetOp(1, 1));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(handler.data_calls(), 1);
  EXPECT_EQ(channel.breaker_opens(), 1u);
  ASSERT_EQ(channel.breaker_states().size(), 1u);
  EXPECT_EQ(channel.breaker_states()[0], BreakerState::kOpen);
  // The shed did NOT demote the primary: it is alive, just pacing us.
  EXPECT_EQ(channel.primary_index(), 0);

  // While open, calls are refused locally — the overloaded server never
  // sees them — with the remaining open time as the retry-after hint.
  auto refused = channel.Call(SetOp(1, 2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("circuit breaker open"),
            std::string::npos);
  uint32_t hint = 0;
  EXPECT_TRUE(RetryAfterHintMs(refused.status(), &hint));
  EXPECT_EQ(handler.data_calls(), 1);

  // Past the hint the breaker half-opens; a healthy probe closes it.
  handler.set_mode(ModalPrimaryHandler::Mode::kOk);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  SSE_ASSERT_OK_RESULT(channel.Call(SetOp(1, 3)));
  EXPECT_EQ(channel.breaker_states()[0], BreakerState::kClosed);
  (*server)->Stop();
}

TEST(FailoverBreakerTest, ConsecutiveRetryableFailuresOpenBreaker) {
  ModalPrimaryHandler handler;
  net::TcpServer::Options sopts;
  sopts.serve_stats = false;
  auto server = net::TcpServer::Start(&handler, 0, sopts);
  SSE_ASSERT_OK_RESULT(server);

  repl::FailoverChannel::Options fopts;
  fopts.is_mutating = [](const Message&) { return true; };
  fopts.breaker_failure_threshold = 3;
  fopts.breaker_open_ms = 60'000;  // must not half-open during the test
  repl::FailoverChannel channel({{"127.0.0.1", (*server)->port()}}, fopts);

  handler.set_mode(ModalPrimaryHandler::Mode::kUnavailable);
  for (int i = 0; i < 3; ++i) {
    auto reply = channel.Call(SetOp(1, 1));
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable) << "call " << i;
  }
  EXPECT_EQ(channel.breaker_opens(), 1u);
  EXPECT_EQ(handler.data_calls(), 3);

  // The fourth call trips on the breaker locally instead of hammering the
  // failing endpoint again.
  auto refused = channel.Call(SetOp(1, 1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(handler.data_calls(), 3);
  (*server)->Stop();
}

// ---------------------------------------------------------------------------
// The brownout chaos test: the full stack at ~2x+ sustained saturation.

/// Decorator that charges every data frame a fixed handler cost before
/// forwarding, turning a microsecond-fast test engine into a saturable
/// server with a known capacity (workers / cost). Thread-safe as long as
/// the inner handler is.
class ThrottledHandler : public net::MessageHandler {
 public:
  ThrottledHandler(net::MessageHandler* inner, int cost_ms)
      : inner_(inner), cost_ms_(cost_ms) {}

  Result<Message> Handle(const Message& request) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(cost_ms_));
    return inner_->Handle(request);
  }

 private:
  net::MessageHandler* inner_;
  const int cost_ms_;
};

double CounterValue(const std::string& name) {
  double value = 0.0;
  repl::FindMetricValue(obs::MetricsRegistry::Global().RenderPrometheus(),
                        name, &value);
  return value;
}

TEST(OverloadChaosTest, BrownoutShedsMutationsServesSearchesExactlyOnce) {
  // Server: a real sharded Scheme 2 engine behind the reactor TCP stack,
  // throttled to ~2 ops/ms of worker capacity, with a bounded dispatch
  // queue and the default admission policy (mutations shed at depth 12,
  // searches at 24, hard cap 32).
  core::SystemConfig config = FastTestConfig();
  config.scheme.chain_length = 4096;
  config.engine_shards = 2;
  DeterministicRandom rng(57);
  core::SseSystem sys =
      sse::testing::MakeTestSystem(SystemKind::kScheme2, &rng, config);
  ThrottledHandler throttled(sys.server.get(), /*cost_ms=*/1);

  QueueAdmissionController::Options admission_options;
  admission_options.max_queue_depth = 24;
  admission_options.mutation_queue_depth = 12;
  admission_options.retry_after_ms = 5;
  auto controller =
      std::make_shared<QueueAdmissionController>(admission_options);

  net::TcpServer::Options server_options;
  server_options.serialize_handler = false;
  server_options.dispatch_workers = 2;
  server_options.max_dispatch_queue = 32;
  server_options.admission = controller;
  auto server = net::TcpServer::Start(&throttled, 0, server_options);
  SSE_ASSERT_OK_RESULT(server);

  const double shed_before = CounterValue("sse_admission_shed_total");
  const double shed_mutations_before =
      CounterValue("sse_admission_shed_mutations_total");

  // Open-loop burst generators: windows of raw garbage frames (3:1
  // mutations to searches), each window ~3x the dispatch bound — well
  // past the ~2000 frames/s the throttled workers can drain. Garbage payloads draw
  // INVALID_ARGUMENT when admitted; what matters here is the wire type
  // (for classification) and the 1ms each admitted frame costs.
  std::atomic<bool> stop_burst{false};
  std::atomic<int> burst_mut_shed{0}, burst_mut_sent{0};
  std::atomic<int> burst_search_shed{0}, burst_search_sent{0};
  std::atomic<int> burst_bad_status{0};
  constexpr int kBurstThreads = 2;
  std::vector<std::thread> bursters;
  for (int b = 0; b < kBurstThreads; ++b) {
    bursters.emplace_back([&, b] {
      auto tcp = net::TcpChannel::Connect((*server)->port());
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      uint64_t seq = 1;
      DeterministicRandom burst_rng(400 + static_cast<uint64_t>(b));
      while (!stop_burst.load()) {
        std::vector<std::pair<net::Channel::CallId, bool>> window;
        for (int i = 0; i < 48 && !stop_burst.load(); ++i) {
          const bool mutation = i % 4 != 0;
          Message msg{mutation ? core::kMsgS2UpdateRequest
                               : core::kMsgS2SearchRequest,
                      Bytes{static_cast<uint8_t>(burst_rng.Next() & 0xFF)}};
          msg.StampSession(1000 + static_cast<uint64_t>(b), seq++);
          window.emplace_back((*tcp)->Submit(msg), mutation);
          (mutation ? burst_mut_sent : burst_search_sent).fetch_add(1);
        }
        for (const auto& [id, mutation] : window) {
          auto reply = (*tcp)->Await(id);
          if (reply.ok()) continue;
          const StatusCode code = reply.status().code();
          if (code == StatusCode::kResourceExhausted ||
              code == StatusCode::kDeadlineExceeded) {
            // Every shed verdict must carry a retry-after pace.
            uint32_t hint = 0;
            if (code == StatusCode::kResourceExhausted &&
                !RetryAfterHintMs(reply.status(), &hint)) {
              burst_bad_status.fetch_add(1);
            }
            (mutation ? burst_mut_shed : burst_search_shed).fetch_add(1);
          }
          // Any other code is the scheme parser's answer to the garbage
          // payload of an *admitted* frame — the admission layer only owes
          // well-formed verdicts for the frames it sheds.
        }
        // A beat between windows: the generator stays open-loop (each
        // window is ~3x the dispatch bound, so shedding continues), but
        // the pause guarantees the queue periodically drains enough for
        // the probe clients' retries to win admission even when a
        // sanitizer slows the drain rate by an order of magnitude.
        // Without it the probes can starve under TSan: every one of
        // their attempts lands while the bursters hold the queue full.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  // Probe clients: real Scheme 2 clients running a mixed store/search
  // workload through retrying channels that honor the shed hints. Their
  // calls ride through the same brownout; with the deep chaos-grade retry
  // budget every op must eventually land exactly once.
  constexpr int kProbeThreads = 2;
  constexpr size_t kOpsEach = 48;
  constexpr uint64_t kIdsEach = 64;
  std::vector<std::thread> probes;
  std::vector<size_t> divergences(kProbeThreads, size_t{0});
  std::vector<size_t> searches_served(kProbeThreads, size_t{0});
  std::vector<std::vector<double>> latencies_ms(kProbeThreads);
  for (int t = 0; t < kProbeThreads; ++t) {
    probes.emplace_back([&, t] {
      auto tcp = net::TcpChannel::Connect((*server)->port());
      ASSERT_TRUE(tcp.ok()) << tcp.status().ToString();
      DeterministicRandom thread_rng(500 + static_cast<uint64_t>(t));
      RetryOptions ropts;
      // Chaos-depth retries: under TSan the whole system runs ~10x
      // slower, so an op can eat far more shed verdicts before the
      // bursters' inter-window beat lets it through.
      ropts.max_attempts = 512;
      ropts.initial_backoff_ms = 1.0;
      ropts.max_backoff_ms = 50.0;
      RetryingChannel retry(tcp->get(), ropts, &thread_rng);
      auto client = core::Scheme2Client::Create(TestMasterKey(), config.scheme,
                                                &retry, &thread_rng);
      ASSERT_TRUE(client.ok()) << client.status().ToString();

      const std::string ns = "t" + std::to_string(t) + ".";
      std::map<std::string, std::set<uint64_t>> oracle;
      uint64_t next_id = static_cast<uint64_t>(t) * kIdsEach;
      const uint64_t max_id = next_id + kIdsEach;
      DeterministicRandom workload(600 + static_cast<uint64_t>(t));
      for (size_t op = 0; op < kOpsEach; ++op) {
        const auto t0 = std::chrono::steady_clock::now();
        if (next_id + 1 < max_id && workload.Next() % 3 == 0) {
          const uint64_t id = next_id++;
          const std::string kw = ns + "kw" + std::to_string(workload.Next() % 8);
          const Document doc =
              Document::Make(id, ns + "doc-" + std::to_string(id), {kw});
          const Status stored = (*client)->Store({doc});
          ASSERT_TRUE(stored.ok()) << "op " << op << ": " << stored.ToString();
          oracle[kw].insert(id);
        } else {
          const std::string kw = ns + "kw" + std::to_string(workload.Next() % 8);
          auto outcome = (*client)->Search(kw);
          ASSERT_TRUE(outcome.ok())
              << "op " << op << ": " << outcome.status().ToString();
          ++searches_served[static_cast<size_t>(t)];
          const std::vector<uint64_t> expected(oracle[kw].begin(),
                                               oracle[kw].end());
          if (outcome->ids != expected) {
            ++divergences[static_cast<size_t>(t)];
          }
        }
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        latencies_ms[static_cast<size_t>(t)].push_back(ms);
      }
    });
  }

  for (std::thread& th : probes) th.join();
  stop_burst = true;
  for (std::thread& th : bursters) th.join();
  (*server)->Stop();

  // The server actually browned out, mutations first, and every shed
  // carried a well-formed retryable verdict.
  EXPECT_GT(controller->shed_total(), 0u);
  EXPECT_GT(burst_mut_shed.load(), 0);
  EXPECT_EQ(burst_bad_status.load(), 0);
  const double mut_rate = static_cast<double>(burst_mut_shed.load()) /
                          std::max(1, burst_mut_sent.load());
  const double search_rate = static_cast<double>(burst_search_shed.load()) /
                             std::max(1, burst_search_sent.load());
  EXPECT_GT(mut_rate, search_rate);
  EXPECT_GT(CounterValue("sse_admission_shed_total"), shed_before);
  EXPECT_GT(CounterValue("sse_admission_shed_mutations_total"),
            shed_mutations_before);

  // Searches kept serving through the brownout, and the accepted ops'
  // tail latency stayed bounded — the queue cap converts unbounded wait
  // into fast sheds the retry layer paces out.
  std::vector<double> all_latencies;
  for (int t = 0; t < kProbeThreads; ++t) {
    EXPECT_GT(searches_served[static_cast<size_t>(t)], 0u) << "thread " << t;
    all_latencies.insert(all_latencies.end(),
                         latencies_ms[static_cast<size_t>(t)].begin(),
                         latencies_ms[static_cast<size_t>(t)].end());
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  const double p99 =
      all_latencies[static_cast<size_t>(0.99 * (all_latencies.size() - 1))];
  EXPECT_LT(p99, 5000.0);

  // Exactly-once: zero oracle divergences across shed + retry.
  for (int t = 0; t < kProbeThreads; ++t) {
    EXPECT_EQ(divergences[static_cast<size_t>(t)], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace sse
