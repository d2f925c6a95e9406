// RetryingChannel policy: classification, decorrelated-jitter backoff,
// deadlines, session stamping (seq reuse across attempts), client-side
// stale/corrupt reply detection, and the parity of Call and MultiCall.

#include "sse/net/retry.h"

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "sse/net/batch.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/crc32.h"
#include "test_util.h"

namespace sse::net {
namespace {

/// Channel whose next Calls run scripted behaviors (then echo by default).
class ScriptedChannel : public Channel {
 public:
  using Behavior = std::function<Result<Message>(const Message&)>;

  void Push(Behavior b) { script_.push_back(std::move(b)); }

  Result<Message> Call(const Message& request) override {
    stats_.rounds += 1;
    seen_.push_back(request);
    if (!script_.empty()) {
      Behavior b = std::move(script_.front());
      script_.pop_front();
      return b(request);
    }
    return Echo(request);
  }

  void Reset() override { resets_ += 1; }
  const ChannelStats& stats() const override { return stats_; }
  void ResetStats() override { stats_.Clear(); }

  /// Well-formed reply: echoes the request's session stamp. A kMsgBatch
  /// envelope is served per-op (each entry echoes its op with type + 1),
  /// the way a real server engine unpacks it.
  static Result<Message> Echo(const Message& request) {
    if (request.type == kMsgBatch) return EchoBatch(request);
    Message reply;
    reply.type = static_cast<uint16_t>(request.type + 1);
    reply.payload = request.payload;
    reply.EchoSession(request);
    return reply;
  }

  static Result<Message> EchoBatch(const Message& request) {
    Result<BatchRequest> batch = BatchRequest::FromMessage(request);
    if (!batch.ok()) return batch.status();
    BatchReply out;
    for (const BatchRequest::Op& op : batch->ops) {
      out.entries.push_back(
          {static_cast<uint16_t>(op.type + 1), op.payload});
    }
    Message reply = out.ToMessage();
    reply.EchoSession(request);
    return reply;
  }

  const std::vector<Message>& seen() const { return seen_; }
  uint64_t resets() const { return resets_; }

 private:
  std::deque<Behavior> script_;
  std::vector<Message> seen_;
  ChannelStats stats_;
  uint64_t resets_ = 0;
};

RetryOptions FastOptions() {
  RetryOptions opts;
  opts.max_attempts = 5;
  opts.initial_backoff_ms = 10.0;
  opts.max_backoff_ms = 100.0;
  return opts;
}

/// Retry harness with virtual time: sleeps advance the clock instantly.
struct Harness {
  explicit Harness(RetryOptions opts) : rng(7), retry(&inner, opts, &rng) {
    retry.set_clock_fn([this] { return now_ms; });
    retry.set_sleep_fn([this](double ms) {
      now_ms += ms;
      sleeps.push_back(ms);
    });
  }
  ScriptedChannel inner;
  DeterministicRandom rng;
  RetryingChannel retry;
  double now_ms = 0.0;
  std::vector<double> sleeps;
};

/// The process-wide count of calls abandoned on their deadline.
uint64_t DeadlineExceededTotal() {
  return obs::MetricsRegistry::Global()
      .GetCounter("sse_net_deadline_exceeded_total")
      ->Value();
}

Message Request(uint16_t type = 0x0101) {
  Message m;
  m.type = type;
  m.payload = Bytes{1, 2, 3};
  return m;
}

TEST(RetryTest, FirstAttemptSuccessMakesOneInnerCall) {
  Harness h(FastOptions());
  auto reply = h.retry.Call(Request());
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_EQ(h.retry.retry_stats().calls, 1u);
  EXPECT_EQ(h.retry.retry_stats().attempts, 1u);
  EXPECT_EQ(h.retry.retry_stats().retries, 0u);
  EXPECT_TRUE(h.sleeps.empty());
}

TEST(RetryTest, StampsSessionsWithMonotonicSeq) {
  Harness h(FastOptions());
  SSE_ASSERT_OK_RESULT(h.retry.Call(Request()));
  SSE_ASSERT_OK_RESULT(h.retry.Call(Request()));
  ASSERT_EQ(h.inner.seen().size(), 2u);
  EXPECT_TRUE(h.inner.seen()[0].has_session);
  EXPECT_EQ(h.inner.seen()[0].client_id, h.retry.client_id());
  EXPECT_EQ(h.inner.seen()[0].seq + 1, h.inner.seen()[1].seq);
  EXPECT_EQ(h.inner.seen()[0].payload_crc, Crc32c(Bytes{1, 2, 3}));
}

TEST(RetryTest, RetryableFailuresAreRetriedWithResetUntilSuccess) {
  Harness h(FastOptions());
  h.inner.Push([](const Message&) -> Result<Message> {
    return Status::IoError("boom");
  });
  h.inner.Push([](const Message&) -> Result<Message> {
    return Status::Unavailable("still down");
  });
  auto reply = h.retry.Call(Request());
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_EQ(h.retry.retry_stats().attempts, 3u);
  EXPECT_EQ(h.retry.retry_stats().retries, 2u);
  // The transport is flushed before every re-send.
  EXPECT_EQ(h.inner.resets(), 2u);
  EXPECT_EQ(h.sleeps.size(), 2u);
}

TEST(RetryTest, AllAttemptsOfOneCallShareTheSeq) {
  // Seq reuse is the heart of exactly-once: the server dedups retries of
  // one logical call only because they carry the same stamp.
  Harness h(FastOptions());
  for (int i = 0; i < 3; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::IoError("flaky");
    });
  }
  SSE_ASSERT_OK_RESULT(h.retry.Call(Request()));
  ASSERT_EQ(h.inner.seen().size(), 4u);
  for (const Message& m : h.inner.seen()) {
    EXPECT_EQ(m.seq, h.inner.seen()[0].seq);
    EXPECT_EQ(m.client_id, h.retry.client_id());
  }
  // The next logical call advances.
  SSE_ASSERT_OK_RESULT(h.retry.Call(Request()));
  EXPECT_EQ(h.inner.seen().back().seq, h.inner.seen()[0].seq + 1);
}

TEST(RetryTest, NonRetryableErrorSurfacesImmediately) {
  Harness h(FastOptions());
  h.inner.Push([](const Message&) -> Result<Message> {
    return Status::InvalidArgument("bad token");
  });
  auto reply = h.retry.Call(Request());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(h.retry.retry_stats().attempts, 1u);
  EXPECT_EQ(h.retry.retry_stats().retries, 0u);
}

TEST(RetryTest, BackoffFollowsDecorrelatedJitterBounds) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 6;
  opts.initial_backoff_ms = 8.0;
  opts.max_backoff_ms = 50.0;
  Harness h(opts);
  for (int i = 0; i < 6; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::IoError("down");
    });
  }
  auto reply = h.retry.Call(Request());
  ASSERT_FALSE(reply.ok());
  ASSERT_EQ(h.sleeps.size(), 5u);
  // First sleep drawn from [0, base]; later from [base, 3*prev], capped.
  EXPECT_GE(h.sleeps[0], 0.0);
  EXPECT_LE(h.sleeps[0], opts.initial_backoff_ms);
  for (size_t i = 1; i < h.sleeps.size(); ++i) {
    EXPECT_LE(h.sleeps[i], opts.max_backoff_ms);
    const double hi = 3.0 * h.sleeps[i - 1];
    if (hi >= opts.initial_backoff_ms) {
      EXPECT_GE(h.sleeps[i],
                std::min(opts.initial_backoff_ms, opts.max_backoff_ms));
      EXPECT_LE(h.sleeps[i], std::max(hi, opts.initial_backoff_ms));
    }
  }
}

TEST(RetryTest, DeadlineBoundsTheWholeCall) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 100;
  opts.initial_backoff_ms = 40.0;
  opts.max_backoff_ms = 40.0;
  opts.call_deadline_ms = 100.0;
  Harness h(opts);
  for (int i = 0; i < 100; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::IoError("down");
    });
  }
  const uint64_t counted_before = DeadlineExceededTotal();
  auto reply = h.retry.Call(Request());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(h.retry.retry_stats().deadline_exceeded, 1u);
  EXPECT_EQ(DeadlineExceededTotal() - counted_before, 1u);
  // Far fewer than max_attempts ran before the budget expired.
  EXPECT_LT(h.retry.retry_stats().attempts, 10u);
  // The deadline error carries the underlying failure for diagnosis.
  EXPECT_NE(reply.status().message().find("IO_ERROR"), std::string::npos);
}

TEST(RetryTest, StaleReplyIsDiscardedAndCallRetried) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    // A reply for some OTHER call (stream off by one): wrong seq echo.
    Message stale;
    stale.type = static_cast<uint16_t>(request.type + 1);
    stale.payload = Bytes{0xde, 0xad};
    stale.StampSession(request.client_id, request.seq + 1000);
    return stale;
  });
  auto reply = h.retry.Call(Request());
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_EQ(reply->payload, (Bytes{1, 2, 3}));  // the genuine echo
  EXPECT_EQ(h.retry.retry_stats().stale_replies, 1u);
  EXPECT_EQ(h.inner.resets(), 1u);  // flushed the desynced stream
}

TEST(RetryTest, CorruptReplyIsDetectedByChecksumAndRetried) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    Result<Message> reply = ScriptedChannel::Echo(request);
    reply->payload[0] ^= 0xff;  // damage after the CRC was computed
    return reply;
  });
  auto reply = h.retry.Call(Request());
  SSE_ASSERT_OK_RESULT(reply);
  EXPECT_EQ(h.retry.retry_stats().corrupt_replies, 1u);
  EXPECT_EQ(h.retry.retry_stats().attempts, 2u);
}

TEST(RetryTest, ExhaustionReportsTheLastError) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 3;
  Harness h(opts);
  for (int i = 0; i < 3; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::Unavailable("overloaded");
    });
  }
  auto reply = h.retry.Call(Request());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(reply.status().message().find("retries exhausted"),
            std::string::npos);
  EXPECT_EQ(h.retry.retry_stats().exhausted, 1u);
}

std::vector<Message> Requests(size_t n) {
  std::vector<Message> out;
  for (size_t i = 0; i < n; ++i) {
    Message m;
    m.type = static_cast<uint16_t>(0x0101 + 2 * i);
    m.payload = Bytes{static_cast<uint8_t>(i), 7};
    out.push_back(std::move(m));
  }
  return out;
}

TEST(MultiCallTest, PacksOpsIntoOneBatchEnvelope) {
  Harness h(FastOptions());
  const std::vector<Message> requests = Requests(5);
  auto results = h.retry.MultiCall(requests);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    SSE_ASSERT_OK_RESULT(results[i]);
    EXPECT_EQ(results[i]->type, requests[i].type + 1);
    EXPECT_EQ(results[i]->payload, requests[i].payload);
  }
  // One wire frame carried all five logical ops.
  ASSERT_EQ(h.inner.seen().size(), 1u);
  const Message& envelope = h.inner.seen()[0];
  EXPECT_EQ(envelope.type, kMsgBatch);
  EXPECT_TRUE(envelope.has_session);
  auto batch = BatchRequest::FromMessage(envelope);
  SSE_ASSERT_OK_RESULT(batch);
  ASSERT_EQ(batch->ops.size(), 5u);
  for (size_t i = 1; i < 5; ++i) {
    // Op seqs are consecutive draws from the session seq space.
    EXPECT_EQ(batch->ops[i].seq, batch->ops[0].seq + i);
  }
  // The envelope's own seq is a separate, later draw.
  EXPECT_GT(envelope.seq, batch->ops[4].seq);
  EXPECT_EQ(h.retry.retry_stats().batches, 1u);
  EXPECT_EQ(h.retry.retry_stats().calls, 5u);
}

TEST(MultiCallTest, RetriesOnlyFailedSubOpsWithStableSeqs) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    auto batch = BatchRequest::FromMessage(request);
    BatchReply out;
    for (size_t k = 0; k < batch->ops.size(); ++k) {
      if (k == 1) {
        const Message err =
            MakeErrorMessage(Status::Unavailable("shard busy"));
        out.entries.push_back({err.type, err.payload});
      } else {
        const BatchRequest::Op& op = batch->ops[k];
        out.entries.push_back(
            {static_cast<uint16_t>(op.type + 1), op.payload});
      }
    }
    Message reply = out.ToMessage();
    reply.EchoSession(request);
    return reply;
  });
  auto results = h.retry.MultiCall(Requests(3));
  for (auto& r : results) SSE_ASSERT_OK_RESULT(r);
  // Round 2 re-sent ONLY the failed op, under the same op seq (the dedup
  // identity) inside a fresh envelope.
  ASSERT_EQ(h.inner.seen().size(), 2u);
  auto first = BatchRequest::FromMessage(h.inner.seen()[0]);
  auto second = BatchRequest::FromMessage(h.inner.seen()[1]);
  ASSERT_EQ(second->ops.size(), 1u);
  EXPECT_EQ(second->ops[0].seq, first->ops[1].seq);
  EXPECT_NE(h.inner.seen()[1].seq, h.inner.seen()[0].seq);
  EXPECT_EQ(h.retry.retry_stats().retries, 1u);
}

TEST(MultiCallTest, NonRetryablePerOpErrorSettlesThatOpOnly) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    auto batch = BatchRequest::FromMessage(request);
    BatchReply out;
    for (size_t k = 0; k < batch->ops.size(); ++k) {
      if (k == 1) {
        const Message err =
            MakeErrorMessage(Status::InvalidArgument("bad token"));
        out.entries.push_back({err.type, err.payload});
      } else {
        const BatchRequest::Op& op = batch->ops[k];
        out.entries.push_back(
            {static_cast<uint16_t>(op.type + 1), op.payload});
      }
    }
    Message reply = out.ToMessage();
    reply.EchoSession(request);
    return reply;
  });
  auto results = h.retry.MultiCall(Requests(3));
  SSE_ASSERT_OK_RESULT(results[0]);
  ASSERT_FALSE(results[1].ok());
  EXPECT_EQ(results[1].status().code(), StatusCode::kInvalidArgument);
  SSE_ASSERT_OK_RESULT(results[2]);
  // A permanent per-op error does not trigger a second round.
  EXPECT_EQ(h.inner.seen().size(), 1u);
}

TEST(MultiCallTest, StaleEnvelopeEchoRetriesGroup) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    Result<Message> reply = ScriptedChannel::EchoBatch(request);
    // Echo of some superseded attempt: wrong envelope seq.
    reply->StampSession(request.client_id, request.seq + 999);
    return reply;
  });
  auto results = h.retry.MultiCall(Requests(4));
  for (auto& r : results) SSE_ASSERT_OK_RESULT(r);
  EXPECT_EQ(h.retry.retry_stats().stale_replies, 1u);
  EXPECT_EQ(h.inner.resets(), 1u);  // flushed the desynced stream
  ASSERT_EQ(h.inner.seen().size(), 2u);
  // The whole group was retried (no per-op outcome is trustworthy when the
  // envelope echo itself is stale).
  auto second = BatchRequest::FromMessage(h.inner.seen()[1]);
  EXPECT_EQ(second->ops.size(), 4u);
}

TEST(MultiCallTest, CorruptEnvelopeReplyIsRetried) {
  Harness h(FastOptions());
  h.inner.Push([](const Message& request) -> Result<Message> {
    Result<Message> reply = ScriptedChannel::EchoBatch(request);
    reply->payload[0] ^= 0xff;  // damage after the CRC was computed
    return reply;
  });
  auto results = h.retry.MultiCall(Requests(2));
  for (auto& r : results) SSE_ASSERT_OK_RESULT(r);
  EXPECT_EQ(h.retry.retry_stats().corrupt_replies, 1u);
  EXPECT_EQ(h.inner.seen().size(), 2u);
}

TEST(MultiCallTest, BatchSizeOnePipelinesIndividualStampedOps) {
  RetryOptions opts = FastOptions();
  opts.batch_size = 1;
  Harness h(opts);
  auto results = h.retry.MultiCall(Requests(3));
  for (auto& r : results) SSE_ASSERT_OK_RESULT(r);
  ASSERT_EQ(h.inner.seen().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(h.inner.seen()[i].type, kMsgBatch);
    EXPECT_TRUE(h.inner.seen()[i].has_session);
  }
  EXPECT_EQ(h.inner.seen()[1].seq, h.inner.seen()[0].seq + 1);
  EXPECT_EQ(h.retry.retry_stats().batches, 0u);
}

TEST(MultiCallTest, BatchSizeSplitsOpsAcrossEnvelopes) {
  RetryOptions opts = FastOptions();
  opts.batch_size = 2;
  opts.max_inflight = 2;
  Harness h(opts);
  auto results = h.retry.MultiCall(Requests(5));
  for (auto& r : results) SSE_ASSERT_OK_RESULT(r);
  // ceil(5 / 2) envelopes, the last carrying a single op.
  ASSERT_EQ(h.inner.seen().size(), 3u);
  for (const Message& m : h.inner.seen()) EXPECT_EQ(m.type, kMsgBatch);
  EXPECT_EQ(h.retry.retry_stats().batches, 3u);
}

TEST(MultiCallTest, ExhaustionSettlesFailingOpWithoutStallingOthers) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 2;
  Harness h(opts);
  auto fail_op_zero = [](const Message& request) -> Result<Message> {
    auto batch = BatchRequest::FromMessage(request);
    BatchReply out;
    for (size_t k = 0; k < batch->ops.size(); ++k) {
      if (batch->ops[k].type == 0x0101) {
        const Message err =
            MakeErrorMessage(Status::Unavailable("shard down"));
        out.entries.push_back({err.type, err.payload});
      } else {
        const BatchRequest::Op& op = batch->ops[k];
        out.entries.push_back(
            {static_cast<uint16_t>(op.type + 1), op.payload});
      }
    }
    Message reply = out.ToMessage();
    reply.EchoSession(request);
    return reply;
  };
  h.inner.Push(fail_op_zero);
  h.inner.Push(fail_op_zero);
  auto results = h.retry.MultiCall(Requests(3));
  ASSERT_FALSE(results[0].ok());
  EXPECT_EQ(results[0].status().code(), StatusCode::kUnavailable);
  EXPECT_NE(results[0].status().message().find("retries exhausted"),
            std::string::npos);
  SSE_ASSERT_OK_RESULT(results[1]);
  SSE_ASSERT_OK_RESULT(results[2]);
  EXPECT_EQ(h.retry.retry_stats().exhausted, 1u);
}

TEST(MultiCallTest, DeadlineSettlesAllRemainingOps) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 100;
  opts.initial_backoff_ms = 40.0;
  opts.max_backoff_ms = 40.0;
  opts.call_deadline_ms = 100.0;
  Harness h(opts);
  for (int i = 0; i < 100; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::IoError("link down");
    });
  }
  const uint64_t counted_before = DeadlineExceededTotal();
  auto results = h.retry.MultiCall(Requests(3));
  for (auto& r : results) {
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(h.retry.retry_stats().deadline_exceeded, 3u);
  // The operator's counter sees every abandoned op, as retry_stats() does.
  EXPECT_EQ(DeadlineExceededTotal() - counted_before, 3u);
}

TEST(MultiCallTest, EmptyRequestListIsANoOp) {
  Harness h(FastOptions());
  EXPECT_TRUE(h.retry.MultiCall({}).empty());
  EXPECT_TRUE(h.inner.seen().empty());
}

// Call(req) is the one-op case of the loop MultiCall runs: every scripted
// sequence must read the same through Call(req) and MultiCall({req}), with
// the op sent as its own frame (batch_size 1) or in an envelope (64).
struct ParityCase {
  const char* name;
  RetryOptions options;
  int failures;  // retryable transport failures before the inner echoes
  StatusCode code;
  uint64_t attempts;  // 0: not fixed by the case (the deadline case)
};

struct ParityOutcome {
  RetryStats stats;
  uint64_t resets = 0;
  std::vector<double> sleeps;
  StatusCode code = StatusCode::kOk;
};

ParityOutcome RunParityCase(const ParityCase& c, bool multicall,
                            int batch_size) {
  RetryOptions opts = c.options;
  opts.batch_size = batch_size;
  Harness h(opts);
  for (int i = 0; i < c.failures; ++i) {
    h.inner.Push([](const Message&) -> Result<Message> {
      return Status::IoError("link down");
    });
  }
  const Status status = multicall ? h.retry.MultiCall({Request()})[0].status()
                                  : h.retry.Call(Request()).status();
  return ParityOutcome{h.retry.retry_stats(), h.inner.resets(), h.sleeps,
                       status.code()};
}

class RetryParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RetryParityTest, CallAndMultiCallAgree) {
  const ParityCase& c = GetParam();
  const ParityOutcome call = RunParityCase(c, /*multicall=*/false, 1);
  EXPECT_EQ(call.code, c.code);
  if (c.attempts != 0) {
    EXPECT_EQ(call.stats.attempts, c.attempts);
  }
  EXPECT_EQ(call.stats.retries, call.stats.attempts - 1);
  // A reset and a sleep precede every retry. Only a deadline that expires
  // during the sleep leaves one without its retry.
  EXPECT_EQ(call.sleeps.size(),
            call.stats.retries + call.stats.deadline_exceeded);
  EXPECT_EQ(call.resets, call.sleeps.size());
  for (const int batch_size : {1, 64}) {
    SCOPED_TRACE("MultiCall with batch_size " + std::to_string(batch_size));
    const ParityOutcome mc = RunParityCase(c, /*multicall=*/true, batch_size);
    EXPECT_EQ(mc.stats.attempts, call.stats.attempts);
    EXPECT_EQ(mc.stats.retries, call.stats.retries);
    EXPECT_EQ(mc.resets, call.resets);
    EXPECT_EQ(mc.sleeps, call.sleeps);
    EXPECT_EQ(mc.stats.exhausted, call.stats.exhausted);
    EXPECT_EQ(mc.stats.budget_exhausted, call.stats.budget_exhausted);
    EXPECT_EQ(mc.stats.deadline_exceeded, call.stats.deadline_exceeded);
    EXPECT_EQ(mc.code, call.code);
  }
}

RetryOptions WithMaxAttempts(int max_attempts) {
  RetryOptions opts = FastOptions();
  opts.max_attempts = max_attempts;
  return opts;
}

RetryOptions WithRetryBudget(double tokens) {
  RetryOptions opts = FastOptions();
  opts.retry_budget = tokens;
  return opts;
}

RetryOptions WithDeadline() {
  RetryOptions opts = FastOptions();
  opts.max_attempts = 100;
  opts.initial_backoff_ms = 40.0;
  opts.max_backoff_ms = 40.0;
  opts.call_deadline_ms = 100.0;
  return opts;
}

INSTANTIATE_TEST_SUITE_P(
    Sequences, RetryParityTest,
    ::testing::Values(
        ParityCase{"FirstTrySucceeds", FastOptions(), 0, StatusCode::kOk, 1},
        ParityCase{"OneFailureThenSuccess", FastOptions(), 1, StatusCode::kOk,
                   2},
        ParityCase{"TwoFailuresWithTwoAttempts", WithMaxAttempts(2), 2,
                   StatusCode::kIoError, 2},
        ParityCase{"TwoTokenRetryBudget", WithRetryBudget(2.0), 100,
                   StatusCode::kIoError, 3},
        ParityCase{"DeadlineDuringBackoff", WithDeadline(), 100,
                   StatusCode::kDeadlineExceeded, 0},
        ParityCase{"ZeroMaxAttemptsMeansOne", WithMaxAttempts(0), 100,
                   StatusCode::kIoError, 1}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

TEST(RetryTest, DistinctChannelsDrawDistinctClientIds) {
  DeterministicRandom rng(3);
  ScriptedChannel inner;
  RetryingChannel a(&inner, FastOptions(), &rng);
  RetryingChannel b(&inner, FastOptions(), &rng);
  EXPECT_NE(a.client_id(), 0u);
  EXPECT_NE(a.client_id(), b.client_id());
}

}  // namespace
}  // namespace sse::net
