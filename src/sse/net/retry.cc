#include "sse/net/retry.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>
#include <utility>

#include "sse/net/admission.h"
#include "sse/net/batch.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/trace.h"
#include "sse/util/crc32.h"

namespace sse::net {

namespace {

obs::MetricsRegistry::Counter* RetriesCounter() {
  static auto* c = obs::MetricsRegistry::Global().GetCounter(
      "sse_net_retries_total", "Retry attempts beyond the first, all clients");
  return c;
}

obs::MetricsRegistry::Counter* DeadlineCounter() {
  static auto* c = obs::MetricsRegistry::Global().GetCounter(
      "sse_net_deadline_exceeded_total",
      "Calls abandoned on their deadline, all clients");
  return c;
}

obs::MetricsRegistry::Counter* BudgetSpentCounter() {
  static auto* c = obs::MetricsRegistry::Global().GetCounter(
      "sse_retry_budget_spent_total",
      "Retry-budget tokens spent on retries, all clients");
  return c;
}

obs::MetricsRegistry::Counter* BudgetExhaustedCounter() {
  static auto* c = obs::MetricsRegistry::Global().GetCounter(
      "sse_retry_budget_exhausted_total",
      "Retries refused because the retry budget was empty, all clients");
  return c;
}

}  // namespace

RetryingChannel::RetryingChannel(Channel* inner, RetryOptions options,
                                 RandomSource* rng)
    : inner_(inner), options_(options), rng_(rng) {
  client_id_ = options_.client_id;
  if (client_id_ == 0) {
    if (rng_ != nullptr) {
      Result<uint64_t> id = rng_->NextU64();
      if (id.ok()) client_id_ = *id;
    }
    if (client_id_ == 0) client_id_ = 0x5353452d636c6974;  // arbitrary nonzero
  }
  retry_tokens_ = options_.retry_budget;  // bucket starts full
}

bool RetryingChannel::SpendRetryToken() {
  if (options_.retry_budget <= 0.0) return true;
  if (retry_tokens_ < 1.0) return false;
  retry_tokens_ -= 1.0;
  BudgetSpentCounter()->Add();
  return true;
}

void RetryingChannel::RefillRetryToken() {
  if (options_.retry_budget <= 0.0) return;
  retry_tokens_ = std::min(options_.retry_budget,
                           retry_tokens_ + options_.retry_budget_refill);
}

void RetryingChannel::StampRemainingDeadline(Message* msg, double start_ms) {
  if (options_.call_deadline_ms <= 0.0) return;
  // The remainder is clamped to >= 1ms: the deadline check above already
  // rejected an expired call, so what is left is a real (if tiny) budget.
  const double remaining =
      std::max(1.0, options_.call_deadline_ms - (NowMs() - start_ms));
  msg->has_deadline = true;
  msg->deadline_ms = static_cast<uint32_t>(remaining);
  // The transport must not block past the budget either: a fixed
  // per-attempt recv timeout larger than the remainder would let the last
  // attempt overshoot the overall deadline.
  inner_->SetIoDeadlineMs(remaining);
}

double RetryingChannel::NowMs() const {
  if (clock_fn_) return clock_fn_();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RetryingChannel::SleepMs(double ms) {
  if (ms <= 0.0) return;
  if (sleep_fn_) {
    sleep_fn_(ms);
    return;
  }
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

double RetryingChannel::NextBackoff(double prev_ms) {
  // Decorrelated jitter: sleep = min(cap, uniform(base, 3 * prev)). The
  // first attempt passes prev == 0, drawing from [0, base].
  const double base = options_.initial_backoff_ms;
  double lo = prev_ms <= 0.0 ? 0.0 : base;
  double hi = prev_ms <= 0.0 ? base : 3.0 * prev_ms;
  if (hi < lo) hi = lo;
  double u = 0.5;
  if (rng_ != nullptr) {
    Result<uint64_t> raw = rng_->NextU64();
    if (raw.ok()) {
      u = static_cast<double>(*raw >> 11) * (1.0 / 9007199254740992.0);
    }
  }
  return std::min(options_.max_backoff_ms, lo + u * (hi - lo));
}

bool RetryingChannel::ShouldRetry(const Status& status) const {
  if (status.IsRetryable()) return true;
  // RESOURCE_EXHAUSTED from the *server* means "shed under overload, retry
  // later" (net/admission.h) — retryable here, where backoff honors the
  // server's retry-after hint. Status::IsRetryable itself excludes the
  // code because client-side exhaustion (a consumed hash chain) is
  // permanent; those statuses never pass through this layer.
  if (status.code() == StatusCode::kResourceExhausted) return true;
  // CORRUPTION here means the link damaged a frame (Status::IsRetryable
  // excludes it because storage-level corruption is not transient).
  return status.code() == StatusCode::kCorruption;
}

Result<Message> RetryingChannel::Call(const Message& request) {
  return std::move(RunOps({&request, 1}, 1, /*multicall=*/false).front());
}

std::vector<Result<Message>> RetryingChannel::MultiCall(
    const std::vector<Message>& requests) {
  return RunOps(requests,
                static_cast<size_t>(std::max(1, options_.batch_size)),
                /*multicall=*/true);
}

std::vector<Result<Message>> RetryingChannel::RunOps(
    std::span<const Message> requests, size_t group_size, bool multicall) {
  const size_t n = requests.size();
  if (n == 0) return {};

  retry_stats_.calls += n;
  obs::ScopedSpan call_span(multicall ? "rpc.multicall" : "rpc.call");
  if (multicall) call_span.Annotate("ops", n);
  const char* const frame_span_name =
      multicall ? "rpc.envelope" : "rpc.attempt";

  struct OpState {
    // Fixed for the op's lifetime: this is the dedup key the server's
    // ReplyCache sees, no matter which frame carries the op.
    uint64_t seq = 0;
    int attempts = 0;
    bool settled = false;
  };
  std::vector<OpState> state(n);
  for (OpState& op : state) op.seq = next_seq_++;
  std::vector<Result<Message>> results(
      n, Status::Internal("op never settled"));
  auto settle = [&](size_t i, Result<Message> r) {
    state[i].settled = true;
    results[i] = std::move(r);
  };

  const double start_ms = NowMs();
  const int max_attempts = std::max(1, options_.max_attempts);
  const bool batched = group_size > 1;
  double backoff_ms = 0.0;
  Status last = Status::OK();
  // An op given up on carries the code of the last failure seen.
  auto give_up = [&](const std::string& why) {
    return Status(last.ok() ? StatusCode::kUnavailable : last.code(),
                  why + "; last: " + last.ToString());
  };

  /// One wire frame: a kMsgBatch envelope of several ops, or one stamped
  /// op when `group_size` is 1.
  struct Group {
    std::vector<size_t> ops;  // indices into `requests`
    Message frame;
  };

  // Classify one frame's reply, settling ops that finished (successfully
  // or with a permanent error) and leaving retryable ones for next round.
  auto absorb = [&](const Group& g, Result<Message> reply) {
    if (!reply.ok()) {
      last = reply.status();
      if (!ShouldRetry(last)) {
        for (size_t i : g.ops) settle(i, last);
      }
      return;
    }
    if (reply->has_session) {
      if (reply->client_id != client_id_ || reply->seq != g.frame.seq) {
        // Stale reply from a duplicated/reordered stream: never hand it
        // to the protocol layer; flush and re-ask for ours.
        retry_stats_.stale_replies += 1;
        last = Status::Unavailable("stale reply (stream out of sync)");
        return;
      }
      if (Crc32c(reply->payload) != reply->payload_crc) {
        retry_stats_.corrupt_replies += 1;
        last = Status::Corruption("reply payload fails its checksum");
        return;
      }
    }
    if (!batched) {
      settle(g.ops[0], std::move(*reply));
      RefillRetryToken();
      return;
    }
    Result<BatchReply> decoded = BatchReply::FromMessage(*reply);
    if (!decoded.ok() || decoded->entries.size() != g.ops.size()) {
      retry_stats_.corrupt_replies += 1;
      last = decoded.ok()
                 ? Status::ProtocolError("batch reply entry count mismatch")
                 : decoded.status();
      return;
    }
    for (size_t k = 0; k < g.ops.size(); ++k) {
      const size_t i = g.ops[k];
      BatchReply::Entry& e = decoded->entries[k];
      Message op_reply{e.type, std::move(e.payload)};
      Status app_error = DecodeErrorMessage(op_reply);
      if (!app_error.ok()) {
        last = app_error;
        // A retryable sub-op failure (e.g. one shard timing out) keeps
        // only THAT op unsettled; its neighbors' outcomes stand.
        if (!ShouldRetry(app_error)) settle(i, app_error);
      } else {
        settle(i, std::move(op_reply));
        RefillRetryToken();
      }
    }
  };

  auto annotate = [&](obs::ScopedSpan& span, const Group& g) {
    if (multicall) {
      span.Annotate("ops", g.ops.size());
      span.Annotate("batch_seq", g.frame.seq);
    }
    span.Annotate("attempt",
                  static_cast<uint64_t>(state[g.ops[0]].attempts - 1));
  };

  const size_t window =
      static_cast<size_t>(std::max(1, options_.max_inflight));
  for (bool first_round = true;; first_round = false) {
    // Settle every op that may not be sent again, so that a round with
    // nothing left to send ends the call without a reset or a sleep.
    std::vector<size_t> round;
    for (size_t i = 0; i < n; ++i) {
      if (state[i].settled) continue;
      if (state[i].attempts >= max_attempts) {
        retry_stats_.exhausted += 1;
        settle(i, give_up("retries exhausted after " +
                          std::to_string(max_attempts) + " attempts"));
        continue;
      }
      // A re-attempt is a retry: it must buy a token. First attempts are
      // free — the budget throttles amplification, not load. An empty
      // bucket surfaces the failure now; successes elsewhere refill it.
      if (state[i].attempts > 0 && !SpendRetryToken()) {
        retry_stats_.budget_exhausted += 1;
        BudgetExhaustedCounter()->Add();
        settle(i, give_up("retry budget exhausted"));
        continue;
      }
      round.push_back(i);
    }
    if (round.empty()) break;

    if (!first_round) {
      // An ambiguous failure may have left a half-written request or a
      // buffered stale reply in the transport; flush before re-sending.
      inner_->Reset();
      retry_stats_.resets += 1;
      backoff_ms = NextBackoff(backoff_ms);
      uint32_t hint_ms = 0;
      if (RetryAfterHintMs(last, &hint_ms)) {
        // A shedding server told us when it wants us back; never return
        // earlier than that, whatever the jitter drew.
        backoff_ms = std::max(backoff_ms, static_cast<double>(hint_ms));
      }
      SleepMs(backoff_ms);
    }
    if (options_.call_deadline_ms > 0.0 &&
        NowMs() - start_ms >= options_.call_deadline_ms) {
      for (size_t i : round) {
        retry_stats_.deadline_exceeded += 1;
        DeadlineCounter()->Add();
        settle(i, Status::DeadlineExceeded(
                      "call deadline exceeded after " +
                      std::to_string(state[i].attempts) + " attempt(s)" +
                      (last.ok() ? "" : "; last: " + last.ToString())));
      }
      break;
    }

    for (size_t i : round) {
      state[i].attempts += 1;
      retry_stats_.attempts += 1;
      if (state[i].attempts > 1) {
        retry_stats_.retries += 1;
        RetriesCounter()->Add();
      }
    }
    std::vector<Group> groups;
    for (size_t off = 0; off < round.size(); off += group_size) {
      Group g;
      g.ops.assign(round.begin() + off,
                   round.begin() + std::min(off + group_size, round.size()));
      if (batched) {
        BatchRequest batch;
        batch.ops.reserve(g.ops.size());
        for (size_t i : g.ops) {
          batch.ops.push_back(BatchRequest::Op{state[i].seq, requests[i].type,
                                               requests[i].payload});
        }
        g.frame = batch.ToMessage();
        // Fresh envelope seq per attempt: a retried envelope is a NEW
        // frame to the transport/dedup layers; only its sub-op seqs (the
        // real dedup identities) are stable across retries.
        g.frame.StampSession(client_id_, next_seq_++);
        retry_stats_.batches += 1;
      } else {
        g.frame = requests[g.ops[0]];
        g.frame.StampSession(client_id_, state[g.ops[0]].seq);
      }
      groups.push_back(std::move(g));
    }

    // A lone frame's span opens before the frame is stamped and stays
    // open across Submit and Await, so the server's spans parent to it.
    // Frames in flight together carry the call span instead, and each
    // frame's span opens as it is awaited: scoped spans cannot overlap on
    // one thread.
    const bool lone = groups.size() == 1;
    std::optional<obs::ScopedSpan> lone_span;
    if (lone) {
      lone_span.emplace(frame_span_name, call_span.context());
      annotate(*lone_span, groups[0]);
    }
    for (Group& g : groups) {
      // The trace and deadline headers are outside the session CRC, so
      // each attempt carries its own span and the budget remaining now.
      obs::StampMessage(&g.frame,
                        lone ? lone_span->context() : call_span.context());
      StampRemainingDeadline(&g.frame, start_ms);
    }

    // Slide up to max_inflight frames through the wire at once, awaiting
    // replies in submission order.
    std::vector<CallId> tickets(groups.size());
    size_t awaited = 0;
    auto await_next = [&] {
      const size_t gi = awaited++;
      std::optional<obs::ScopedSpan> span;
      if (!lone) {
        span.emplace(frame_span_name, call_span.context());
        annotate(*span, groups[gi]);
      }
      absorb(groups[gi], inner_->Await(tickets[gi]));
    };
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      while (gi - awaited >= window) await_next();
      tickets[gi] = inner_->Submit(groups[gi].frame);
    }
    while (awaited < groups.size()) await_next();
  }
  return results;
}

}  // namespace sse::net
