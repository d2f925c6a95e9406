#include "sse/net/retry.h"

#include <algorithm>
#include <chrono>
#include <deque>
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
  retry_stats_.calls += 1;
  obs::ScopedSpan call_span("rpc.call");
  Message stamped = request;
  stamped.StampSession(client_id_, next_seq_++);

  const double start_ms = NowMs();
  double backoff_ms = 0.0;
  Status last = Status::OK();
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (!SpendRetryToken()) {
        // Empty bucket: another attempt would amplify whatever is failing.
        // Surface the failure now; successes elsewhere will refill us.
        retry_stats_.budget_exhausted += 1;
        BudgetExhaustedCounter()->Add();
        return Status(last.code(),
                      "retry budget exhausted; last: " + last.ToString());
      }
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
      retry_stats_.retries += 1;
      RetriesCounter()->Add();
    }
    if (options_.call_deadline_ms > 0.0 &&
        NowMs() - start_ms >= options_.call_deadline_ms) {
      retry_stats_.deadline_exceeded += 1;
      DeadlineCounter()->Add();
      return Status::DeadlineExceeded(
          "call deadline exceeded after " + std::to_string(attempt) +
          " attempt(s)" + (last.ok() ? "" : "; last: " + last.ToString()));
    }

    retry_stats_.attempts += 1;
    obs::ScopedSpan attempt_span("rpc.attempt", call_span.context());
    attempt_span.Annotate("attempt", static_cast<uint64_t>(attempt));
    // The trace header is outside the session CRC, so re-stamping each
    // attempt with its own span id is safe and keeps per-attempt frames
    // distinguishable in the span tree. Same for the deadline header:
    // each attempt carries the budget *remaining now*, not the original.
    obs::StampMessage(&stamped, attempt_span.context());
    StampRemainingDeadline(&stamped, start_ms);
    Result<Message> reply = inner_->Call(stamped);
    if (reply.ok()) {
      if (reply->has_session) {
        if (reply->client_id != client_id_ || reply->seq != stamped.seq) {
          // Stale reply from a duplicated/reordered stream: never hand it
          // to the protocol layer; flush and re-ask for ours.
          retry_stats_.stale_replies += 1;
          last = Status::Unavailable("stale reply (stream out of sync)");
          continue;
        }
        if (Crc32c(reply->payload) != reply->payload_crc) {
          retry_stats_.corrupt_replies += 1;
          last = Status::Corruption("reply payload fails its checksum");
          continue;
        }
      }
      RefillRetryToken();
      return reply;
    }
    last = reply.status();
    if (!ShouldRetry(last)) return last;
  }
  retry_stats_.exhausted += 1;
  return Status(last.code(), "retries exhausted after " +
                                 std::to_string(options_.max_attempts) +
                                 " attempts; last: " + last.ToString());
}

std::vector<Result<Message>> RetryingChannel::MultiCall(
    const std::vector<Message>& requests) {
  const size_t n = requests.size();
  if (n == 0) return {};

  retry_stats_.calls += n;
  obs::ScopedSpan mc_span("rpc.multicall");
  mc_span.Annotate("ops", n);
  // One seq per logical op, fixed for its lifetime: this is the dedup key
  // the server's ReplyCache sees, no matter which envelope carries the op.
  std::vector<uint64_t> seqs(n);
  for (size_t i = 0; i < n; ++i) seqs[i] = next_seq_++;

  std::vector<Result<Message>> results(
      n, Status::Internal("multicall op never settled"));
  std::vector<bool> settled(n, false);
  std::vector<int> attempts(n, 0);
  size_t remaining = n;
  auto settle = [&](size_t i, Result<Message> r) {
    if (settled[i]) return;
    settled[i] = true;
    results[i] = std::move(r);
    remaining -= 1;
  };

  const double start_ms = NowMs();
  double backoff_ms = 0.0;
  Status last = Status::OK();
  const int max_attempts = std::max(1, options_.max_attempts);

  /// One wire frame of the current round: either a kMsgBatch envelope of
  /// several ops or a single stamped op.
  struct Group {
    std::vector<size_t> ops;  // indices into `requests`
    Message envelope;
    bool is_batch = false;
  };

  // Classify one group's reply, settling ops that finished (successfully
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
      if (reply->client_id != client_id_ || reply->seq != g.envelope.seq) {
        // Echo of some superseded attempt: drop the frame, retry the group.
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
    if (!g.is_batch) {
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

  bool first_round = true;
  while (remaining > 0) {
    if (!first_round) {
      inner_->Reset();
      retry_stats_.resets += 1;
      backoff_ms = NextBackoff(backoff_ms);
      uint32_t hint_ms = 0;
      if (RetryAfterHintMs(last, &hint_ms)) {
        backoff_ms = std::max(backoff_ms, static_cast<double>(hint_ms));
      }
      SleepMs(backoff_ms);
    }
    if (options_.call_deadline_ms > 0.0 &&
        NowMs() - start_ms >= options_.call_deadline_ms) {
      const Status expired = Status::DeadlineExceeded(
          "multicall deadline exceeded" +
          std::string(last.ok() ? "" : "; last: " + last.ToString()));
      for (size_t i = 0; i < n; ++i) {
        if (settled[i]) continue;
        retry_stats_.deadline_exceeded += 1;
        DeadlineCounter()->Add();
        settle(i, expired);
      }
      break;
    }

    std::vector<size_t> round;
    for (size_t i = 0; i < n; ++i) {
      if (settled[i]) continue;
      if (attempts[i] >= max_attempts) {
        retry_stats_.exhausted += 1;
        settle(i, Status(last.ok() ? StatusCode::kUnavailable : last.code(),
                         "retries exhausted after " +
                             std::to_string(max_attempts) +
                             " attempts; last: " + last.ToString()));
        continue;
      }
      // A re-attempt of op i is a retry: it must buy a token. First
      // attempts are free — the budget throttles amplification, not load.
      if (attempts[i] > 0 && !SpendRetryToken()) {
        retry_stats_.budget_exhausted += 1;
        BudgetExhaustedCounter()->Add();
        settle(i, Status(last.ok() ? StatusCode::kUnavailable : last.code(),
                         "retry budget exhausted; last: " + last.ToString()));
        continue;
      }
      round.push_back(i);
    }
    if (round.empty()) break;
    for (size_t i : round) {
      attempts[i] += 1;
      retry_stats_.attempts += 1;
      if (attempts[i] > 1) {
        retry_stats_.retries += 1;
        RetriesCounter()->Add();
      }
    }

    const size_t group_size =
        options_.batch_size <= 1 ? 1
                                 : static_cast<size_t>(options_.batch_size);
    std::vector<Group> groups;
    for (size_t off = 0; off < round.size(); off += group_size) {
      Group g;
      const size_t end = std::min(off + group_size, round.size());
      for (size_t k = off; k < end; ++k) g.ops.push_back(round[k]);
      g.is_batch = group_size > 1;
      if (g.is_batch) {
        BatchRequest batch;
        batch.ops.reserve(g.ops.size());
        for (size_t i : g.ops) {
          batch.ops.push_back(
              BatchRequest::Op{seqs[i], requests[i].type,
                               requests[i].payload});
        }
        g.envelope = batch.ToMessage();
        // Fresh envelope seq per attempt: a retried envelope is a NEW
        // frame to the transport/dedup layers; only its sub-op seqs (the
        // real dedup identities) are stable across retries.
        g.envelope.StampSession(client_id_, next_seq_++);
        retry_stats_.batches += 1;
      } else {
        const size_t i = g.ops[0];
        g.envelope = requests[i];
        g.envelope.StampSession(client_id_, seqs[i]);
      }
      obs::StampMessage(&g.envelope, mc_span.context());
      StampRemainingDeadline(&g.envelope, start_ms);
      groups.push_back(std::move(g));
    }

    // Slide up to max_inflight envelopes through the wire at once,
    // awaiting replies in submission order.
    const size_t window =
        options_.max_inflight < 1 ? 1
                                  : static_cast<size_t>(options_.max_inflight);
    std::deque<std::pair<CallId, size_t>> pending;  // (ticket, group index)
    auto await_front = [&] {
      auto [ticket, done_gi] = pending.front();
      pending.pop_front();
      obs::ScopedSpan env_span("rpc.envelope", mc_span.context());
      env_span.Annotate("ops", groups[done_gi].ops.size());
      env_span.Annotate("batch_seq", groups[done_gi].envelope.seq);
      env_span.Annotate("attempt",
                        static_cast<uint64_t>(attempts[groups[done_gi].ops[0]] -
                                              1));
      absorb(groups[done_gi], inner_->Await(ticket));
    };
    for (size_t gi = 0; gi < groups.size(); ++gi) {
      while (pending.size() >= window) await_front();
      pending.emplace_back(inner_->Submit(groups[gi].envelope), gi);
    }
    while (!pending.empty()) await_front();
    first_round = false;
  }
  return results;
}

}  // namespace sse::net
