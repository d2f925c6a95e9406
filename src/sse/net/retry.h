#ifndef SSE_NET_RETRY_H_
#define SSE_NET_RETRY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sse/net/channel.h"
#include "sse/util/random.h"

namespace sse::net {

/// Policy knobs for RetryingChannel. Defaults suit an interactive client on
/// a flaky LAN; benches and the chaos suite override them.
struct RetryOptions {
  /// Total tries per op, including the first. 1 disables retries; values
  /// below 1 mean one attempt.
  int max_attempts = 5;

  /// Backoff between attempts: decorrelated jitter. The first sleep is
  /// drawn from [0, initial_backoff_ms]; each later sleep from
  /// [initial_backoff_ms, 3 * previous], capped at max_backoff_ms.
  double initial_backoff_ms = 10.0;
  double max_backoff_ms = 2000.0;

  /// Per-Call deadline across all attempts and backoff sleeps; 0 = none.
  /// Exceeding it surfaces DEADLINE_EXCEEDED with the last failure attached.
  /// Each attempt carries the *remaining* overall deadline on the wire
  /// (net/message.h) so the server can drop the work once the client has
  /// given up, and the transport's IO timeout is capped to the same
  /// remainder so the final attempt cannot overshoot the budget.
  double call_deadline_ms = 0.0;

  /// Retry *budget*: a token bucket that caps how many retries this channel
  /// may spend relative to the successes it observes. Every retry spends
  /// one token; every successful call refills `retry_budget_refill` tokens
  /// (capped at `retry_budget`). When the bucket is empty the last failure
  /// surfaces immediately instead of amplifying an overloaded server with
  /// another attempt — the retry-storm circuit breaker. 0 = unlimited.
  double retry_budget = 0.0;
  /// Tokens refilled per successful call. 0.1 means sustained retries are
  /// capped near 10% of throughput once the initial bucket drains.
  double retry_budget_refill = 0.1;

  /// Session identity; 0 draws a random id at construction.
  uint64_t client_id = 0;

  /// MultiCall packing: ops per kMsgBatch envelope. <= 1 sends each op as
  /// its own stamped frame (pipelined but unbatched).
  int batch_size = 64;
  /// MultiCall pipelining: envelopes submitted before awaiting the first
  /// reply. 1 restores lockstep one-envelope-at-a-time behavior.
  int max_inflight = 4;
};

/// Client-visible retry accounting, separate from the byte-level
/// ChannelStats (which the inner transport keeps, retries included).
struct RetryStats {
  uint64_t calls = 0;
  uint64_t attempts = 0;          // op sends, first attempts included
  uint64_t retries = 0;           // attempts beyond the first
  uint64_t resets = 0;            // inner Reset() before a retry round
  uint64_t stale_replies = 0;     // session echo mismatched our seq
  uint64_t corrupt_replies = 0;   // reply failed its checksum client-side
  uint64_t deadline_exceeded = 0; // calls abandoned on the deadline
  uint64_t exhausted = 0;         // calls abandoned after max_attempts
  uint64_t batches = 0;           // kMsgBatch envelopes sent by MultiCall
  uint64_t budget_exhausted = 0;  // retries refused by an empty token bucket
};

/// Decorator that turns any Channel into a reliable, exactly-once call
/// layer: it classifies failures, re-sends retryable ones under a deadline
/// with decorrelated-jitter backoff, resets the inner transport before
/// every retry (flushing half-read streams), and stamps each logical call
/// with a session header (client_id, per-call seq, payload CRC). All
/// attempts of one call share the seq, which is what lets an at-most-once
/// server (core::ReplyCache) collapse retries of a non-idempotent update
/// into a single application. A reply whose session echo does not match
/// the in-flight call (a duplicated or reordered stream) is discarded and
/// the call retried rather than handed to the protocol layer; so is a
/// reply that fails its CRC, since at this layer a checksum failure means
/// the link damaged a frame and re-sending the intact copy is the fix.
///
/// Call and MultiCall share one retry loop (RunOps): a Call is the
/// one-op case, sent as its own stamped frame.
class RetryingChannel : public Channel {
 public:
  /// `inner` must outlive this wrapper. `rng` (nullable) seeds the jitter
  /// and the random client id; without it a fixed id and mid-range jitter
  /// are used.
  RetryingChannel(Channel* inner, RetryOptions options,
                  RandomSource* rng = nullptr);

  Result<Message> Call(const Message& request) override;

  /// Executes many logical ops with per-op exactly-once semantics. Ops are
  /// packed into kMsgBatch envelopes of `batch_size` and up to
  /// `max_inflight` envelopes are pipelined through the inner channel's
  /// Submit/Await at once. Each op keeps ONE session seq across every
  /// retry (that seq is its dedup identity at the server's ReplyCache),
  /// while each envelope gets a FRESH seq per attempt — so a retried
  /// envelope is a new frame but its sub-ops still dedup individually, and
  /// a partially-failed batch retries only the ops that failed.
  std::vector<Result<Message>> MultiCall(
      const std::vector<Message>& requests) override;

  void Reset() override { inner_->Reset(); }

  const ChannelStats& stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  const RetryStats& retry_stats() const { return retry_stats_; }
  uint64_t client_id() const { return client_id_; }
  uint64_t next_seq() const { return next_seq_; }
  /// Tokens left in the retry budget (only meaningful with retry_budget>0).
  double retry_tokens() const { return retry_tokens_; }

  void SetIoDeadlineMs(double ms) override { inner_->SetIoDeadlineMs(ms); }

  /// Test hooks: replace wall-clock sleeping and time reading. The clock
  /// returns milliseconds on any monotonic scale; the sleeper receives the
  /// backoff in ms and may advance a virtual clock instead of blocking.
  void set_sleep_fn(std::function<void(double)> fn) {
    sleep_fn_ = std::move(fn);
  }
  void set_clock_fn(std::function<double()> fn) { clock_fn_ = std::move(fn); }

 private:
  /// True if `status` is worth another attempt at this layer.
  bool ShouldRetry(const Status& status) const;
  double NowMs() const;
  void SleepMs(double ms);
  /// Next decorrelated-jitter sleep given the previous one.
  double NextBackoff(double prev_ms);
  /// Takes one token from the retry budget; false means the bucket is
  /// empty and the retry must be refused. Always true with no budget.
  bool SpendRetryToken();
  /// Credits a success back to the bucket.
  void RefillRetryToken();
  /// Stamps the remaining overall deadline onto `msg` and caps the inner
  /// transport's IO timeout to it (see RetryOptions::call_deadline_ms).
  void StampRemainingDeadline(Message* msg, double start_ms);
  /// The retry loop behind Call and MultiCall. Sends `requests` in rounds
  /// through the inner Submit/Await, `group_size` ops per frame (1 sends
  /// each stamped op as its own frame, more packs kMsgBatch envelopes),
  /// and returns one outcome per op. `multicall` picks the span names:
  /// rpc.multicall with rpc.envelope frames, or rpc.call with rpc.attempt.
  std::vector<Result<Message>> RunOps(std::span<const Message> requests,
                                      size_t group_size, bool multicall);

  Channel* inner_;
  RetryOptions options_;
  RandomSource* rng_;
  uint64_t client_id_ = 0;
  uint64_t next_seq_ = 0;
  double retry_tokens_ = 0.0;
  RetryStats retry_stats_;
  std::function<void(double)> sleep_fn_;
  std::function<double()> clock_fn_;
};

}  // namespace sse::net

#endif  // SSE_NET_RETRY_H_
