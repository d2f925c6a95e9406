#ifndef SSE_NET_CHAOS_H_
#define SSE_NET_CHAOS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "sse/net/channel.h"
#include "sse/util/random.h"

namespace sse::net {

/// Per-direction fault probabilities for ChaosChannel, all in [0, 1] and
/// drawn independently per Call from a seeded generator, so a failing
/// schedule replays exactly from its seed.
struct ChaosOptions {
  uint64_t seed = 1;

  double p_request_drop = 0.0;       // request never reaches the server
  double p_request_duplicate = 0.0;  // server processes the request twice
  double p_request_corrupt = 0.0;    // payload byte flipped before the server
  double p_reply_drop = 0.0;         // server processed; reply lost
  double p_reply_duplicate = 0.0;    // reply delivered again on a later read
  double p_reply_corrupt = 0.0;      // payload byte flipped before the client
  double p_delay = 0.0;              // call delayed by [delay_min, delay_max]

  double delay_min_ms = 0.0;
  double delay_max_ms = 5.0;
};

/// Injection counters, by fault kind.
struct ChaosStats {
  uint64_t calls = 0;
  uint64_t request_drops = 0;
  uint64_t request_duplicates = 0;
  uint64_t request_corruptions = 0;
  uint64_t reply_drops = 0;
  uint64_t reply_duplicates = 0;
  uint64_t reply_corruptions = 0;
  uint64_t delays = 0;
  uint64_t stale_served = 0;  // calls answered with a buffered stale reply

  uint64_t total_injected() const {
    return request_drops + request_duplicates + request_corruptions +
           reply_drops + reply_duplicates + reply_corruptions + delays;
  }
};

/// A fault scheduled for one exact call (ChaosChannel::FailCall).
enum class ChaosFault { kRequestDrop, kReplyDrop, kReplyDuplicate };

/// Seeded fault injector over any Channel, the adversary the exactly-once
/// stack (RetryingChannel + core::ReplyCache) must beat. Faults come from
/// the per-call probabilities in ChaosOptions and from faults scheduled at
/// exact call indices with FailCall, which tests use to pin client
/// behaviour at one failure point.
///
/// Faithfulness notes, per fault:
///  * request drop   — inner never called; the client sees IO_ERROR while
///    the server state is untouched.
///  * request dup    — inner called twice with identical bytes (same
///    session stamp); the second reply joins the stale-reply queue exactly
///    as a doubled datagram would leave an extra reply in the stream.
///  * reply drop     — inner called once; the reply is discarded and the
///    client sees IO_ERROR although server-side effects persist. This is
///    the poison case for non-idempotent Scheme 1 updates.
///  * reply dup      — a copy of the reply is queued; while the queue is
///    non-empty every later Call is answered with the queue head (the
///    stream is off by one) and its own fresh reply is queued behind,
///    mimicking a pipelined TCP stream after a doubled frame. Reset()
///    flushes the queue, as a real reconnect would.
///  * corruption     — one payload byte is flipped WITHOUT refreshing the
///    session checksum, so the receiving side detects it exactly like wire
///    damage: the server rejects a corrupt request with CORRUPTION (a
///    retryable verdict for the retry layer), the client discards a
///    corrupt reply the same way.
///  * delay          — the sleep hook runs (tests plug a virtual clock),
///    exercising deadline budgets without wall-clock cost.
class ChaosChannel : public Channel {
 public:
  /// `inner` must outlive this wrapper.
  ChaosChannel(Channel* inner, const ChaosOptions& options);

  Result<Message> Call(const Message& request) override;

  /// Flushes the simulated stream (drops buffered stale replies) and
  /// resets the inner transport.
  void Reset() override;

  void SetIoDeadlineMs(double ms) override { inner_->SetIoDeadlineMs(ms); }

  const ChannelStats& stats() const override { return stats_; }
  void ResetStats() override {
    stats_.Clear();
    inner_->ResetStats();
  }

  const ChaosStats& chaos_stats() const { return chaos_stats_; }

  /// Injects `fault` into the `call_index`-th Call (0-based, counting every
  /// Call made through this wrapper), on top of the probabilistic faults.
  void FailCall(uint64_t call_index, ChaosFault fault) {
    scheduled_[call_index] = fault;
  }

  /// Replaces wall-clock sleeping for injected delays.
  void set_sleep_fn(std::function<void(double)> fn) {
    sleep_fn_ = std::move(fn);
  }

 private:
  bool Roll(double p);
  void CorruptPayload(Message& msg);

  Channel* inner_;
  ChaosOptions options_;
  DeterministicRandom rng_;
  ChannelStats stats_;
  ChaosStats chaos_stats_;
  std::deque<Message> stale_replies_;
  std::function<void(double)> sleep_fn_;
  std::map<uint64_t, ChaosFault> scheduled_;  // call index -> fault
};

}  // namespace sse::net

#endif  // SSE_NET_CHAOS_H_
