#ifndef SSE_NET_CHANNEL_H_
#define SSE_NET_CHANNEL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sse/net/message.h"
#include "sse/util/result.h"

namespace sse::net {

/// Server-side message dispatcher: one request in, one reply out.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual Result<Message> Handle(const Message& request) = 0;
};

/// Cumulative traffic accounting for one client-server connection. This is
/// what the Table 1 benches read: "rounds" is exactly the paper's
/// communication-round count (one Call = one round trip), and the byte
/// counters measure the bandwidth claims of §5.4.
struct ChannelStats {
  uint64_t rounds = 0;
  uint64_t bytes_sent = 0;      // client -> server, framed
  uint64_t bytes_received = 0;  // server -> client, framed
  /// Physical frames on the wire. One Call is one frame each way, but a
  /// pipelined batch envelope carries many logical ops per frame — these
  /// counters are what the "K-keyword Store in ≤4 frames" claims measure.
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  std::map<uint16_t, uint64_t> calls_by_type;
  /// Faults deliberately injected by a testing decorator (chaos.h) at or
  /// below this channel. Zero on real transports.
  uint64_t injected_faults = 0;

  void Clear() { *this = ChannelStats{}; }
  uint64_t TotalBytes() const { return bytes_sent + bytes_received; }
  std::string ToString() const;
};

/// One request/response exchange as seen on the wire, with the direction
/// split out; the security module reconstructs the server's *view* from a
/// sequence of these.
struct Exchange {
  Message request;
  Message reply;
};

/// Client-side connection abstraction: one `Call` is one communication
/// round.
///
/// Channels also expose an *asynchronous* form of the same exchange:
/// `Submit` hands a request to the transport and returns a ticket,
/// `Await` blocks for that request's reply. A true pipelined transport
/// (TcpChannel) writes the frame immediately and keeps reading frames
/// until the awaited reply arrives, correlating replies to in-flight
/// submissions by their (client_id, seq) session echo — so many calls can
/// be on the wire at once. The base implementation degrades gracefully:
/// Submit executes the call synchronously and buffers the result, which
/// keeps every decorator (fault injection, chaos, in-process) correct
/// without changes, just without wire-level overlap.
///
/// Channels are single-caller objects: Submit/Await/Call must not race
/// from multiple threads (use one channel per client thread, as the rest
/// of the stack already does).
class Channel {
 public:
  /// Ticket for a submitted-but-not-awaited call, unique per channel.
  using CallId = uint64_t;

  virtual ~Channel() = default;

  /// Sends `request`, waits for the reply. Transport-level failures come
  /// back as statuses; an application-level kMsgError reply is surfaced as
  /// its embedded status.
  virtual Result<Message> Call(const Message& request) = 0;

  /// Starts a call without waiting for its reply. The default executes
  /// eagerly via Call and buffers the outcome for Await.
  virtual CallId Submit(const Message& request);

  /// Blocks until the reply for `id` is available and returns it. Each
  /// ticket can be awaited exactly once; awaiting an unknown ticket is an
  /// INVALID_ARGUMENT.
  virtual Result<Message> Await(CallId id);

  /// Submitted calls whose replies have not been awaited yet.
  virtual size_t pending_calls() const { return buffered_.size(); }

  /// Executes many logical calls, returning per-op outcomes aligned with
  /// `requests`. The default loops Call sequentially; a RetryingChannel
  /// overrides this to pack the ops into pipelined batch envelopes with
  /// per-op retry (see net/retry.h).
  virtual std::vector<Result<Message>> MultiCall(
      const std::vector<Message>& requests);

  /// Discards any transport state that could deliver a stale reply — a TCP
  /// channel drops and re-establishes its connection, a fault/chaos
  /// decorator flushes its simulated in-flight queue. Retry layers call
  /// this before re-sending after an ambiguous failure. No-op by default
  /// (an in-process call cannot leave residue). Pipelined transports fail
  /// any still-pending submissions.
  virtual void Reset() {}

  /// Caps how long one exchange may block at the transport (ms); 0 lifts
  /// the cap. Retry layers set this to the caller's *remaining* overall
  /// deadline before each attempt, so the last attempt cannot overshoot
  /// the budget the way a fixed per-attempt timeout can. No-op by default
  /// (in-process calls do not block on IO); decorators forward it inward.
  virtual void SetIoDeadlineMs(double /*ms*/) {}

  virtual const ChannelStats& stats() const = 0;
  virtual void ResetStats() = 0;

 protected:
  /// Buffered results for the default (synchronous) Submit/Await pair.
  std::map<CallId, Result<Message>> buffered_;
  CallId next_call_id_ = 1;
};

/// In-process channel: dispatches directly to a `MessageHandler`, counting
/// rounds and framed bytes, optionally keeping a full transcript and
/// simulating link latency.
class InProcessChannel : public Channel {
 public:
  struct Options {
    /// Keep a copy of every exchange (memory-heavy; for security analyses
    /// and tests, not for large benches).
    bool record_transcript = false;
    /// Simulated round-trip time added per Call to the virtual clock.
    double rtt_ms = 0.0;
    /// Simulated link bandwidth (0 = infinite) for the virtual clock.
    double bandwidth_bytes_per_sec = 0.0;
  };

  /// `handler` must outlive the channel.
  explicit InProcessChannel(MessageHandler* handler)
      : InProcessChannel(handler, Options()) {}
  InProcessChannel(MessageHandler* handler, Options options);

  Result<Message> Call(const Message& request) override;

  const ChannelStats& stats() const override { return stats_; }
  /// Mutable access for owners that reset or adjust counters between bench
  /// phases (e.g. core::SseSystem::stats()).
  ChannelStats& mutable_stats() { return stats_; }
  void ResetStats() override {
    stats_.Clear();
    virtual_time_ms_ = 0.0;
  }

  /// Accumulated simulated network time (rounds * rtt + bytes / bandwidth).
  double virtual_time_ms() const { return virtual_time_ms_; }

  const std::vector<Exchange>& transcript() const { return transcript_; }
  void ClearTranscript() { transcript_.clear(); }

 private:
  MessageHandler* handler_;
  Options options_;
  ChannelStats stats_;
  double virtual_time_ms_ = 0.0;
  std::vector<Exchange> transcript_;
};

}  // namespace sse::net

#endif  // SSE_NET_CHANNEL_H_
