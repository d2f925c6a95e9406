#ifndef SSE_REPL_FAILOVER_CHANNEL_H_
#define SSE_REPL_FAILOVER_CHANNEL_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sse/net/channel.h"
#include "sse/net/tcp.h"
#include "sse/repl/sender.h"
#include "sse/util/result.h"

namespace sse::repl {

/// Scans Prometheus text for a `name value` sample at line start; returns
/// false when the series is absent. This is how the client side reads
/// replication role out of the kMsgStats scrape.
bool FindMetricValue(const std::string& prometheus_text,
                     const std::string& name, double* value);

/// Client-side endpoint router: one Channel facade over a replicated
/// node set. Mutations go to the current primary — discovered by probing
/// endpoints with the stats RPC and reading the node-injected
/// `sse_repl_is_primary` gauge — and the learned role is cached until it
/// stops working. Searches can optionally fan out to followers
/// (explicitly stale reads).
///
/// This layer performs exactly ONE routing attempt per call: failures
/// surface as retryable statuses and a demoted role cache. Stack a
/// RetryingChannel on top for retries — its inner Reset() between
/// attempts lands here and forces a fresh primary probe, and its session
/// stamping keeps re-routed mutations exactly-once at the server's
/// ReplyCache even when an attempt switches endpoints mid-flight.
///
/// Like every Channel, a FailoverChannel is a single-caller object.
class FailoverChannel : public net::Channel {
 public:
  struct Options {
    /// Transport knobs for every per-endpoint TcpChannel.
    net::TcpChannel::Options channel;
    /// Serve requests whose type the message-type table classes as
    /// search (net/message_types.h) from any reachable endpoint (follower
    /// read views are stale by up to the replication lag). Everything
    /// else, unknown types included, goes to the primary. Off = every
    /// call routes to the primary.
    bool read_from_followers = false;
    /// Redial gate per endpoint after a failed dial.
    uint64_t backoff_initial_ms = 100;
    uint64_t backoff_max_ms = 2000;
    /// Per-endpoint circuit breaker: after this many *consecutive*
    /// retryable failures the endpoint is held open (refused without a
    /// wire attempt) for `breaker_open_ms`, then given one half-open
    /// trial. A server-side shed (RESOURCE_EXHAUSTED) opens the breaker
    /// immediately for the server's retry-after hint — the node is alive,
    /// it asked to be left alone. 0 disables the breaker.
    int breaker_failure_threshold = 5;
    uint64_t breaker_open_ms = 1000;
  };

  /// Circuit state of one endpoint, oldest pattern in the book: closed =
  /// traffic flows, open = refuse until a deadline, half-open = one probe
  /// in flight decides which way to settle.
  enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

  explicit FailoverChannel(std::vector<ReplSender::Endpoint> endpoints);
  FailoverChannel(std::vector<ReplSender::Endpoint> endpoints,
                  Options options);
  ~FailoverChannel() override;

  Result<net::Message> Call(const net::Message& request) override;
  CallId Submit(const net::Message& request) override;
  Result<net::Message> Await(CallId id) override;
  size_t pending_calls() const override;

  /// Drops the cached primary and resets every endpoint transport; the
  /// next call re-probes. RetryingChannel calls this between attempts.
  void Reset() override;

  /// Forwards the IO-deadline cap to every endpoint transport (current
  /// and future — late-dialed nodes inherit it on connect).
  void SetIoDeadlineMs(double ms) override;

  const net::ChannelStats& stats() const override;
  void ResetStats() override;

  /// Index into the endpoint list of the cached primary, -1 if unknown.
  int primary_index() const { return primary_; }
  /// Times the cached primary was demoted (a failover as the client saw it).
  uint64_t failovers() const { return failovers_; }
  /// Times any endpoint's breaker transitioned closed/half-open -> open.
  uint64_t breaker_opens() const { return breaker_opens_; }
  /// Current breaker state per endpoint, aligned with endpoints().
  std::vector<BreakerState> breaker_states() const;
  std::vector<std::string> endpoints() const;

 private:
  struct Node {
    ReplSender::Endpoint endpoint;
    std::unique_ptr<net::TcpChannel> channel;
    std::chrono::steady_clock::time_point next_dial{};
    uint64_t backoff_ms = 0;
    BreakerState breaker = BreakerState::kClosed;
    std::chrono::steady_clock::time_point breaker_until{};
    int consecutive_failures = 0;
  };

  /// Connects the node's channel if needed; respects the dial backoff.
  net::TcpChannel* Ensure(Node* node);
  void MarkDialFailure(Node* node);
  /// Probes endpoints with the stats RPC until one reports itself
  /// primary; caches and returns its index, or -1.
  int FindPrimary();
  void DemotePrimary();
  /// True if the breaker lets a call through right now (an expired open
  /// breaker transitions to half-open and admits the probe).
  bool BreakerAllows(Node* node);
  /// Opens the node's breaker for `open_ms`.
  void OpenBreaker(Node* node, uint64_t open_ms);
  /// Feeds one call outcome into the node's breaker state machine.
  void RecordOutcome(Node* node, const Status& status);
  /// Routes `request` to the node the policy picks (primary for
  /// mutations, round-robin otherwise); its channel is connected. Null =
  /// nothing reachable or circuit open, `*why` says so.
  Node* Route(const net::Message& request, Status* why);

  const Options options_;
  std::vector<Node> nodes_;
  int primary_ = -1;
  size_t read_rr_ = 0;  // round-robin cursor for follower reads
  uint64_t failovers_ = 0;
  uint64_t breaker_opens_ = 0;
  double io_deadline_ms_ = 0.0;
  // Own CallId → (node index, inner channel's CallId).
  std::map<CallId, std::pair<size_t, CallId>> pending_;
  mutable net::ChannelStats merged_stats_;
};

}  // namespace sse::repl

#endif  // SSE_REPL_FAILOVER_CHANNEL_H_
