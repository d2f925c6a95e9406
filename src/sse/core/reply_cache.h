#ifndef SSE_CORE_REPLY_CACHE_H_
#define SSE_CORE_REPLY_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "sse/net/message.h"
#include "sse/obs/metrics_registry.h"
#include "sse/util/bytes.h"
#include "sse/util/result.h"

namespace sse::core {

/// Server-side at-most-once dedup table: per client, the replies to its
/// most recent session-stamped calls, keyed by sequence number.
///
/// The contract with RetryingChannel: a client stamps every logical call
/// with (client_id, seq) and reuses the stamp across retries, advancing seq
/// only after a call concludes. The server consults the cache BEFORE
/// executing: a seq it already answered is served the cached reply without
/// re-executing (critical for Scheme 1's XOR updates, where re-applying
/// toggles postings back OFF), a seq currently executing on another
/// connection is refused with a retryable verdict, and only genuinely new
/// seqs reach the handler.
///
/// Bounded on three axes: per client the newest `per_client_entries`
/// replies are retained (a synchronous client only ever retries its most
/// recent call, so the window is generous), the least-recently-active
/// clients are evicted beyond `max_clients`, and `max_total_entries` caps
/// the whole table — when exceeded, the oldest entry of the least-recently
/// -active client goes first (LRU at client granularity). A retry older
/// than the retained window is refused as FAILED_PRECONDITION rather than
/// risked — executing it could be a second application.
///
/// Thread-safe; Serialize/Restore make the table part of a snapshot so
/// dedup survives crash recovery (DurableServer additionally rebuilds the
/// entries for journaled mutations during WAL replay).
class ReplyCache {
 public:
  struct Options {
    size_t per_client_entries = 128;
    size_t max_clients = 1024;
    /// Cap on replies retained across ALL clients; 0 = no global bound
    /// (the per-client and per-table client bounds still apply).
    size_t max_total_entries = 0;
  };

  enum class Outcome {
    kNew,       // never seen: execute, then Commit or Abort
    kCached,    // duplicate of an answered call: *cached_reply is the answer
    kInFlight,  // duplicate racing its original: refuse, client retries
    kTooOld,    // retry fell out of the retained window: refuse
  };

  ReplyCache() : ReplyCache(Options{}) {}
  explicit ReplyCache(const Options& options) : options_(options) {}

  /// Claims (client, seq). On kCached fills `cached_reply` (which keeps its
  /// original type/payload; the caller re-echoes the session stamp).
  Outcome Begin(uint64_t client, uint64_t seq, net::Message* cached_reply);

  /// Records the reply for a claimed (client, seq) and releases the claim.
  void Commit(uint64_t client, uint64_t seq, const net::Message& reply);

  /// Releases a claim without recording — the handler rejected the request
  /// (no state change happened), so a retry may legitimately re-execute.
  void Abort(uint64_t client, uint64_t seq);

  /// Maps a non-kNew outcome to the status the client should see.
  static Status RefusalStatus(Outcome outcome);

  /// Snapshot integration. In-flight claims are transient and excluded.
  Bytes Serialize() const;
  Status Restore(BytesView data);

  void Clear();
  size_t client_count() const;
  size_t entry_count() const;
  uint64_t hits() const;       // duplicates served from cache
  uint64_t refusals() const;   // in-flight + too-old rejections
  uint64_t evictions() const;  // reply entries dropped to enforce bounds

  /// Exports entry_count() and evictions() as the gauges
  /// `<prefix>_entries` and `<prefix>_evictions_total`, appending their
  /// registrations to `into`. Each owner uses its own prefix, so the
  /// engine's cache and the durable shell's never share a series.
  void RegisterMetrics(const std::string& prefix,
                       std::vector<obs::MetricsRegistry::Registration>& into)
      const;

 private:
  struct ClientState {
    std::map<uint64_t, Bytes> replies;  // seq -> encoded reply message
    std::set<uint64_t> in_flight;
    uint64_t max_seen = 0;   // highest seq ever claimed
    uint64_t low_water = 0;  // seqs below this may have been evicted
    uint64_t last_used = 0;  // LRU tick
  };

  void EvictClientsLocked();
  void EvictEntriesLocked();
  void DropEntryLocked(ClientState* state,
                       std::map<uint64_t, Bytes>::iterator entry);

  Options options_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, ClientState> clients_;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t refusals_ = 0;
  uint64_t evictions_ = 0;
  size_t total_entries_ = 0;
};

}  // namespace sse::core

#endif  // SSE_CORE_REPLY_CACHE_H_
