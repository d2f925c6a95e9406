#ifndef SSE_ENGINE_SERVER_ENGINE_H_
#define SSE_ENGINE_SERVER_ENGINE_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "sse/core/document_store.h"
#include "sse/core/persistable.h"
#include "sse/core/reply_cache.h"
#include "sse/engine/scheme_shard.h"
#include "sse/obs/histogram.h"
#include "sse/obs/metrics_registry.h"

namespace sse::engine {

struct EngineOptions {
  /// Number of index shards. Tokens are PRF outputs, so any count gives a
  /// uniform partition; powers of two are conventional, not required.
  size_t num_shards = 8;

  /// At-most-once dedup of session-stamped requests (see core::ReplyCache):
  /// a retried call is served its cached reply instead of being re-applied,
  /// which is what keeps Scheme 1's XOR updates safe under retries. The
  /// cache rides along in SerializeState so dedup survives checkpoints.
  /// Off by default: a served engine sits behind DurableServer, whose own
  /// cache already dedups every mutation before it reaches the engine.
  bool enable_reply_cache = false;
  core::ReplyCache::Options reply_cache;
};

/// Thread-safe sharded server: owns N SchemeShard instances behind
/// per-shard reader-writer locks and a shared document store behind its
/// own rw-lock. It starts no thread: every request, its sub-requests and
/// a batch's sub-ops run in order on the thread that called Handle().
/// Handle() may be called from any number of threads concurrently —
/// searches on different keywords proceed in parallel, updates serialize
/// only within the shards they touch.
///
/// Locking discipline (deadlock-free by construction): a dispatched
/// sub-request locks exactly one shard and nothing else; the document store
/// lock is only taken when no shard lock is held (document puts happen
/// after every sub-request completed and released its shard; fetches happen
/// during merge, likewise after release). SerializeState/RestoreState lock
/// shards in index order.
///
/// The engine is itself a PersistableHandler, so DurableServer can wrap it
/// unchanged: snapshots compose the shared document store with every
/// shard's SerializeState, and WAL replay re-runs whole client messages
/// through the same routing.
class ServerEngine : public core::PersistableHandler {
 public:
  /// `adapter` supplies the scheme's shard factory and routing policy.
  static Result<std::unique_ptr<ServerEngine>> Create(
      std::unique_ptr<SchemeAdapter> adapter, const EngineOptions& options);

  Result<net::Message> Handle(const net::Message& request) override;
  Result<Bytes> SerializeState() const override;
  Status RestoreState(BytesView data) override;

  /// Storage fail-stop notification (see PersistableHandler): flips the
  /// engine read-only and surfaces the state as the sse_engine_degraded
  /// gauge. Mutations are rejected with UNAVAILABLE from then on — defense
  /// in depth behind the DurableServer's own rejection — while searches
  /// keep serving.
  void OnStorageDegraded(const Status& cause) override;
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  size_t num_shards() const { return slots_.size(); }
  const SchemeAdapter& adapter() const { return *adapter_; }

  /// Aggregates over all shards (takes each shard's lock shared).
  size_t unique_keywords() const;
  uint64_t stored_index_bytes() const;
  size_t document_count() const;

  /// Dedup table for session-stamped requests; null when disabled.
  const core::ReplyCache* reply_cache() const { return reply_cache_.get(); }

  /// Direct shard access for tests and stats; the caller must not race
  /// with concurrent Handle() calls that write the shard.
  SchemeShard* shard(size_t i) { return slots_[i]->shard.get(); }
  const SchemeShard* shard(size_t i) const { return slots_[i]->shard.get(); }

 private:
  struct Slot {
    std::unique_ptr<SchemeShard> shard;
    mutable std::shared_mutex mutex;
  };

  explicit ServerEngine(std::unique_ptr<SchemeAdapter> adapter);

  /// Unpacks a kMsgBatch envelope and runs each sub-op, in order, through
  /// the normal dedup + routing path. Per-op failures come back as
  /// kMsgError entries in the BatchReply; the envelope itself only fails
  /// on a malformed envelope.
  Result<net::Message> HandleBatch(const net::Message& request);
  Result<net::Message> HandleDeduped(const net::Message& request);
  Result<net::Message> HandleInternal(const net::Message& request);
  Result<net::Message> DispatchSub(const SubRequest& sub);

  std::unique_ptr<SchemeAdapter> adapter_;
  std::unique_ptr<core::ReplyCache> reply_cache_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::shared_mutex docs_mutex_;
  core::DocumentStore docs_;
  /// Per-engine state behind the registry's gauge and histograms; the
  /// engine's counters are process-wide registry counters (the
  /// sse_engine_*_total series).
  obs::LatencyHistogram handle_latency_;  // whole-request latency
  obs::LatencyHistogram lock_wait_;       // per-sub-request lock waits
  std::atomic<bool> degraded_{false};
  /// Scrape hooks into the process-wide registry (released on destruction
  /// so a short-lived engine in a test stops being scraped).
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

/// Snapshot header guarding engine state against being restored into a
/// differently configured engine (shard states are partition-dependent).
inline constexpr uint32_t kEngineSnapshotMagic = 0x53454e47;  // "SENG"

}  // namespace sse::engine

#endif  // SSE_ENGINE_SERVER_ENGINE_H_
