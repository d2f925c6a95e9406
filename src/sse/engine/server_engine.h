#ifndef SSE_ENGINE_SERVER_ENGINE_H_
#define SSE_ENGINE_SERVER_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <vector>

#include "sse/core/persistable.h"
#include "sse/core/reply_cache.h"
#include "sse/engine/metrics.h"
#include "sse/engine/scheme_shard.h"
#include "sse/engine/worker_pool.h"
#include "sse/obs/metrics_registry.h"
#include "sse/obs/trace.h"
#include "sse/storage/document_store.h"

namespace sse::engine {

struct EngineOptions {
  /// Number of index shards. Tokens are PRF outputs, so any count gives a
  /// uniform partition; powers of two are conventional, not required.
  size_t num_shards = 8;

  /// Worker threads for scatter dispatch (0 = one per shard, capped at the
  /// shard count). Scatters also run inline when they hit a single shard.
  size_t worker_threads = 0;

  /// At-most-once dedup of session-stamped requests (see core::ReplyCache):
  /// a retried call is served its cached reply instead of being re-applied,
  /// which is what keeps Scheme 1's XOR updates safe under retries. The
  /// cache rides along in SerializeState so dedup survives checkpoints.
  bool enable_reply_cache = true;
  core::ReplyCache::Options reply_cache;
};

/// Thread-safe sharded server: owns N SchemeShard instances behind
/// per-shard reader-writer locks, a shared document store behind its own
/// rw-lock, and a fixed worker pool for scatter requests. Handle() may be
/// called from any number of threads concurrently — searches on different
/// keywords proceed in parallel, updates serialize only within the shards
/// they touch.
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
  bool IsMutating(uint16_t msg_type) const override;

  /// Storage fail-stop notification (see PersistableHandler): flips the
  /// engine read-only and surfaces the state in Metrics(). Mutations are
  /// rejected with UNAVAILABLE from then on — defense in depth behind the
  /// DurableServer's own rejection — while searches keep serving.
  void OnStorageDegraded(const Status& cause) override;
  bool degraded() const { return metrics_.degraded(); }

  size_t num_shards() const { return slots_.size(); }
  size_t worker_threads() const { return pool_->thread_count(); }
  const SchemeAdapter& adapter() const { return *adapter_; }

  /// Aggregates over all shards (takes each shard's lock shared).
  size_t unique_keywords() const;
  uint64_t stored_index_bytes() const;
  size_t document_count() const;
  uint64_t document_bytes() const;

  MetricsSnapshot Metrics() const { return metrics_.Snap(); }

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

  ServerEngine(std::unique_ptr<SchemeAdapter> adapter, EngineOptions options);

  /// Unpacks a kMsgBatch envelope and runs each sub-op through the normal
  /// dedup + routing path, fanning sub-ops across the worker pool. Per-op
  /// failures come back as kMsgError entries in the BatchReply; the
  /// envelope itself only fails on a malformed envelope.
  Result<net::Message> HandleBatch(const net::Message& request);
  /// `allow_pool` is false when the caller is itself a pool task (batch
  /// sub-ops): a nested scatter then runs sequentially, since the worker
  /// pool must never block a worker on work queued behind it.
  Result<net::Message> HandleDeduped(const net::Message& request,
                                     bool allow_pool);
  Result<net::Message> HandleInternal(const net::Message& request,
                                      bool allow_pool);
  Result<net::Message> HandleFetchDocuments(const net::Message& request);
  /// `parent` is the trace context the per-shard span attaches to; sub
  /// dispatch may run on a pool thread, where the thread-local current
  /// context is not this request's.
  Result<net::Message> DispatchSub(const SubRequest& sub,
                                   const obs::TraceContext& parent);

  std::unique_ptr<SchemeAdapter> adapter_;
  EngineOptions options_;
  std::unique_ptr<core::ReplyCache> reply_cache_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::shared_mutex docs_mutex_;
  storage::DocumentStore docs_;
  mutable EngineMetrics metrics_;
  std::unique_ptr<WorkerPool> pool_;
  /// Scrape hooks into the process-wide registry (released on destruction
  /// so a short-lived engine in a test stops being scraped).
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

/// Snapshot header guarding engine state against being restored into a
/// differently configured engine (shard states are partition-dependent).
inline constexpr uint32_t kEngineSnapshotMagic = 0x53454e47;  // "SENG"

}  // namespace sse::engine

#endif  // SSE_ENGINE_SERVER_ENGINE_H_
