#ifndef SSE_CORE_DURABLE_SERVER_H_
#define SSE_CORE_DURABLE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "sse/core/persistable.h"
#include "sse/core/reply_cache.h"
#include "sse/net/deadline.h"
#include "sse/net/wire.h"
#include "sse/obs/histogram.h"
#include "sse/obs/metrics_registry.h"
#include "sse/storage/env.h"
#include "sse/storage/snapshot.h"
#include "sse/storage/wal.h"

namespace sse::core {

/// Crash-safe shell around any PersistableHandler.
///
/// Layout in `dir`: generational checkpoints `state.snap.<gen>` (the last
/// two are retained) and segmented WAL files `wal.<number>.log` holding the
/// mutating request messages journaled since. Each checkpoint records the
/// WAL sequence it was cut at; recovery restores the newest generation that
/// verifies — falling back to the previous generation, then to WAL-only
/// replay when the log still covers history from sequence 1 — and
/// re-handles every journaled request past the restored cut. Because
/// server handling is deterministic given requests, replay reconstructs
/// the exact state. Only *successfully applied* mutations are journaled,
/// and the reply is withheld until the journal entry is durable — so
/// acknowledged updates survive crashes and rejected requests can never
/// poison recovery. Call Checkpoint() periodically to bound the log; old
/// segments are deleted only once they are no longer needed by the oldest
/// retained snapshot generation.
///
/// Storage faults are fail-stop: a failed WAL append, fsync, rotation or
/// snapshot write permanently degrades the server to read-only (a failed
/// fsync is never retried — the kernel may have dropped the dirty pages
/// while reporting the error only once). Degraded mode rejects mutations
/// with UNAVAILABLE (retryable, so clients fail over cleanly), keeps
/// serving searches, and notifies the inner handler once via
/// PersistableHandler::OnStorageDegraded so engines can expose the state
/// in their metrics. Recovery from a degraded server is a restart: the
/// on-disk image is intact up to the last durable record.
///
/// Concurrency: Handle() is safe to call from many threads when the inner
/// handler is itself thread-safe (e.g. an engine::ServerEngine). Appends
/// serialize on a WAL mutex; durability syncs use *group commit* — the
/// first waiter fsyncs on behalf of every append that landed before the
/// sync started, so N concurrent mutations cost far fewer than N fsyncs
/// while each reply still waits for its own record to be durable.
/// Checkpoint() quiesces mutating requests (a commit rw-lock) so the
/// snapshot and the compacted WAL stay consistent.
///
/// One commit loop serves every mutating request: a standalone mutation is
/// an op list of one, a kMsgBatch envelope its sub-ops. Each op is
/// refused, deduped or applied and journaled as its own record (replay
/// cannot tell a batched op from a standalone one), and one group fsync
/// then covers every record the request journaled.
///
/// At-most-once: session-stamped requests (see net::Message::StampSession)
/// are deduped through a ReplyCache *before* the apply+journal path, so a
/// client retry of an already-applied mutation is served the recorded
/// reply instead of being re-applied. The cache is part of the checkpoint
/// snapshot and is rebuilt for journaled mutations during WAL replay —
/// dedup therefore survives crash recovery, closing the window where a
/// crash between apply and reply would otherwise let a retry double-apply
/// a non-idempotent Scheme 1 update. Mutations only enter the cache after
/// their WAL record is durable; non-mutating requests bypass the cache
/// entirely (re-executing a search is harmless, and not recording search
/// results keeps the table small) but still have their session echoed.
/// Hook for primary→follower WAL replication (implemented by
/// repl::ReplSender). OnAppend runs with the WAL mutex held, immediately
/// after a record lands in the local log (durability not yet guaranteed) —
/// implementations must only enqueue, never block. WaitReplicated runs
/// after the record is locally durable, outside the WAL mutex, and may
/// block for a bounded time until the configured ack mode is satisfied
/// (e.g. at least one follower acknowledged the sequence).
class WalShipper {
 public:
  virtual ~WalShipper() = default;
  virtual void OnAppend(uint64_t wal_seq, BytesView record) = 0;
  virtual void WaitReplicated(uint64_t wal_seq) = 0;
};

class DurableServer : public net::MessageHandler {
 public:
  struct Options {
    /// Dedup session-stamped requests through a crash-surviving ReplyCache.
    bool enable_reply_cache = true;
    ReplyCache::Options reply_cache;
    /// Filesystem the WAL and snapshots live on; tests inject a FaultyEnv.
    storage::Env* env = storage::Env::Default();
    /// WAL segment rotation threshold.
    uint64_t wal_segment_bytes = 8ull << 20;
    /// Quarantine corrupt mid-segment WAL ranges during recovery instead
    /// of failing with CORRUPTION (see WalOptions::salvage). Strict by
    /// default: silent data loss must be opted into.
    bool wal_salvage = false;
    /// Replication hook: every journaled record is offered to the shipper
    /// right after its local append, and mutating replies additionally
    /// wait on WaitReplicated after their local fsync (ack-mode policy
    /// lives in the shipper). Must outlive the server. Null = standalone.
    WalShipper* shipper = nullptr;
  };

  /// One durable checkpoint blob: the WAL sequence the checkpoint was cut
  /// at plus the serialized inner state and reply cache. Recovery replays
  /// records with seq >= `wal_seq`, so a snapshot generation plus the
  /// retained WAL segments always form a consistent pair, whichever
  /// generation recovery ends up restoring. Public so the replication
  /// layer can ship whole snapshots to a follower that fell behind WAL
  /// compaction.
  struct SnapshotBlob {
    static constexpr uint32_t kMagic = 0x53445232;  // "SDR2"

    uint32_t magic = kMagic;
    uint64_t wal_seq = 1;
    Bytes state;
    Bytes cache;

    static constexpr auto kFields = std::tuple{
        &SnapshotBlob::magic, net::wire::Fixed(&SnapshotBlob::wal_seq),
        &SnapshotBlob::state, &SnapshotBlob::cache};
  };
  static Result<SnapshotBlob> DecodeSnapshot(BytesView blob);

  /// Recovery and checkpoint steps, shared with the replication follower
  /// (repl::ReplReceiver), whose directory is a DurableServer image too.

  /// Applies one journaled record to `handler`. When `cache` is non-null
  /// and the record is session-stamped, its reply is recorded so a retry
  /// arriving after recovery (or promotion) dedups instead of re-applying.
  static Status ApplyRecord(BytesView record, PersistableHandler* handler,
                            ReplyCache* cache);

  /// Installs one snapshot blob into `cache` (when non-null) and then
  /// `handler`; returns the WAL sequence it was cut at. On failure either
  /// may already hold the blob's contents.
  static Result<uint64_t> RestoreSnapshot(BytesView blob,
                                          PersistableHandler* handler,
                                          ReplyCache* cache);

  /// A directory recovered by Recover().
  struct Recovered {
    /// The WAL, opened for appends.
    std::unique_ptr<storage::WriteAheadLog> wal;
    /// WAL sequence of the restored snapshot's cut (1 when none restored).
    uint64_t cut_seq = 1;
    /// Journaled records replayed past the cut.
    uint64_t records_replayed = 0;
  };

  /// Restores the newest snapshot generation in `dir` that verifies and
  /// restores — falling back generation by generation, then to WAL-only
  /// replay — replays every journaled record past its cut through
  /// ApplyRecord, and opens the WAL. CORRUPTION when the log does not
  /// reach back to the cut. The opened WAL may still end before the cut
  /// (a snapshot installed but its log not yet reset); what that means is
  /// the caller's decision.
  static Result<Recovered> Recover(const std::string& dir,
                                   const storage::WalOptions& wal_options,
                                   PersistableHandler* handler,
                                   ReplyCache* cache);

  /// The checkpoint blob of `handler` and `cache` (when non-null), cut at
  /// WAL sequence `cut_seq`.
  static Result<Bytes> EncodeCheckpoint(uint64_t cut_seq,
                                        const PersistableHandler& handler,
                                        const ReplyCache* cache);

  /// Opens (and recovers) a durable server over `inner` in directory `dir`,
  /// which must exist. `inner` must outlive the DurableServer.
  static Result<std::unique_ptr<DurableServer>> Open(
      const std::string& dir, PersistableHandler* inner);
  static Result<std::unique_ptr<DurableServer>> Open(
      const std::string& dir, PersistableHandler* inner, Options options);

  Result<net::Message> Handle(const net::Message& request) override;

  /// Writes a snapshot of the inner state as a new generation, prunes old
  /// generations and compacts WAL segments no longer needed by the oldest
  /// retained generation. Blocks until in-flight mutating requests have
  /// committed, and blocks new ones while the snapshot is cut. Refused in
  /// degraded mode.
  Status Checkpoint();

  /// Journaled records not yet subsumed by the newest checkpoint.
  uint64_t wal_records() const;
  /// Sequence the WAL will stamp on the next append. The replication
  /// sender seeds its notion of the log end from this at startup.
  uint64_t wal_next_seq() const;
  /// fsyncs actually issued; under concurrent load with group commit this
  /// grows slower than wal_records().
  uint64_t wal_syncs() const;
  const std::string& directory() const { return dir_; }

  /// True once a storage fault has fail-stopped this server to read-only.
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }
  /// The fault that caused degradation (OK while healthy).
  Status degraded_cause() const;

  /// Dedup table for session-stamped requests; null when disabled.
  const ReplyCache* reply_cache() const { return reply_cache_.get(); }

  /// WAL append and fsync latency (also scraped via the metrics registry
  /// as sse_wal_append_seconds / sse_wal_fsync_seconds; checkpoint
  /// latency is scraped only, as sse_checkpoint_seconds).
  obs::LatencyHistogram::Snapshot wal_append_latency() const {
    return wal_append_hist_.Snap();
  }
  obs::LatencyHistogram::Snapshot wal_fsync_latency() const {
    return wal_fsync_hist_.Snap();
  }

 private:
  DurableServer(std::string dir, PersistableHandler* inner,
                std::unique_ptr<storage::WriteAheadLog> wal, Options options,
                std::unique_ptr<ReplyCache> reply_cache,
                uint64_t last_checkpoint_seq)
      : dir_(std::move(dir)),
        inner_(inner),
        wal_(std::move(wal)),
        options_(options),
        snapshots_(dir_, options.env),
        reply_cache_(std::move(reply_cache)),
        last_checkpoint_seq_(last_checkpoint_seq) {}

  /// A non-mutating request: no commit lock, no journal, no dedup.
  Result<net::Message> Read(const net::Message& request);

  /// The commit loop. Runs `ops` in order under the shared commit lock,
  /// then one group fsync covers every record they journaled; cache
  /// entries are committed only after it lands, and a failed sync
  /// withdraws every claim. Replies align with `ops`.
  std::vector<Result<net::Message>> Commit(std::span<const net::Message> ops);

  /// Whether a mutating op goes through the dedup table. Only mutations
  /// do: re-executing a read-only retry is harmless, and not recording
  /// search results keeps the cache small and the fault-free overhead low.
  bool Dedups(const net::Message& op) const {
    return reply_cache_ != nullptr && op.has_session;
  }

  /// One op of Commit: the refusals (nested envelope, deadline, degraded),
  /// the dedup claim, apply and journal. On a journaled op `*appended` is
  /// set and `*sync_seq` / `*wal_seq` advance to its record.
  Result<net::Message> ApplyAndJournal(const net::Message& op,
                                       const net::Deadline& deadline,
                                       bool* appended, uint64_t* sync_seq,
                                       uint64_t* wal_seq);

  /// Blocks until every append up to `seq` is fsynced, electing the caller
  /// as the sync leader if none is running.
  Status SyncUpTo(uint64_t seq);

  /// Fail-stop: records the cause, flips the degraded flag and notifies
  /// the inner handler exactly once. Returns the UNAVAILABLE status
  /// mutations are answered with from now on.
  Status EnterDegraded(const Status& cause);
  Status DegradedStatus() const;

  std::string dir_;
  PersistableHandler* inner_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  Options options_;
  storage::SnapshotSet snapshots_;
  std::unique_ptr<ReplyCache> reply_cache_;

  /// Held shared by Commit() for its whole apply+journal+cache span,
  /// exclusively by Checkpoint(): the snapshot sees no half-committed
  /// mutation and no applied-but-unjournaled request can be compacted away.
  std::shared_mutex commit_mutex_;

  mutable std::mutex wal_mutex_;  // guards wal_ appends and the fields below
  std::condition_variable sync_cv_;
  uint64_t appended_seq_ = 0;
  uint64_t synced_seq_ = 0;
  bool sync_in_progress_ = false;
  uint64_t syncs_performed_ = 0;
  uint64_t last_checkpoint_seq_ = 1;  // WAL seq the newest snapshot was cut at

  std::atomic<bool> degraded_{false};
  mutable std::mutex degraded_mutex_;  // guards degraded_cause_
  Status degraded_cause_;

  obs::LatencyHistogram wal_append_hist_;
  obs::LatencyHistogram wal_fsync_hist_;
  obs::LatencyHistogram checkpoint_hist_;
  /// Scrape hooks into the process-wide registry (released on destruction).
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace sse::core

#endif  // SSE_CORE_DURABLE_SERVER_H_
