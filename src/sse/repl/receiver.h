#ifndef SSE_REPL_RECEIVER_H_
#define SSE_REPL_RECEIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/persistable.h"
#include "sse/core/reply_cache.h"
#include "sse/net/message.h"
#include "sse/obs/metrics_registry.h"
#include "sse/repl/messages.h"
#include "sse/storage/env.h"
#include "sse/storage/snapshot.h"
#include "sse/storage/wal.h"

namespace sse::repl {

/// Follower-side replication endpoint: applies shipped WAL records to a
/// live read view and journals them — byte-exact — into the follower's own
/// segmented WAL, so the follower's directory is at all times a valid
/// DurableServer image. Promotion therefore needs no special machinery: it
/// discards the view and runs plain `DurableServer::Open` on the
/// directory, replaying the shipped segments through the battle-tested
/// salvage/snapshot recovery path.
///
/// Invariants:
///  - Records are accepted only exactly at the local cursor
///    (`wal.next_seq()`); older sequences are skipped as duplicates,
///    gaps are refused with an ack carrying the cursor so the sender
///    rewinds. The local log is always contiguous.
///  - Acks are sent only after the records are fsynced locally — an acked
///    sequence survives a follower crash.
///  - Appends from an epoch below the follower's own are fenced off
///    (rejected without touching the log).
///
/// The read view answers non-mutating requests ("stale reads"); a view
/// that ever diverges from its log (an apply failure) fail-stops reads
/// while the on-disk image stays sound for promotion.
class ReplReceiver {
 public:
  using HandlerFactory =
      std::function<std::unique_ptr<core::PersistableHandler>()>;

  struct Options {
    storage::Env* env = storage::Env::Default();
    uint64_t wal_segment_bytes = 8ull << 20;
    bool wal_salvage = false;
    core::ReplyCache::Options reply_cache;
    /// Checkpoint the view + compact the local WAL every N applied
    /// records; 0 = only on explicit Checkpoint() calls.
    uint64_t checkpoint_every_records = 0;
  };

  /// Opens the follower state in `dir` (which must exist): recovers a
  /// fresh handler from `factory` through DurableServer::Recover (newest
  /// verifying snapshot, local WAL replayed on top) and opens the log for
  /// shipped appends.
  /// `epoch` seeds the fencing epoch (persisted by the owning ReplNode).
  static Result<std::unique_ptr<ReplReceiver>> Open(const std::string& dir,
                                                    HandlerFactory factory,
                                                    uint64_t epoch);
  static Result<std::unique_ptr<ReplReceiver>> Open(const std::string& dir,
                                                    HandlerFactory factory,
                                                    uint64_t epoch,
                                                    Options options);

  /// kMsgReplAppend → kMsgReplAck. Applies + journals + fsyncs the run.
  Result<net::Message> HandleAppend(const net::Message& request);
  /// kMsgReplSnapshot → kMsgReplAck. Installs a shipped checkpoint and
  /// restarts the local log at its cut.
  Result<net::Message> HandleSnapshot(const net::Message& request);
  /// Serves a non-mutating request from the (possibly stale) read view.
  /// Mutating requests are refused with a retryable "not primary".
  Result<net::Message> HandleRead(const net::Message& request);

  /// Snapshots the view + reply cache and compacts the local WAL, exactly
  /// like DurableServer::Checkpoint — the blob formats are identical.
  Status Checkpoint();

  /// Sequence the local durable log expects next.
  uint64_t next_seq() const;
  /// Highest fencing epoch seen (monotonic; adopted from shipped traffic).
  uint64_t epoch() const;
  uint64_t records_applied() const;
  bool view_ok() const;

 private:
  ReplReceiver(std::string dir, HandlerFactory factory, Options options,
               uint64_t epoch)
      : dir_(std::move(dir)),
        factory_(std::move(factory)),
        options_(options),
        snapshots_(dir_, options.env),
        epoch_(epoch) {}

  Status CheckpointLocked();

  std::string dir_;
  HandlerFactory factory_;
  Options options_;
  storage::SnapshotSet snapshots_;

  mutable std::mutex mutex_;
  std::unique_ptr<core::PersistableHandler> view_;
  std::unique_ptr<core::ReplyCache> cache_;
  std::unique_ptr<storage::WriteAheadLog> wal_;
  uint64_t epoch_ = 0;
  uint64_t last_checkpoint_seq_ = 1;
  uint64_t records_applied_ = 0;
  uint64_t records_since_checkpoint_ = 0;
  bool view_ok_ = true;
  std::vector<obs::MetricsRegistry::Registration> registrations_;
};

}  // namespace sse::repl

#endif  // SSE_REPL_RECEIVER_H_
