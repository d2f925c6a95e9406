#include "sse/core/durable_server.h"

#include <chrono>
#include <utility>
#include <vector>

#include "sse/net/batch.h"
#include "sse/net/deadline.h"
#include "sse/obs/events.h"
#include "sse/obs/trace.h"

namespace sse::core {

namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
}  // namespace

Result<DurableServer::SnapshotBlob> DurableServer::DecodeSnapshot(
    BytesView blob) {
  SnapshotBlob out;
  SSE_ASSIGN_OR_RETURN(out, net::wire::Parse<SnapshotBlob>(blob));
  if (out.magic != SnapshotBlob::kMagic) {
    return Status::Corruption("durable snapshot magic mismatch");
  }
  return out;
}

Status DurableServer::ApplyRecord(BytesView record,
                                  PersistableHandler* handler,
                                  ReplyCache* cache) {
  Result<net::Message> msg = net::Message::Decode(record);
  if (!msg.ok()) return msg.status();
  Result<net::Message> reply = handler->Handle(*msg);
  if (!reply.ok()) return reply.status();
  if (cache != nullptr && msg->has_session) {
    reply->EchoSession(*msg);
    cache->Commit(msg->client_id, msg->seq, *reply);
  }
  return Status::OK();
}

Result<uint64_t> DurableServer::RestoreSnapshot(BytesView blob,
                                                PersistableHandler* handler,
                                                ReplyCache* cache) {
  SnapshotBlob contents;
  SSE_ASSIGN_OR_RETURN(contents, DecodeSnapshot(blob));
  if (cache != nullptr) {
    if (contents.cache.empty()) {
      cache->Clear();
    } else {
      SSE_RETURN_IF_ERROR(cache->Restore(contents.cache));
    }
  }
  SSE_RETURN_IF_ERROR(handler->RestoreState(contents.state));
  return contents.wal_seq;
}

Result<DurableServer::Recovered> DurableServer::Recover(
    const std::string& dir, const storage::WalOptions& wal_options,
    PersistableHandler* handler, ReplyCache* cache) {
  // 1. Restore the newest snapshot generation that verifies AND restores,
  // falling back generation by generation. The WAL is compacted only up to
  // the older retained generation's cut, so whichever generation survives,
  // the log still covers everything after it.
  storage::SnapshotSet snapshots(dir, wal_options.env);
  std::vector<uint64_t> generations;
  SSE_ASSIGN_OR_RETURN(generations, snapshots.List());
  Recovered out;
  bool restored = false;
  Status snapshot_error = Status::OK();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    Result<Bytes> blob =
        storage::Snapshot::Read(snapshots.PathFor(*it), wal_options.env);
    if (!blob.ok()) {
      snapshot_error = blob.status();
      continue;
    }
    Result<uint64_t> cut = RestoreSnapshot(*blob, handler, cache);
    if (!cut.ok()) {
      snapshot_error = cut.status();
      continue;
    }
    out.cut_seq = *cut;
    restored = true;
    break;
  }
  if (!restored && cache != nullptr) {
    // Every generation is damaged (or there is none). WAL-only replay from
    // sequence 1 is sound only when the log still reaches back that far;
    // the lowest_seq check below enforces that. A generation whose cache
    // restored but whose state did not must leave no entries behind.
    cache->Clear();
  }

  // 2. Replay journaled requests on top. Client-facing replies were already
  // delivered before the crash, but session-stamped ones are re-committed
  // into the reply cache so a post-recovery retry still dedups instead of
  // re-applying.
  storage::WalReplayReport report;
  SSE_RETURN_IF_ERROR(storage::WriteAheadLog::Replay(
      dir, wal_options, out.cut_seq,
      [&](uint64_t /*seq*/, BytesView record) {
        return ApplyRecord(record, handler, cache);
      },
      &report));
  if (report.quarantined_records > 0 || report.torn_bytes > 0) {
    obs::EventJournal::Global().Emit(
        obs::EventKind::kWalSalvage,
        "recovery salvaged WAL: " +
            std::to_string(report.quarantined_records) +
            " record(s) quarantined (" +
            std::to_string(report.quarantined_bytes) + " bytes), " +
            std::to_string(report.torn_bytes) + " torn byte(s) dropped");
  }
  if (report.lowest_seq != 0 && report.lowest_seq > out.cut_seq) {
    // Records in [cut_seq, lowest_seq) are gone; acknowledged updates
    // would be silently lost.
    return Status::Corruption(
        "WAL does not cover history since the restored snapshot (needs seq " +
        std::to_string(out.cut_seq) + ", oldest segment starts at " +
        std::to_string(report.lowest_seq) +
        (restored ? ")" : "; no snapshot generation verified: " +
                              snapshot_error.ToString() + ")"));
  }
  out.records_replayed = report.records;

  Result<storage::WriteAheadLog> wal =
      storage::WriteAheadLog::Open(dir, wal_options);
  if (!wal.ok()) return wal.status();
  out.wal = std::make_unique<storage::WriteAheadLog>(std::move(wal).value());
  return out;
}

Result<Bytes> DurableServer::EncodeCheckpoint(uint64_t cut_seq,
                                              const PersistableHandler& handler,
                                              const ReplyCache* cache) {
  SnapshotBlob blob;
  blob.wal_seq = cut_seq;
  SSE_ASSIGN_OR_RETURN(blob.state, handler.SerializeState());
  if (cache != nullptr) blob.cache = cache->Serialize();
  return net::wire::Serialize(blob);
}

Result<std::unique_ptr<DurableServer>> DurableServer::Open(
    const std::string& dir, PersistableHandler* inner) {
  return Open(dir, inner, Options{});
}

Result<std::unique_ptr<DurableServer>> DurableServer::Open(
    const std::string& dir, PersistableHandler* inner, Options options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("inner handler must be non-null");
  }
  std::unique_ptr<ReplyCache> cache;
  if (options.enable_reply_cache) {
    cache = std::make_unique<ReplyCache>(options.reply_cache);
  }
  Recovered recovered;
  SSE_ASSIGN_OR_RETURN(
      recovered,
      Recover(dir,
              storage::WalOptions{options.env, options.wal_segment_bytes,
                                  options.wal_salvage},
              inner, cache.get()));
  if (recovered.wal->next_seq() < recovered.cut_seq) {
    // A snapshot from the "future" of this WAL: appends would reuse
    // sequence numbers below the checkpoint cut and be skipped by the
    // next recovery.
    return Status::Corruption(
        "WAL is behind the restored snapshot (next seq " +
        std::to_string(recovered.wal->next_seq()) + " < checkpoint cut " +
        std::to_string(recovered.cut_seq) + ")");
  }
  auto server = std::unique_ptr<DurableServer>(new DurableServer(
      dir, inner, std::move(recovered.wal), options, std::move(cache),
      recovered.cut_seq));
  auto& registry = obs::MetricsRegistry::Global();
  DurableServer* raw = server.get();
  server->registrations_.push_back(registry.RegisterHistogram(
      "sse_wal_append_seconds",
      [raw] { return raw->wal_append_hist_.Snap(); },
      "WAL record append latency (excluding fsync)"));
  server->registrations_.push_back(registry.RegisterHistogram(
      "sse_wal_fsync_seconds", [raw] { return raw->wal_fsync_hist_.Snap(); },
      "WAL fsync latency (leader syncs under group commit)"));
  server->registrations_.push_back(registry.RegisterHistogram(
      "sse_checkpoint_seconds", [raw] { return raw->checkpoint_hist_.Snap(); },
      "Whole-checkpoint duration (serialize + write + compact)"));
  server->registrations_.push_back(registry.RegisterGauge(
      "sse_storage_degraded",
      [raw] { return raw->degraded() ? 1.0 : 0.0; },
      "1 once a storage fault fail-stopped this server to read-only"));
  if (raw->reply_cache_ != nullptr) {
    raw->reply_cache_->RegisterMetrics("sse_durable_reply_cache",
                                       server->registrations_);
  }
  return server;
}

Status DurableServer::DegradedStatus() const {
  std::lock_guard<std::mutex> lock(degraded_mutex_);
  return Status::Unavailable("storage degraded (read-only): " +
                             degraded_cause_.ToString());
}

Status DurableServer::EnterDegraded(const Status& cause) {
  bool expected = false;
  if (degraded_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    {
      std::lock_guard<std::mutex> lock(degraded_mutex_);
      degraded_cause_ = cause;
    }
    obs::EventJournal::Global().Emit(
        obs::EventKind::kStorageDegraded,
        "fail-stop to read-only: " + cause.ToString());
    inner_->OnStorageDegraded(cause);
  }
  return DegradedStatus();
}

Status DurableServer::degraded_cause() const {
  std::lock_guard<std::mutex> lock(degraded_mutex_);
  return degraded_cause_;
}

Result<net::Message> DurableServer::Handle(const net::Message& request) {
  if (request.type == net::kMsgBatch) {
    std::vector<net::Message> ops;
    SSE_ASSIGN_OR_RETURN(ops, net::UnpackBatch(request));
    std::vector<Result<net::Message>> results = Commit(ops);
    std::vector<net::Message> replies;
    replies.reserve(results.size());
    for (Result<net::Message>& r : results) {
      replies.push_back(r.ok() ? std::move(r).value()
                               : net::MakeErrorMessage(r.status()));
    }
    return net::PackBatchReply(request, std::move(replies));
  }
  if (!inner_->IsMutating(request.type)) return Read(request);
  return std::move(Commit({&request, 1}).front());
}

Result<net::Message> DurableServer::Read(const net::Message& request) {
  Result<net::Message> reply = inner_->Handle(request);
  // Stamped read-only calls still get their session echoed (the client
  // matches replies to calls by it) unless the inner handler — e.g. an
  // engine with its own cache — already did.
  if (reply.ok() && request.has_session && !reply->has_session) {
    reply->EchoSession(request);
  }
  return reply;
}

std::vector<Result<net::Message>> DurableServer::Commit(
    std::span<const net::Message> ops) {
  // The commit lock spans apply, journal AND the cache commit: a
  // checkpoint can then never slice between an op's apply and its journal
  // record, nor capture the applied state without the matching dedup entry
  // (which would let a post-recovery retry double-apply).
  std::shared_lock<std::shared_mutex> commit_lock(commit_mutex_);
  // The caller's deadline, checked at every op: once it expires the rest
  // of the request is refused per op. Completed neighbours keep their
  // outcomes; refused ops never reach the WAL.
  const net::Deadline deadline = net::CurrentDeadline();
  std::vector<Result<net::Message>> replies;
  replies.reserve(ops.size());
  std::vector<size_t> journaled;  // ops whose replies wait on the sync
  uint64_t sync_seq = 0;
  uint64_t wal_seq = 0;
  for (const net::Message& op : ops) {
    bool appended = false;
    replies.push_back(
        ApplyAndJournal(op, deadline, &appended, &sync_seq, &wal_seq));
    if (appended) journaled.push_back(replies.size() - 1);
  }
  if (journaled.empty()) return replies;

  // One fsync covers every record the request journaled: amortizing it
  // across an envelope is the point of batching.
  const Status synced = SyncUpTo(sync_seq);
  if (!synced.ok()) {
    // Durability is unknown: withdraw every claim so retries re-resolve
    // against whatever state recovery reconstructs.
    const Status refusal = EnterDegraded(synced);
    for (size_t i : journaled) {
      if (Dedups(ops[i])) reply_cache_->Abort(ops[i].client_id, ops[i].seq);
      replies[i] = refusal;
    }
    return replies;
  }
  // Ack-mode gate: in wait-one mode the shipper blocks (bounded) until a
  // follower acknowledged the request's records, so the reply implies
  // replication.
  if (options_.shipper != nullptr) options_.shipper->WaitReplicated(wal_seq);
  // Only now are the records durable, so a cache entry never promises a
  // lost update.
  for (size_t i : journaled) {
    if (Dedups(ops[i])) {
      reply_cache_->Commit(ops[i].client_id, ops[i].seq, *replies[i]);
    }
  }
  return replies;
}

Result<net::Message> DurableServer::ApplyAndJournal(
    const net::Message& op, const net::Deadline& deadline, bool* appended,
    uint64_t* sync_seq, uint64_t* wal_seq) {
  if (op.type == net::kMsgBatch) {
    return Status::InvalidArgument("batch envelopes cannot nest");
  }
  // An expired op must not cost an fsync (let alone a WAL record) for a
  // reply nobody is waiting on. Checked before the dedup Begin so no
  // in-flight cache entry needs unwinding; the retried call re-sends the
  // same seq and dedups normally.
  if (deadline.Expired()) {
    return net::DeadlineExceededStatus("before durable apply");
  }
  if (!inner_->IsMutating(op.type)) return Read(op);
  // Fail-stop: once a storage fault has been observed, no further mutation
  // may touch the inner state (it could never be journaled, so it would
  // diverge from what recovery reconstructs). UNAVAILABLE is retryable —
  // a client can fail over or wait for the operator to restart us.
  if (degraded()) return DegradedStatus();
  const bool dedup = Dedups(op);
  if (dedup) {
    net::Message cached;
    const ReplyCache::Outcome outcome =
        reply_cache_->Begin(op.client_id, op.seq, &cached);
    if (outcome == ReplyCache::Outcome::kCached) {
      // Retry of an answered call: serve the recorded reply; never
      // re-apply (nor re-journal) the request.
      cached.EchoSession(op);
      return cached;
    }
    if (outcome != ReplyCache::Outcome::kNew) {
      return ReplyCache::RefusalStatus(outcome);
    }
  }

  // Apply first, journal second, reply last. Journaling a request the
  // handler would reject poisons the log (replay re-runs the rejection and
  // recovery fails), so only *accepted* mutations are written; because the
  // reply is not released until the journal entry is durable, an
  // acknowledged update can never be lost. A crash between apply and
  // append loses only an unacknowledged update.
  Result<net::Message> reply = inner_->Handle(op);
  if (!reply.ok()) {
    // Rejected without a state change; a retry may re-run it.
    if (dedup) reply_cache_->Abort(op.client_id, op.seq);
    return reply;
  }
  {
    obs::ScopedSpan append_span("wal.append", obs::ParentFor(op));
    std::lock_guard<std::mutex> lock(wal_mutex_);
    const auto t0 = std::chrono::steady_clock::now();
    const Bytes encoded = op.Encode();
    const Status status = wal_->Append(encoded);
    wal_append_hist_.Record(NanosSince(t0));
    if (!status.ok()) {
      if (dedup) reply_cache_->Abort(op.client_id, op.seq);
      return EnterDegraded(status);
    }
    *sync_seq = ++appended_seq_;
    *wal_seq = wal_->next_seq() - 1;
    if (options_.shipper != nullptr) {
      options_.shipper->OnAppend(*wal_seq, encoded);
    }
    append_span.Annotate("wal_seq", *sync_seq);
  }
  *appended = true;
  if (dedup) reply->EchoSession(op);
  return reply;
}

Status DurableServer::SyncUpTo(uint64_t seq) {
  std::unique_lock<std::mutex> lock(wal_mutex_);
  while (synced_seq_ < seq) {
    if (!sync_in_progress_) {
      // Become the leader: one fsync covers every record appended so far,
      // including those of the followers waiting behind us.
      sync_in_progress_ = true;
      const uint64_t target = appended_seq_;
      obs::ScopedSpan fsync_span("wal.fsync");
      fsync_span.Annotate("covers_up_to", target);
      const auto t0 = std::chrono::steady_clock::now();
      Status s = wal_->Sync();
      wal_fsync_hist_.Record(NanosSince(t0));
      sync_in_progress_ = false;
      if (!s.ok()) {
        sync_cv_.notify_all();
        return s;
      }
      if (target > synced_seq_) synced_seq_ = target;
      ++syncs_performed_;
      sync_cv_.notify_all();
    } else {
      sync_cv_.wait(lock, [this, seq] {
        return synced_seq_ >= seq || !sync_in_progress_;
      });
    }
  }
  return Status::OK();
}

uint64_t DurableServer::wal_syncs() const {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  return syncs_performed_;
}

uint64_t DurableServer::wal_next_seq() const {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  return wal_->next_seq();
}

uint64_t DurableServer::wal_records() const {
  std::lock_guard<std::mutex> lock(wal_mutex_);
  const uint64_t next = wal_->next_seq();
  return next > last_checkpoint_seq_ ? next - last_checkpoint_seq_ : 0;
}

Status DurableServer::Checkpoint() {
  const auto t0 = std::chrono::steady_clock::now();
  obs::ScopedSpan checkpoint_span("wal.checkpoint");
  // Exclusive commit lock: no mutation is between apply and journal while
  // the snapshot is cut, so snapshot + compacted WAL is a consistent pair.
  std::unique_lock<std::shared_mutex> commit_lock(commit_mutex_);
  if (degraded()) return DegradedStatus();
  uint64_t cut_seq = 0;
  uint64_t previous_cut = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    cut_seq = wal_->next_seq();
    previous_cut = last_checkpoint_seq_;
  }
  Bytes blob;
  SSE_ASSIGN_OR_RETURN(blob,
                       EncodeCheckpoint(cut_seq, *inner_, reply_cache_.get()));
  const Status written = snapshots_.WriteNext(blob);
  // A failed snapshot write (or its fsync) is a storage fault like any
  // other: fail-stop rather than risk pruning state we could not persist.
  if (!written.ok()) return EnterDegraded(written);
  std::lock_guard<std::mutex> lock(wal_mutex_);
  // Segments below the *previous* cut are no longer needed even by the
  // older retained generation; the new cut's segments must stay until the
  // next checkpoint makes this one the fallback.
  SSE_RETURN_IF_ERROR(wal_->CompactBefore(previous_cut));
  last_checkpoint_seq_ = cut_seq;
  obs::EventJournal::Global().Emit(
      obs::EventKind::kWalCompaction,
      "checkpoint cut at seq " + std::to_string(cut_seq) +
          "; segments below seq " + std::to_string(previous_cut) + " deleted");
  checkpoint_hist_.Record(NanosSince(t0));
  return Status::OK();
}

}  // namespace sse::core
