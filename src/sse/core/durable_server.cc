#include "sse/core/durable_server.h"

#include <chrono>
#include <utility>
#include <vector>

#include "sse/net/batch.h"
#include "sse/net/deadline.h"
#include "sse/obs/events.h"
#include "sse/obs/trace.h"
#include "sse/util/serde.h"

namespace sse::core {

namespace {

uint64_t NanosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}
/// Snapshot wrapper magic, "SDR2": the blob is [magic ‖ u64 wal_seq ‖
/// bytes(inner state) ‖ bytes(reply cache)]. `wal_seq` is the WAL sequence
/// the checkpoint was cut at — recovery replays records with seq >= it, so
/// a snapshot generation plus the retained WAL segments always form a
/// consistent pair, whichever generation recovery ends up restoring.
constexpr uint32_t kDurableSnapshotMagic = 0x53445232;
}  // namespace

Result<DurableServer::SnapshotBlob> DurableServer::DecodeSnapshot(
    BytesView blob) {
  BufferReader r(blob);
  uint32_t magic = 0;
  SSE_ASSIGN_OR_RETURN(magic, r.GetU32());
  if (magic != kDurableSnapshotMagic) {
    return Status::Corruption("durable snapshot magic mismatch");
  }
  SnapshotBlob out;
  SSE_ASSIGN_OR_RETURN(out.wal_seq, r.GetU64());
  SSE_ASSIGN_OR_RETURN(out.state, r.GetBytes());
  SSE_ASSIGN_OR_RETURN(out.cache, r.GetBytes());
  SSE_RETURN_IF_ERROR(r.ExpectEnd());
  return out;
}

Bytes DurableServer::EncodeSnapshot(const SnapshotBlob& contents) {
  BufferWriter w;
  w.PutU32(kDurableSnapshotMagic);
  w.PutU64(contents.wal_seq);
  w.PutBytes(contents.state);
  w.PutBytes(contents.cache);
  return w.TakeData();
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
  const storage::WalOptions wal_options{options.env, options.wal_segment_bytes,
                                        options.wal_salvage};

  // 1. Restore the newest snapshot generation that verifies AND restores,
  // falling back generation by generation. The WAL is compacted only up to
  // the older retained generation's cut, so whichever generation survives,
  // the log still covers everything after it.
  storage::SnapshotSet snapshots(dir, options.env);
  std::vector<uint64_t> generations;
  SSE_ASSIGN_OR_RETURN(generations, snapshots.List());
  uint64_t min_seq = 1;
  bool restored = false;
  Status snapshot_error = Status::OK();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    Result<Bytes> blob =
        storage::Snapshot::Read(snapshots.PathFor(*it), options.env);
    if (!blob.ok()) {
      snapshot_error = blob.status();
      continue;
    }
    Result<SnapshotBlob> contents = DecodeSnapshot(*blob);
    if (!contents.ok()) {
      snapshot_error = contents.status();
      continue;
    }
    const Status restore = inner->RestoreState(contents->state);
    if (!restore.ok()) {
      snapshot_error = restore;
      continue;
    }
    if (cache != nullptr && !contents->cache.empty()) {
      SSE_RETURN_IF_ERROR(cache->Restore(contents->cache));
    }
    min_seq = contents->wal_seq;
    restored = true;
    break;
  }
  if (!generations.empty() && !restored) {
    // Every generation is damaged. WAL-only replay is sound only when the
    // log still reaches back to sequence 1; the check below (lowest_seq)
    // enforces that, so fall through with min_seq = 1.
    min_seq = 1;
  }

  // 2. Replay journaled requests on top. Client-facing replies were already
  // delivered before the crash, but session-stamped ones are re-committed
  // into the reply cache so a post-recovery retry still dedups instead of
  // re-applying.
  storage::WalReplayReport report;
  Status replay = storage::WriteAheadLog::Replay(
      dir, wal_options, min_seq,
      [&](uint64_t /*seq*/, BytesView record) -> Status {
        Result<net::Message> msg = net::Message::Decode(record);
        if (!msg.ok()) return msg.status();
        Result<net::Message> reply = inner->Handle(msg.value());
        if (!reply.ok()) return reply.status();
        if (cache != nullptr && msg->has_session) {
          reply->EchoSession(*msg);
          cache->Commit(msg->client_id, msg->seq, *reply);
        }
        return Status::OK();
      },
      &report);
  SSE_RETURN_IF_ERROR(replay);
  if (report.quarantined_records > 0 || report.torn_bytes > 0) {
    obs::EventJournal::Global().Emit(
        obs::EventKind::kWalSalvage,
        "recovery salvaged WAL: " +
            std::to_string(report.quarantined_records) +
            " record(s) quarantined (" +
            std::to_string(report.quarantined_bytes) + " bytes), " +
            std::to_string(report.torn_bytes) + " torn byte(s) dropped");
  }
  if (report.lowest_seq != 0 && report.lowest_seq > min_seq) {
    // Records in [min_seq, lowest_seq) are gone; acknowledged updates
    // would be silently lost.
    return Status::Corruption(
        "WAL does not cover history since the restored snapshot (needs seq " +
        std::to_string(min_seq) + ", oldest segment starts at " +
        std::to_string(report.lowest_seq) +
        (restored ? ")" : "; no snapshot generation verified: " +
                              snapshot_error.ToString() + ")"));
  }

  Result<storage::WriteAheadLog> wal =
      storage::WriteAheadLog::Open(dir, wal_options);
  if (!wal.ok()) return wal.status();
  if (wal->next_seq() < min_seq) {
    // A snapshot from the "future" of this WAL: appends would reuse
    // sequence numbers below the checkpoint cut and be skipped by the
    // next recovery.
    return Status::Corruption("WAL is behind the restored snapshot (next seq " +
                              std::to_string(wal->next_seq()) +
                              " < checkpoint cut " + std::to_string(min_seq) +
                              ")");
  }
  auto server = std::unique_ptr<DurableServer>(
      new DurableServer(dir, inner, std::move(wal).value(), options,
                        std::move(cache), min_seq));
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
    server->registrations_.push_back(registry.RegisterGauge(
        "sse_engine_reply_cache_entries",
        [raw] {
          return static_cast<double>(raw->reply_cache_->entry_count());
        },
        "Replies retained in the at-most-once dedup cache"));
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
  if (request.type == net::kMsgBatch) return HandleBatch(request);
  const bool mutating = inner_->IsMutating(request.type);
  // Fail-stop: once a storage fault has been observed, no further mutation
  // may touch the inner state (it could never be journaled, so it would
  // diverge from what recovery reconstructs). UNAVAILABLE is retryable —
  // a client can fail over or wait for the operator to restart us.
  if (mutating && degraded()) return DegradedStatus();
  // The caller's propagated deadline, checked before apply+journal: an
  // expired mutation must not cost an fsync (let alone a WAL record) for
  // a reply nobody is waiting on. Checked before the dedup Begin so no
  // in-flight cache entry needs unwinding. The retried call re-sends the
  // same seq and dedups normally.
  if (mutating && net::CurrentDeadline().Expired()) {
    return net::DeadlineExceededStatus("before durable apply");
  }
  // Only mutations go through the dedup table: re-executing a read-only
  // retry is harmless, and not recording search results keeps the cache
  // small and the fault-free overhead low.
  const bool dedup =
      mutating && reply_cache_ != nullptr && request.has_session;

  if (dedup) {
    net::Message cached;
    const ReplyCache::Outcome outcome =
        reply_cache_->Begin(request.client_id, request.seq, &cached);
    switch (outcome) {
      case ReplyCache::Outcome::kCached:
        // Retry of an answered call: serve the recorded reply; never
        // re-apply (nor re-journal) the request.
        cached.EchoSession(request);
        return cached;
      case ReplyCache::Outcome::kInFlight:
      case ReplyCache::Outcome::kTooOld:
        return ReplyCache::RefusalStatus(outcome);
      case ReplyCache::Outcome::kNew:
        break;
    }
  }

  if (mutating) {
    // The commit lock spans apply, journal AND the cache commit: a
    // checkpoint can then never capture the applied state without the
    // matching dedup entry (which would let a post-recovery retry
    // double-apply).
    std::shared_lock<std::shared_mutex> commit_lock(commit_mutex_);
    Result<net::Message> reply = HandleNew(request);
    if (dedup) {
      if (reply.ok()) {
        // Runs after the WAL record is durable (HandleNew returns
        // post-sync), so a cache entry never promises a lost update.
        reply->EchoSession(request);
        reply_cache_->Commit(request.client_id, request.seq, *reply);
      } else {
        reply_cache_->Abort(request.client_id, request.seq);
      }
    }
    return reply;
  }

  Result<net::Message> reply = inner_->Handle(request);
  // Stamped read-only calls still get their session echoed (the client
  // matches replies to calls by it) unless the inner handler — e.g. an
  // engine with its own cache — already did.
  if (reply.ok() && request.has_session && !reply->has_session) {
    reply->EchoSession(request);
  }
  return reply;
}

/// Precondition for mutating requests: caller holds commit_mutex_ shared.
Result<net::Message> DurableServer::HandleNew(const net::Message& request) {
  // Apply first, journal second, reply last. Journaling a request the
  // handler would reject poisons the log (replay re-runs the rejection and
  // recovery fails), so only *accepted* mutations are written; because the
  // reply is not produced until the journal entry is durable, an
  // acknowledged update can never be lost. A crash between apply and
  // append loses only an unacknowledged update.
  Result<net::Message> reply = inner_->Handle(request);
  if (!reply.ok()) return reply;
  uint64_t my_seq = 0;
  uint64_t my_wal_seq = 0;
  {
    obs::ScopedSpan append_span("wal.append", obs::ParentFor(request));
    std::lock_guard<std::mutex> lock(wal_mutex_);
    const auto t0 = std::chrono::steady_clock::now();
    const Bytes encoded = request.Encode();
    const Status appended = wal_->Append(encoded);
    wal_append_hist_.Record(NanosSince(t0));
    if (!appended.ok()) return EnterDegraded(appended);
    my_seq = ++appended_seq_;
    my_wal_seq = wal_->next_seq() - 1;
    if (options_.shipper != nullptr) {
      options_.shipper->OnAppend(my_wal_seq, encoded);
    }
    append_span.Annotate("wal_seq", my_seq);
  }
  const Status synced = SyncUpTo(my_seq);
  if (!synced.ok()) return EnterDegraded(synced);
  // Ack-mode gate: in wait-one mode the shipper blocks (bounded) until a
  // follower acknowledged this sequence, so the reply implies replication.
  if (options_.shipper != nullptr) {
    options_.shipper->WaitReplicated(my_wal_seq);
  }
  return reply;
}

Result<net::Message> DurableServer::HandleBatch(const net::Message& request) {
  net::BatchRequest batch;
  SSE_ASSIGN_OR_RETURN(batch, net::BatchRequest::FromMessage(request));
  const size_t n = batch.ops.size();

  // One shared commit-lock span for the whole envelope: a checkpoint can
  // never slice between a sub-op's apply and its journal record.
  std::shared_lock<std::shared_mutex> commit_lock(commit_mutex_);

  // Envelope deadline, re-checked at every sub-op: once it expires the
  // rest of the batch is refused per-op — completed neighbors keep their
  // committed outcomes, refused ones never reach the WAL.
  const net::Deadline batch_deadline = net::CurrentDeadline();

  // Sub-ops whose cache commit is deferred until the group sync lands.
  struct PendingCommit {
    size_t index;
    uint64_t seq;
  };
  std::vector<net::Message> outs(n);
  std::vector<PendingCommit> pending;
  uint64_t max_wal_seq = 0;
  uint64_t max_ship_seq = 0;
  bool need_sync = false;

  for (size_t i = 0; i < n; ++i) {
    net::Message sub;
    sub.type = batch.ops[i].type;
    sub.payload = std::move(batch.ops[i].payload);
    if (request.has_session) {
      // (envelope client, op seq) is the op's dedup identity; it is stable
      // across retried envelopes, which is what makes a partial batch
      // retry apply each sub-op exactly once.
      sub.StampSession(request.client_id, batch.ops[i].seq);
    }
    if (sub.type == net::kMsgBatch) {
      outs[i] = net::MakeErrorMessage(
          Status::InvalidArgument("batch envelopes cannot nest"));
      continue;
    }
    if (batch_deadline.Expired()) {
      outs[i] = net::MakeErrorMessage(
          net::DeadlineExceededStatus("mid-batch, before durable apply"));
      continue;
    }

    const bool mutating = inner_->IsMutating(sub.type);
    if (mutating && degraded()) {
      // Fail-stop mid-envelope too: earlier sub-ops may have committed,
      // but from the first storage fault on, nothing touches the state.
      outs[i] = net::MakeErrorMessage(DegradedStatus());
      continue;
    }
    const bool dedup =
        mutating && reply_cache_ != nullptr && sub.has_session;
    if (dedup) {
      net::Message cached;
      const ReplyCache::Outcome outcome =
          reply_cache_->Begin(sub.client_id, sub.seq, &cached);
      if (outcome == ReplyCache::Outcome::kCached) {
        cached.EchoSession(sub);
        outs[i] = std::move(cached);
        continue;
      }
      if (outcome != ReplyCache::Outcome::kNew) {
        outs[i] = net::MakeErrorMessage(ReplyCache::RefusalStatus(outcome));
        continue;
      }
    }

    Result<net::Message> reply = inner_->Handle(sub);
    if (!reply.ok()) {
      // Rejected without a state change; a retried envelope may re-run it.
      if (dedup) reply_cache_->Abort(sub.client_id, sub.seq);
      outs[i] = net::MakeErrorMessage(reply.status());
      continue;
    }
    if (mutating) {
      // Journal the accepted sub-op as its own stamped record — replay
      // cannot tell it from a standalone request — but defer the fsync to
      // one group sync after the loop.
      std::lock_guard<std::mutex> lock(wal_mutex_);
      const auto t0 = std::chrono::steady_clock::now();
      const Bytes encoded = sub.Encode();
      Status appended = wal_->Append(encoded);
      wal_append_hist_.Record(NanosSince(t0));
      if (!appended.ok()) {
        if (dedup) reply_cache_->Abort(sub.client_id, sub.seq);
        outs[i] = net::MakeErrorMessage(EnterDegraded(appended));
        continue;
      }
      max_wal_seq = ++appended_seq_;
      max_ship_seq = wal_->next_seq() - 1;
      if (options_.shipper != nullptr) {
        options_.shipper->OnAppend(max_ship_seq, encoded);
      }
      need_sync = true;
    }
    if (sub.has_session && !reply->has_session) reply->EchoSession(sub);
    outs[i] = std::move(reply).value();
    if (dedup) pending.push_back(PendingCommit{i, batch.ops[i].seq});
  }

  if (need_sync) {
    // A batch pays one fsync — amortizing the sync across the envelope is
    // the point of the batch path.
    Status synced = SyncUpTo(max_wal_seq);
    if (!synced.ok()) {
      // Durability is unknown: withdraw the claims so retries re-resolve
      // against whatever state recovery reconstructs.
      const Status refusal = EnterDegraded(synced);
      for (const PendingCommit& p : pending) {
        reply_cache_->Abort(request.client_id, p.seq);
        outs[p.index] = net::MakeErrorMessage(refusal);
      }
      pending.clear();
    } else if (options_.shipper != nullptr) {
      options_.shipper->WaitReplicated(max_ship_seq);
    }
  }
  for (const PendingCommit& p : pending) {
    reply_cache_->Commit(request.client_id, p.seq, outs[p.index]);
  }

  net::BatchReply breply;
  breply.entries.reserve(n);
  for (net::Message& out : outs) {
    breply.entries.push_back(
        net::BatchReply::Entry{out.type, std::move(out.payload)});
  }
  net::Message reply = breply.ToMessage();
  reply.EchoSession(request);
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
  Bytes state;
  SSE_ASSIGN_OR_RETURN(state, inner_->SerializeState());
  uint64_t cut_seq = 0;
  uint64_t previous_cut = 0;
  {
    std::lock_guard<std::mutex> lock(wal_mutex_);
    cut_seq = wal_->next_seq();
    previous_cut = last_checkpoint_seq_;
  }
  SnapshotBlob blob;
  blob.wal_seq = cut_seq;
  blob.state = std::move(state);
  blob.cache = reply_cache_ != nullptr ? reply_cache_->Serialize() : Bytes{};
  const Status written = snapshots_.WriteNext(EncodeSnapshot(blob));
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
