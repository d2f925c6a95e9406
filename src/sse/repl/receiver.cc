#include "sse/repl/receiver.h"

#include <utility>

#include "sse/util/logging.h"

namespace sse::repl {

Result<std::unique_ptr<ReplReceiver>> ReplReceiver::Open(
    const std::string& dir, HandlerFactory factory, uint64_t epoch) {
  return Open(dir, std::move(factory), epoch, Options());
}

Result<std::unique_ptr<ReplReceiver>> ReplReceiver::Open(
    const std::string& dir, HandlerFactory factory, uint64_t epoch,
    Options options) {
  if (!factory) {
    return Status::InvalidArgument("handler factory must be non-empty");
  }
  auto receiver = std::unique_ptr<ReplReceiver>(
      new ReplReceiver(dir, std::move(factory), options, epoch));
  receiver->view_ = receiver->factory_();
  receiver->cache_ = std::make_unique<core::ReplyCache>(options.reply_cache);
  // The follower's directory IS a DurableServer image, so it recovers
  // through the same steps.
  core::DurableServer::Recovered recovered;
  SSE_ASSIGN_OR_RETURN(
      recovered,
      core::DurableServer::Recover(
          dir,
          storage::WalOptions{options.env, options.wal_segment_bytes,
                              options.wal_salvage},
          receiver->view_.get(), receiver->cache_.get()));
  receiver->wal_ = std::move(recovered.wal);
  if (receiver->wal_->next_seq() < recovered.cut_seq) {
    // A crash between installing a shipped snapshot and resetting the log
    // leaves the WAL behind the snapshot cut; the snapshot is complete
    // state, so repairing is just restarting the log at the cut.
    SSE_RETURN_IF_ERROR(receiver->wal_->ResetAt(recovered.cut_seq));
  }
  receiver->last_checkpoint_seq_ = recovered.cut_seq;
  receiver->records_applied_ = recovered.records_replayed;

  auto& registry = obs::MetricsRegistry::Global();
  ReplReceiver* raw = receiver.get();
  receiver->registrations_.push_back(registry.RegisterGauge(
      "sse_repl_follower_next_seq",
      [raw] { return static_cast<double>(raw->next_seq()); },
      "Sequence the follower's durable log expects next"));
  receiver->registrations_.push_back(registry.RegisterGauge(
      "sse_repl_follower_records_applied",
      [raw] { return static_cast<double>(raw->records_applied()); },
      "Shipped WAL records applied to the follower's read view"));
  return receiver;
}

Result<net::Message> ReplReceiver::HandleAppend(const net::Message& request) {
  ReplAppend append;
  SSE_ASSIGN_OR_RETURN(append, ReplAppend::FromMessage(request));
  std::lock_guard<std::mutex> lock(mutex_);
  ReplAck ack;
  if (append.epoch < epoch_) {
    // Fenced: a deposed primary from an older epoch may not touch the log.
    ack.epoch = epoch_;
    ack.next_seq = wal_->next_seq();
    ack.accepted = false;
    net::Message reply = ack.ToMessage();
    reply.EchoSession(request);
    return reply;
  }
  if (append.epoch > epoch_) epoch_ = append.epoch;

  bool accepted = true;
  bool any_appended = false;
  uint64_t seq = append.first_seq;
  for (const Bytes& record : append.records) {
    const uint64_t cursor = wal_->next_seq();
    if (seq < cursor) {
      // Duplicate of a record already durable here (sender rewound after a
      // lost ack); skipping keeps application exactly-once.
      ++seq;
      continue;
    }
    if (seq > cursor) {
      // Gap: the ack's cursor tells the sender where to rewind to.
      accepted = false;
      break;
    }
    // Mirrors the primary's reply cache too, so a promoted follower dedups
    // client retries of pre-failover mutations, and its own checkpoints
    // carry the table exactly like the primary's do.
    const Status applied = core::DurableServer::ApplyRecord(
        record, view_.get(), cache_.get());
    if (!applied.ok()) {
      // The primary accepted this record, so a rejecting view has
      // diverged. Refuse the append — the on-disk image stays consistent
      // for promotion — and fail-stop reads.
      SSE_LOG(Error) << "repl: shipped record " << seq
                     << " rejected by view: " << applied.ToString();
      view_ok_ = false;
      accepted = false;
      break;
    }
    ++records_applied_;
    const Status journaled = wal_->Append(record);
    if (!journaled.ok()) {
      accepted = false;
      break;
    }
    any_appended = true;
    ++seq;
  }
  if (any_appended) {
    // Ack only durable records: an acked sequence must survive a crash.
    const Status synced = wal_->Sync();
    if (!synced.ok()) accepted = false;
  }
  if (accepted && options_.checkpoint_every_records > 0) {
    records_since_checkpoint_ +=
        static_cast<uint64_t>(append.records.size());
    if (records_since_checkpoint_ >= options_.checkpoint_every_records) {
      const Status checkpointed = CheckpointLocked();
      if (!checkpointed.ok()) {
        SSE_LOG(Warning) << "repl: follower checkpoint failed: "
                      << checkpointed.ToString();
      }
    }
  }
  ack.epoch = epoch_;
  ack.next_seq = wal_->next_seq();
  ack.accepted = accepted;
  net::Message reply = ack.ToMessage();
  reply.EchoSession(request);
  return reply;
}

Result<net::Message> ReplReceiver::HandleSnapshot(const net::Message& request) {
  ReplSnapshot snap;
  SSE_ASSIGN_OR_RETURN(snap, ReplSnapshot::FromMessage(request));
  std::lock_guard<std::mutex> lock(mutex_);
  ReplAck ack;
  ack.epoch = epoch_;
  ack.next_seq = wal_->next_seq();
  ack.accepted = false;
  if (snap.epoch < epoch_) {
    net::Message reply = ack.ToMessage();
    reply.EchoSession(request);
    return reply;
  }
  if (snap.epoch > epoch_) epoch_ = snap.epoch;
  ack.epoch = epoch_;

  if (snap.cut_seq <= wal_->next_seq()) {
    // Our log already covers the cut; shipping can resume at our cursor.
    ack.accepted = true;
    net::Message reply = ack.ToMessage();
    reply.EchoSession(request);
    return reply;
  }

  // Build the replacement view before touching anything durable, so a bad
  // blob leaves the current state untouched.
  std::unique_ptr<core::PersistableHandler> fresh_view = factory_();
  auto fresh_cache = std::make_unique<core::ReplyCache>(options_.reply_cache);
  Status installed = core::DurableServer::RestoreSnapshot(
                         snap.blob, fresh_view.get(), fresh_cache.get())
                         .status();
  // Durable install: snapshot file first, then restart the log at the
  // cut. A crash in between is repaired at the next Open (the WAL is
  // reset forward to the cut).
  if (installed.ok()) installed = snapshots_.WriteNext(snap.blob);
  if (installed.ok()) installed = wal_->ResetAt(snap.cut_seq);
  if (installed.ok()) {
    view_ = std::move(fresh_view);
    cache_ = std::move(fresh_cache);
    last_checkpoint_seq_ = snap.cut_seq;
    records_since_checkpoint_ = 0;
    view_ok_ = true;
    ack.accepted = true;
  } else {
    SSE_LOG(Error) << "repl: snapshot install failed: "
                   << installed.ToString();
  }
  ack.next_seq = wal_->next_seq();
  net::Message reply = ack.ToMessage();
  reply.EchoSession(request);
  return reply;
}

Result<net::Message> ReplReceiver::HandleRead(const net::Message& request) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (view_->IsMutating(request.type)) {
    return Status::Unavailable(
        "not primary: this node is a replication follower");
  }
  if (!view_ok_) {
    return Status::Unavailable("follower read view diverged; awaiting resync");
  }
  Result<net::Message> reply = view_->Handle(request);
  if (reply.ok() && request.has_session && !reply->has_session) {
    reply->EchoSession(request);
  }
  return reply;
}

Status ReplReceiver::Checkpoint() {
  std::lock_guard<std::mutex> lock(mutex_);
  return CheckpointLocked();
}

Status ReplReceiver::CheckpointLocked() {
  const uint64_t cut_seq = wal_->next_seq();
  Bytes blob;
  SSE_ASSIGN_OR_RETURN(blob, core::DurableServer::EncodeCheckpoint(
                                 cut_seq, *view_, cache_.get()));
  SSE_RETURN_IF_ERROR(snapshots_.WriteNext(blob));
  // Same retention as DurableServer::Checkpoint: segments below the
  // previous cut are no longer needed even by the older generation.
  SSE_RETURN_IF_ERROR(wal_->CompactBefore(last_checkpoint_seq_));
  last_checkpoint_seq_ = cut_seq;
  records_since_checkpoint_ = 0;
  return Status::OK();
}

uint64_t ReplReceiver::next_seq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_->next_seq();
}

uint64_t ReplReceiver::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return epoch_;
}

uint64_t ReplReceiver::records_applied() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_applied_;
}

bool ReplReceiver::view_ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return view_ok_;
}

}  // namespace sse::repl
