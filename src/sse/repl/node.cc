#include "sse/repl/node.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "sse/obs/events.h"
#include "sse/obs/stats_rpc.h"
#include "sse/util/bytes.h"
#include "sse/util/logging.h"

namespace sse::repl {

namespace {
constexpr char kMarkerName[] = "repl.role";
constexpr char kMarkerTmpName[] = "repl.role.tmp";
}  // namespace

Result<std::unique_ptr<ReplNode>> ReplNode::Open(const std::string& dir,
                                                 HandlerFactory factory) {
  return Open(dir, std::move(factory), Options());
}

Result<std::unique_ptr<ReplNode>> ReplNode::Open(const std::string& dir,
                                                 HandlerFactory factory,
                                                 Options options) {
  if (!factory) {
    return Status::InvalidArgument("handler factory must be non-empty");
  }
  auto node = std::unique_ptr<ReplNode>(
      new ReplNode(dir, std::move(factory), std::move(options)));
  SSE_RETURN_IF_ERROR(node->LoadRoleMarker());
  std::unique_lock<std::shared_mutex> lock(node->state_mutex_);
  if (node->role_ == Role::kPrimary) {
    SSE_RETURN_IF_ERROR(node->StartPrimaryLocked());
  } else {
    SSE_RETURN_IF_ERROR(node->StartFollowerLocked());
  }
  // Persist the role on first boot too, so a restart keeps it even if the
  // operator's initial_role default changes.
  SSE_RETURN_IF_ERROR(node->PersistRoleLocked());
  lock.unlock();
  return node;
}

ReplNode::~ReplNode() = default;

std::string ReplNode::MarkerPath() const { return dir_ + "/" + kMarkerName; }

Status ReplNode::LoadRoleMarker() {
  storage::Env* env = options_.durable.env;
  role_ = options_.initial_role;
  epoch_ = 1;
  promotions_ = 0;
  if (!env->FileExists(MarkerPath())) return Status::OK();
  Bytes raw;
  SSE_ASSIGN_OR_RETURN(raw, env->ReadFile(MarkerPath()));
  std::istringstream in(BytesToString(raw));
  std::string key, value;
  while (in >> key >> value) {
    if (key == "role") {
      if (value == "primary") {
        role_ = Role::kPrimary;
      } else if (value == "follower") {
        role_ = Role::kFollower;
      } else {
        return Status::Corruption("repl.role: unknown role '" + value + "'");
      }
    } else if (key == "epoch") {
      epoch_ = std::stoull(value);
    } else if (key == "promotions") {
      promotions_ = std::stoull(value);
    }
    // Unknown keys are ignored for forward compatibility.
  }
  return Status::OK();
}

Status ReplNode::PersistRoleLocked() const {
  storage::Env* env = options_.durable.env;
  std::ostringstream out;
  out << "role " << (role_ == Role::kPrimary ? "primary" : "follower") << "\n"
      << "epoch " << epoch_ << "\n"
      << "promotions " << promotions_ << "\n";
  const std::string tmp = dir_ + "/" + kMarkerTmpName;
  std::unique_ptr<storage::WritableFile> file;
  SSE_ASSIGN_OR_RETURN(file, env->NewWritableFile(tmp, /*truncate=*/true));
  SSE_RETURN_IF_ERROR(file->Append(StringToBytes(out.str())));
  SSE_RETURN_IF_ERROR(file->Sync());
  SSE_RETURN_IF_ERROR(file->Close());
  SSE_RETURN_IF_ERROR(env->Rename(tmp, MarkerPath()));
  return env->SyncDir(dir_);
}

Status ReplNode::StartPrimaryLocked() {
  handler_ = factory_();
  core::DurableServer::Options durable_options = options_.durable;
  if (!options_.peers.empty()) {
    sender_ = std::make_unique<ReplSender>(dir_, options_.peers, epoch_,
                                           options_.sender);
    durable_options.shipper = sender_.get();
  } else {
    durable_options.shipper = nullptr;
  }
  Result<std::unique_ptr<core::DurableServer>> opened =
      core::DurableServer::Open(dir_, handler_.get(), durable_options);
  if (!opened.ok()) {
    sender_.reset();
    handler_.reset();
    return opened.status();
  }
  durable_ = std::move(opened).value();
  if (sender_ != nullptr) sender_->Start(durable_->wal_next_seq());
  return Status::OK();
}

Status ReplNode::StartFollowerLocked() {
  ReplReceiver::Options receiver_options;
  receiver_options.env = options_.durable.env;
  receiver_options.wal_segment_bytes = options_.durable.wal_segment_bytes;
  receiver_options.wal_salvage = options_.durable.wal_salvage;
  receiver_options.reply_cache = options_.durable.reply_cache;
  receiver_options.checkpoint_every_records =
      options_.follower_checkpoint_every_records;
  Result<std::unique_ptr<ReplReceiver>> opened =
      ReplReceiver::Open(dir_, factory_, epoch_, receiver_options);
  if (!opened.ok()) return opened.status();
  receiver_ = std::move(opened).value();
  return Status::OK();
}

Result<net::Message> ReplNode::Handle(const net::Message& request) {
  switch (request.type) {
    case net::kMsgReplPromote:
      return HandlePromote(request);
    case net::kMsgStats:
      return HandleStats(request);
    case net::kMsgReplAppend:
    case net::kMsgReplSnapshot: {
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      if (receiver_ == nullptr) {
        return Status::Unavailable("replication append refused: not a follower");
      }
      Result<net::Message> reply = request.type == net::kMsgReplAppend
                                       ? receiver_->HandleAppend(request)
                                       : receiver_->HandleSnapshot(request);
      const uint64_t adopted = receiver_->epoch();
      const bool bumped = adopted > epoch_;
      lock.unlock();
      if (bumped) {
        // Persist an adopted fencing epoch so a restarted follower keeps
        // rejecting the deposed primary even before new traffic arrives.
        std::unique_lock<std::shared_mutex> exclusive(state_mutex_);
        if (receiver_ != nullptr && receiver_->epoch() > epoch_) {
          epoch_ = receiver_->epoch();
          const Status persisted = PersistRoleLocked();
          if (!persisted.ok()) {
            SSE_LOG(Warning) << "repl: persisting adopted epoch failed: "
                             << persisted.ToString();
          }
        }
      }
      return reply;
    }
    default:
      break;
  }

  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  if (role_ == Role::kPrimary) {
    if (sender_ != nullptr && sender_->fenced() &&
        handler_->IsMutating(request.type)) {
      if (!fenced_event_emitted_.exchange(true, std::memory_order_relaxed)) {
        obs::EventJournal::Global().Emit(
            obs::EventKind::kFenced,
            "deposed primary at epoch " + std::to_string(epoch_) +
                " refusing mutations (fenced by a newer epoch)");
      }
      return Status::Unavailable(
          "not primary: fenced by a newer replication epoch");
    }
    return durable_->Handle(request);
  }
  // Followers answer non-mutating requests from their read view.
  if (receiver_ != nullptr && !receiver_->IsMutating(request.type)) {
    return receiver_->HandleRead(request);
  }
  return Status::Unavailable(
      "not primary: this node is a replication follower");
}

Result<net::Message> ReplNode::HandlePromote(const net::Message& request) {
  ReplPromote promote;
  SSE_ASSIGN_OR_RETURN(promote, ReplPromote::FromMessage(request));
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  if (role_ == Role::kPrimary) {
    // Idempotent: promoting a primary re-acks its current position.
    ReplAck ack;
    ack.epoch = epoch_;
    ack.next_seq = durable_ != nullptr ? durable_->wal_next_seq() : 1;
    ack.accepted = true;
    net::Message reply = ack.ToMessage();
    reply.EchoSession(request);
    return reply;
  }
  const uint64_t receiver_epoch = receiver_ != nullptr ? receiver_->epoch() : 0;
  // Dropping the receiver releases its WAL handle; promotion then replays
  // the shipped segments through the ordinary DurableServer recovery.
  receiver_.reset();
  epoch_ = std::max({epoch_, receiver_epoch, promote.min_epoch}) + 1;
  ++promotions_;
  role_ = Role::kPrimary;
  SSE_RETURN_IF_ERROR(StartPrimaryLocked());
  const Status persisted = PersistRoleLocked();
  if (!persisted.ok()) {
    SSE_LOG(Warning) << "repl: persisting promotion failed: "
                     << persisted.ToString();
  }
  SSE_LOG(Info) << "repl: promoted to primary at epoch " << epoch_
                << " (log resumes at " << durable_->wal_next_seq() << ")";
  fenced_event_emitted_.store(false, std::memory_order_relaxed);
  obs::EventJournal::Global().Emit(
      obs::EventKind::kPromotion,
      "follower promoted to primary at epoch " + std::to_string(epoch_) +
          "; log resumes at seq " + std::to_string(durable_->wal_next_seq()));
  ReplAck ack;
  ack.epoch = epoch_;
  ack.next_seq = durable_->wal_next_seq();
  ack.accepted = true;
  net::Message reply = ack.ToMessage();
  reply.EchoSession(request);
  return reply;
}

Result<net::Message> ReplNode::HandleStats(const net::Message& request) {
  net::Message base = obs::HandleStatsRequest(request);
  obs::StatsReply stats;
  SSE_ASSIGN_OR_RETURN(stats, obs::StatsReply::FromMessage(base));
  std::ostringstream extra;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    const bool is_primary =
        role_ == Role::kPrimary && (sender_ == nullptr || !sender_->fenced());
    extra << "sse_repl_is_primary " << (is_primary ? 1 : 0) << "\n"
          << "sse_repl_epoch " << epoch_ << "\n"
          << "sse_repl_promotions_total " << promotions_ << "\n";
    if (role_ == Role::kPrimary && sender_ != nullptr) {
      extra << "sse_repl_log_end_seq " << sender_->log_end() << "\n"
            << "sse_repl_max_acked_seq " << sender_->max_acked_seq() << "\n";
    }
    if (receiver_ != nullptr) {
      extra << "sse_repl_node_next_seq " << receiver_->next_seq() << "\n"
            << "sse_repl_view_ok " << (receiver_->view_ok() ? 1 : 0) << "\n";
    }
  }
  stats.prometheus_text += extra.str();
  net::Message reply = stats.ToMessage();
  reply.EchoSession(request);
  return reply;
}

ReplNode::Role ReplNode::role() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return role_;
}

uint64_t ReplNode::epoch() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return epoch_;
}

uint64_t ReplNode::promotions() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return promotions_;
}

core::DurableServer* ReplNode::durable() {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return durable_.get();
}

const ReplSender* ReplNode::sender() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return sender_.get();
}

const ReplReceiver* ReplNode::receiver() const {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  return receiver_.get();
}

Status ReplNode::Checkpoint() {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  if (role_ == Role::kPrimary) {
    return durable_ != nullptr ? durable_->Checkpoint()
                               : Status::Unavailable("no durable server");
  }
  return receiver_ != nullptr ? receiver_->Checkpoint()
                              : Status::Unavailable("no receiver");
}

}  // namespace sse::repl
