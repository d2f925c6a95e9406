#ifndef SSE_REPL_NODE_H_
#define SSE_REPL_NODE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "sse/core/durable_server.h"
#include "sse/core/persistable.h"
#include "sse/net/channel.h"
#include "sse/net/message.h"
#include "sse/repl/receiver.h"
#include "sse/repl/sender.h"
#include "sse/storage/env.h"

namespace sse::repl {

/// One replicated serving node: the role manager that fronts either a
/// DurableServer (primary — applies, journals, ships) or a ReplReceiver
/// (follower — applies shipped records, serves stale reads) behind a
/// single MessageHandler facade that plugs straight into TcpServer.
///
/// Responsibilities beyond dispatch:
///  * Role + fencing-epoch persistence in a `repl.role` marker file, so a
///    restarted node comes back in the role it last held.
///  * Promotion (kMsgReplPromote): tears down the receiver and replays
///    the shipped segments through the ordinary DurableServer recovery
///    path — a promoted follower IS a primary restarted from its own
///    disk — then bumps and persists the fencing epoch.
///  * Stats (kMsgStats): answers the admin RPC itself, appending
///    node-local `sse_repl_*` series (role, epoch, follower lag) to the
///    process-wide registry scrape. Run TcpServer with
///    `serve_stats=false` so these per-node lines are not merged when
///    several nodes share one process (as in tests).
///
/// A deposed primary (its sender fenced by a higher epoch in an ack)
/// refuses further mutations with a retryable "not primary".
class ReplNode : public net::MessageHandler {
 public:
  enum class Role { kPrimary, kFollower };

  using HandlerFactory = ReplReceiver::HandlerFactory;

  struct Options {
    /// Role when no `repl.role` marker exists yet (a restart keeps the
    /// persisted role regardless of this field).
    Role initial_role = Role::kFollower;
    /// Follower endpoints this node ships to while primary.
    std::vector<ReplSender::Endpoint> peers;
    /// Storage knobs shared by both roles (the `shipper` field is
    /// overwritten; wire replication through `peers` instead).
    core::DurableServer::Options durable;
    ReplSender::Options sender;
    /// Checkpoint cadence for the follower's local log (see
    /// ReplReceiver::Options::checkpoint_every_records).
    uint64_t follower_checkpoint_every_records = 0;
  };

  /// Opens the node in `dir` (must exist), recovering role + epoch from
  /// the marker file when present.
  static Result<std::unique_ptr<ReplNode>> Open(const std::string& dir,
                                                HandlerFactory factory);
  static Result<std::unique_ptr<ReplNode>> Open(const std::string& dir,
                                                HandlerFactory factory,
                                                Options options);
  ~ReplNode() override;

  Result<net::Message> Handle(const net::Message& request) override;

  Role role() const;
  uint64_t epoch() const;
  uint64_t promotions() const;
  /// Primary only; null on a follower. Not owned by the caller.
  core::DurableServer* durable();
  const ReplSender* sender() const;
  const ReplReceiver* receiver() const;
  /// Checkpoints whichever side is active.
  Status Checkpoint();

 private:
  ReplNode(std::string dir, HandlerFactory factory, Options options)
      : dir_(std::move(dir)),
        factory_(std::move(factory)),
        options_(std::move(options)) {}

  Status StartPrimaryLocked();
  Status StartFollowerLocked();
  Status PersistRoleLocked() const;
  Status LoadRoleMarker();
  Result<net::Message> HandlePromote(const net::Message& request);
  Result<net::Message> HandleStats(const net::Message& request);
  std::string MarkerPath() const;

  const std::string dir_;
  const HandlerFactory factory_;
  const Options options_;

  mutable std::shared_mutex state_mutex_;
  Role role_ = Role::kFollower;
  uint64_t epoch_ = 0;
  uint64_t promotions_ = 0;
  // Edge trigger for the journal: a deposed primary refuses every
  // mutation, but only the first refusal is a state transition.
  std::atomic<bool> fenced_event_emitted_{false};
  // Primary side. `handler_` is the live inner state machine; it must
  // outlive `durable_`, and `sender_` must outlive `durable_` too (the
  // server calls into its shipper).
  std::unique_ptr<core::PersistableHandler> handler_;
  std::unique_ptr<ReplSender> sender_;
  std::unique_ptr<core::DurableServer> durable_;
  // Follower side.
  std::unique_ptr<ReplReceiver> receiver_;
};

}  // namespace sse::repl

#endif  // SSE_REPL_NODE_H_
