// Replication layer: primary→follower WAL shipping over real loopback
// TCP, sequence-based catch-up, snapshot catch-up past the compaction
// horizon, epoch fencing, promotion through the ordinary recovery path,
// and the client-side failover router. The state machine under
// replication is a tiny XOR register — double-applying any record flips
// a cell back, so exactly-once violations are directly observable.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sse/core/persistable.h"
#include "sse/core/scheme2_messages.h"
#include "sse/net/retry.h"
#include "sse/net/tcp.h"
#include "sse/obs/stats_rpc.h"
#include "sse/repl/failover_channel.h"
#include "sse/repl/messages.h"
#include "sse/repl/node.h"
#include "sse/storage/snapshot.h"
#include "sse/util/serde.h"
#include "test_util.h"

namespace sse::repl {
namespace {

using net::TcpServer;
using sse::testing::TempDir;

// Toy protocol: kOpSet XORs a value into a keyed cell (mutating, NOT
// idempotent), kOpGet reads a cell back. kOpGet borrows Scheme 2's search
// type, which the message-type table classes as a search, so the failover
// router may send it to a follower; the other types are test-only.
constexpr uint16_t kOpSet = 0x0700;
constexpr uint16_t kOpSetAck = 0x0701;
constexpr uint16_t kOpGet = core::kMsgS2SearchRequest;
constexpr uint16_t kOpGetReply = 0x0703;

class XorRegisterHandler : public core::PersistableHandler {
 public:
  /// Counts the reads it answers into `*reads`, if set.
  explicit XorRegisterHandler(std::atomic<int>* reads) : reads_(reads) {}

  Result<net::Message> Handle(const net::Message& request) override {
    if (request.type == kOpSet) {
      if (request.payload.size() != 2) {
        return Status::InvalidArgument("set wants key,value");
      }
      cells_[request.payload[0]] ^= request.payload[1];
      return net::Message{kOpSetAck, {}};
    }
    if (request.type == kOpGet) {
      if (request.payload.size() != 1) {
        return Status::InvalidArgument("get wants key");
      }
      if (reads_ != nullptr) reads_->fetch_add(1);
      return net::Message{kOpGetReply, Bytes{cells_[request.payload[0]]}};
    }
    return Status::InvalidArgument("unknown op");
  }

  Result<Bytes> SerializeState() const override {
    Bytes out;
    for (const auto& [key, value] : cells_) {
      out.push_back(key);
      out.push_back(value);
    }
    return out;
  }

  Status RestoreState(BytesView data) override {
    if (data.size() % 2 != 0) return Status::Corruption("odd register blob");
    cells_.clear();
    for (size_t i = 0; i < data.size(); i += 2) cells_[data[i]] = data[i + 1];
    return Status::OK();
  }

  bool IsMutating(uint16_t msg_type) const override {
    return msg_type == kOpSet;
  }

 private:
  std::atomic<int>* reads_;
  std::map<uint8_t, uint8_t> cells_;
};

ReplNode::HandlerFactory XorFactory(std::atomic<int>* reads = nullptr) {
  return [reads] { return std::make_unique<XorRegisterHandler>(reads); };
}

net::Message SetOp(uint8_t key, uint8_t value) {
  return net::Message{kOpSet, Bytes{key, value}};
}

net::Message GetOp(uint8_t key) { return net::Message{kOpGet, Bytes{key}}; }

bool WaitFor(const std::function<bool()>& cond, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return cond();
}

/// Holds an ephemeral loopback port, bound but not listening, so that no
/// other socket on the host takes it before a test's server binds it.
/// Both binds set SO_REUSEADDR, and neither socket listens at the same
/// time as the other, so the server's bind succeeds while this one holds.
class PortReservation {
 public:
  PortReservation() : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(
        ::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
  }
  ~PortReservation() { ::close(fd_); }
  PortReservation(const PortReservation&) = delete;
  PortReservation& operator=(const PortReservation&) = delete;

  uint16_t port() const { return port_; }

 private:
  int fd_;
  uint16_t port_ = 0;
};

TcpServer::Options NodeServerOptions() {
  net::TcpServer::Options opts;
  // ReplNode injects per-node sse_repl_* lines into the stats RPC itself;
  // TcpServer must not answer from the (shared, process-wide) registry.
  opts.serve_stats = false;
  return opts;
}

/// Fast-converging replication knobs for tests.
ReplSender::Options FastSenderOptions() {
  ReplSender::Options opts;
  opts.probe_interval_ms = 20;
  opts.connect_timeout_ms = 500;
  opts.io_timeout_ms = 2000;
  opts.initial_backoff_ms = 10;
  opts.max_backoff_ms = 100;
  return opts;
}

/// One in-process node: directory, ReplNode, TcpServer.
struct TestNode {
  TempDir dir;
  std::unique_ptr<ReplNode> node;
  std::unique_ptr<TcpServer> server;
  /// Reads this node's handlers answered.
  std::atomic<int> reads{0};

  uint16_t port() const { return server->port(); }

  void Start(ReplNode::Options options, uint16_t port = 0) {
    auto node_or =
        ReplNode::Open(dir.path(), XorFactory(&reads), std::move(options));
    SSE_ASSERT_OK(node_or.status());
    node = std::move(node_or).value();
    auto server_or = TcpServer::Start(node.get(), port, NodeServerOptions());
    SSE_ASSERT_OK(server_or.status());
    server = std::move(server_or).value();
  }

  void StopAll() {
    if (server) server->Stop();
    server.reset();
    node.reset();
  }
};

ReplNode::Options FollowerOptions() {
  ReplNode::Options opts;
  opts.initial_role = ReplNode::Role::kFollower;
  return opts;
}

ReplNode::Options PrimaryOptions(std::vector<ReplSender::Endpoint> peers) {
  ReplNode::Options opts;
  opts.initial_role = ReplNode::Role::kPrimary;
  opts.peers = std::move(peers);
  opts.sender = FastSenderOptions();
  return opts;
}

TEST(FindMetricValueTest, ParsesLineStartSamplesOnly) {
  const std::string text =
      "# HELP sse_repl_is_primary role\n"
      "not_sse_repl_is_primary 7\n"
      "sse_repl_is_primary 1\n"
      "sse_repl_epoch 42\n";
  double value = 0;
  EXPECT_TRUE(FindMetricValue(text, "sse_repl_is_primary", &value));
  EXPECT_EQ(value, 1.0);
  EXPECT_TRUE(FindMetricValue(text, "sse_repl_epoch", &value));
  EXPECT_EQ(value, 42.0);
  EXPECT_FALSE(FindMetricValue(text, "sse_repl_missing", &value));
  // A name that is a prefix of a longer series must not match it.
  EXPECT_FALSE(FindMetricValue("sse_repl_epoch_total 3\n", "sse_repl_epoch",
                               &value));
}

TEST(ReplNodeTest, PrimaryShipsToFollowerWhichServesStaleReads) {
  TestNode follower;
  follower.Start(FollowerOptions());
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower.port()}}));
  ASSERT_EQ(primary.node->role(), ReplNode::Role::kPrimary);
  ASSERT_EQ(follower.node->role(), ReplNode::Role::kFollower);

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  for (uint8_t i = 0; i < 5; ++i) {
    auto reply = (*channel)->Call(SetOp(i, static_cast<uint8_t>(i + 1)));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->type, kOpSetAck);
  }

  // The follower's durable cursor converges on the primary's log end.
  const uint64_t primary_next = primary.node->durable()->wal_next_seq();
  EXPECT_TRUE(WaitFor(
      [&] { return follower.node->receiver()->next_seq() == primary_next; },
      5000))
      << "follower at " << follower.node->receiver()->next_seq()
      << ", primary log next " << primary_next;

  // Stale reads come straight off the follower's read view.
  auto fchannel = net::TcpChannel::Connect(follower.port());
  SSE_ASSERT_OK(fchannel.status());
  for (uint8_t i = 0; i < 5; ++i) {
    auto reply = (*fchannel)->Call(GetOp(i));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->payload, Bytes{static_cast<uint8_t>(i + 1)});
  }

  // Mutations are refused by the follower with a retryable "not primary".
  auto refused = (*fchannel)->Call(SetOp(0, 0xFF));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsRetryable());
  EXPECT_NE(refused.status().message().find("not primary"), std::string::npos);

  // The sender sees the follower connected and fully acked once it has
  // read the follower's last ack, which can trail the follower's cursor.
  EXPECT_TRUE(WaitFor(
      [&] {
        const auto statuses = primary.node->sender()->followers();
        return statuses.size() == 1 && statuses[0].connected &&
               statuses[0].next_seq == primary_next;
      },
      5000));

  primary.StopAll();
  follower.StopAll();
}

TEST(ReplNodeTest, FollowerCatchesUpAfterRestartAndMissedWrites) {
  TestNode follower;
  follower.Start(FollowerOptions());
  const uint16_t follower_port = follower.port();
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower_port}}));

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  for (uint8_t i = 0; i < 3; ++i) {
    SSE_ASSERT_OK((*channel)->Call(SetOp(i, 0x11)).status());
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return follower.node->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      5000));

  // Follower goes down; the primary keeps accepting writes regardless.
  follower.StopAll();
  for (uint8_t i = 0; i < 3; ++i) {
    SSE_ASSERT_OK((*channel)->Call(SetOp(i, 0x22)).status());
  }

  // It comes back on the same endpoint with its old directory and is
  // caught up from the primary's log, from exactly its durable cursor.
  auto restarted_or =
      ReplNode::Open(follower.dir.path(), XorFactory(), FollowerOptions());
  SSE_ASSERT_OK(restarted_or.status());
  auto restarted = std::move(restarted_or).value();
  EXPECT_GE(restarted->receiver()->next_seq(), 4u);  // pre-crash acks survived
  auto server_or =
      TcpServer::Start(restarted.get(), follower_port, NodeServerOptions());
  SSE_ASSERT_OK(server_or.status());
  auto fserver = std::move(server_or).value();

  EXPECT_TRUE(WaitFor(
      [&] {
        return restarted->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      5000));
  auto fchannel = net::TcpChannel::Connect(follower_port);
  SSE_ASSERT_OK(fchannel.status());
  for (uint8_t i = 0; i < 3; ++i) {
    auto reply = (*fchannel)->Call(GetOp(i));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->payload, Bytes{static_cast<uint8_t>(0x11 ^ 0x22)});
  }

  fserver->Stop();
  fserver.reset();
  restarted.reset();
  primary.StopAll();
}

TEST(ReplNodeTest, FollowerBehindCompactionIsCaughtUpBySnapshot) {
  // The follower endpoint exists but nothing listens there yet.
  const PortReservation reservation;
  const uint16_t follower_port = reservation.port();

  TestNode primary;
  {
    ReplNode::Options opts = PrimaryOptions({{"127.0.0.1", follower_port}});
    // Tiny segments so checkpoints actually free whole segments below the
    // compaction horizon (sender must read segments of the same size).
    opts.durable.wal_segment_bytes = 128;
    opts.sender.wal_segment_bytes = 128;
    // Keep the live tail tiny: a deep catch-up must read the primary's
    // segments (and find the compaction gap) instead of being served from
    // the in-memory buffer.
    opts.sender.live_buffer_records = 4;
    primary.Start(std::move(opts));
  }

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  for (uint8_t i = 0; i < 10; ++i) {
    SSE_ASSERT_OK((*channel)->Call(SetOp(i, 0x0F)).status());
  }
  SSE_ASSERT_OK(primary.node->Checkpoint());
  for (uint8_t i = 0; i < 10; ++i) {
    SSE_ASSERT_OK((*channel)->Call(SetOp(i, 0xF0)).status());
  }
  // Two generations retained; compaction drops segments below the older
  // cut, so history no longer reaches back to sequence 1.
  SSE_ASSERT_OK(primary.node->Checkpoint());

  // Now the follower appears, empty, asking for sequence 1: the sender
  // must ship a snapshot, then stream the tail.
  TestNode follower;
  follower.Start(FollowerOptions(), follower_port);
  EXPECT_TRUE(WaitFor(
      [&] {
        return follower.node->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      10000))
      << "follower at " << follower.node->receiver()->next_seq();
  // The follower converges the moment it installs the blob, a hair before
  // the sender's own counter increment lands — poll rather than assert.
  EXPECT_TRUE(WaitFor(
      [&] { return primary.node->sender()->snapshots_shipped() >= 1; }, 5000));

  auto fchannel = net::TcpChannel::Connect(follower_port);
  SSE_ASSERT_OK(fchannel.status());
  for (uint8_t i = 0; i < 10; ++i) {
    auto reply = (*fchannel)->Call(GetOp(i));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->payload, Bytes{0xFF});
  }

  follower.StopAll();
  primary.StopAll();
}

TEST(ReplNodeTest, FollowerRestartsFromItsOwnCheckpoint) {
  ReplNode::Options follower_options = FollowerOptions();
  follower_options.follower_checkpoint_every_records = 2;
  TestNode follower;
  follower.Start(follower_options);
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower.port()}}));

  // Session-stamped XOR ops: the follower mirrors their replies into its
  // reply cache, and its checkpoints carry that table.
  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  std::vector<net::Message> sent;
  for (uint8_t i = 0; i < 8; ++i) {
    net::Message op = SetOp(i, static_cast<uint8_t>(0x10 + i));
    op.StampSession(/*client=*/42, /*sequence=*/i + 1u);
    SSE_ASSERT_OK((*channel)->Call(op).status());
    sent.push_back(op);
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return follower.node->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      5000));
  primary.StopAll();
  follower.StopAll();
  auto generations = storage::SnapshotSet(follower.dir.path()).List();
  SSE_ASSERT_OK(generations.status());
  ASSERT_FALSE(generations->empty()) << "follower never checkpointed";

  // The restart recovers from the follower's own newest snapshot plus the
  // log tail past its cut; no primary is left to ship anything.
  follower.Start(follower_options);
  auto fchannel = net::TcpChannel::Connect(follower.port());
  SSE_ASSERT_OK(fchannel.status());
  for (uint8_t i = 0; i < 8; ++i) {
    auto reply = (*fchannel)->Call(GetOp(i));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->payload, Bytes{static_cast<uint8_t>(0x10 + i)});
  }

  // Promoted, it answers a retry of a pre-restart op from the reply cache
  // instead of XORing the value a second time.
  auto promote_reply = (*fchannel)->Call(ReplPromote{}.ToMessage());
  SSE_ASSERT_OK(promote_reply.status());
  ASSERT_EQ(follower.node->role(), ReplNode::Role::kPrimary);
  SSE_ASSERT_OK((*fchannel)->Call(sent[3]).status());
  auto read_back = (*fchannel)->Call(GetOp(3));
  SSE_ASSERT_OK(read_back.status());
  EXPECT_EQ(read_back->payload, Bytes{0x13});
  ASSERT_NE(follower.node->durable()->reply_cache(), nullptr);
  EXPECT_GE(follower.node->durable()->reply_cache()->hits(), 1u);

  follower.StopAll();
}

TEST(ReplNodeTest, DeposedPrimaryIsFencedByHigherEpochAck) {
  TestNode follower;
  follower.Start(FollowerOptions());
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower.port()}}));

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  SSE_ASSERT_OK((*channel)->Call(SetOp(1, 1)).status());

  // A (simulated) new primary with a higher epoch reaches the follower:
  // an empty append is enough for the follower to adopt the epoch.
  auto fchannel = net::TcpChannel::Connect(follower.port());
  SSE_ASSERT_OK(fchannel.status());
  ReplAppend fence;
  fence.epoch = primary.node->epoch() + 5;
  fence.first_seq = follower.node->receiver()->next_seq();
  auto fence_reply = (*fchannel)->Call(fence.ToMessage());
  SSE_ASSERT_OK(fence_reply.status());
  auto fence_ack = ReplAck::FromMessage(*fence_reply);
  SSE_ASSERT_OK(fence_ack.status());
  EXPECT_EQ(fence_ack->epoch, fence.epoch);

  // The old primary's next probe returns that epoch; it fences itself and
  // steps down from mutations.
  EXPECT_TRUE(WaitFor([&] { return primary.node->sender()->fenced(); }, 5000));
  auto refused = (*channel)->Call(SetOp(1, 2));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsRetryable());
  EXPECT_NE(refused.status().message().find("not primary"), std::string::npos);

  // Stale-epoch traffic is refused by the follower without touching its log.
  ReplAppend stale;
  stale.epoch = 1;
  stale.first_seq = follower.node->receiver()->next_seq();
  stale.records.push_back(SetOp(9, 9).Encode());
  auto stale_reply = (*fchannel)->Call(stale.ToMessage());
  SSE_ASSERT_OK(stale_reply.status());
  auto stale_ack = ReplAck::FromMessage(*stale_reply);
  SSE_ASSERT_OK(stale_ack.status());
  EXPECT_FALSE(stale_ack->accepted);
  EXPECT_EQ(stale_ack->epoch, fence.epoch);

  primary.StopAll();
  follower.StopAll();
}

TEST(ReplNodeTest, FollowerRefusesAppendWithImpossibleRecordCount) {
  TestNode follower;
  follower.Start(FollowerOptions());
  auto channel = net::TcpChannel::Connect(follower.port());
  SSE_ASSERT_OK(channel.status());

  // Epoch and first sequence, then a record count of 2^60 with no bytes
  // left to hold it: refused before anything is sized by the count.
  BufferWriter w;
  w.PutU64(follower.node->epoch());
  w.PutU64(follower.node->receiver()->next_seq());
  w.PutVarint(uint64_t{1} << 60);
  auto refused =
      (*channel)->Call(net::Message{net::kMsgReplAppend, w.TakeData()});
  EXPECT_FALSE(refused.ok());

  // The follower keeps serving and accepts the next valid append.
  ReplAppend append;
  append.epoch = follower.node->epoch();
  append.first_seq = follower.node->receiver()->next_seq();
  append.records.push_back(SetOp(3, 7).Encode());
  auto reply = (*channel)->Call(append.ToMessage());
  SSE_ASSERT_OK(reply.status());
  auto ack = ReplAck::FromMessage(*reply);
  SSE_ASSERT_OK(ack.status());
  EXPECT_TRUE(ack->accepted);
  EXPECT_EQ(ack->next_seq, append.first_seq + 1);

  follower.StopAll();
}

TEST(ReplNodeTest, PromotedFollowerRecoversPrimaryStateAndTakesWrites) {
  TestNode follower;
  follower.Start(FollowerOptions());
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower.port()}}));
  const uint64_t old_epoch = primary.node->epoch();

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  for (uint8_t i = 0; i < 4; ++i) {
    SSE_ASSERT_OK((*channel)->Call(SetOp(i, 0x33)).status());
  }
  ASSERT_TRUE(WaitFor(
      [&] {
        return follower.node->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      5000));

  // Operator promotes the follower: its shipped segments replay through
  // the ordinary DurableServer recovery path.
  auto fchannel = net::TcpChannel::Connect(follower.port());
  SSE_ASSERT_OK(fchannel.status());
  auto promote_reply = (*fchannel)->Call(ReplPromote{}.ToMessage());
  SSE_ASSERT_OK(promote_reply.status());
  auto promote_ack = ReplAck::FromMessage(*promote_reply);
  SSE_ASSERT_OK(promote_ack.status());
  EXPECT_TRUE(promote_ack->accepted);
  EXPECT_GT(promote_ack->epoch, old_epoch);
  EXPECT_EQ(follower.node->role(), ReplNode::Role::kPrimary);
  EXPECT_EQ(follower.node->promotions(), 1u);
  ASSERT_NE(follower.node->durable(), nullptr);

  // Replicated state survived promotion intact, and the node now applies
  // mutations itself.
  for (uint8_t i = 0; i < 4; ++i) {
    auto reply = (*fchannel)->Call(GetOp(i));
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(reply->payload, Bytes{0x33});
  }
  SSE_ASSERT_OK((*fchannel)->Call(SetOp(0, 0x0F)).status());
  auto read_back = (*fchannel)->Call(GetOp(0));
  SSE_ASSERT_OK(read_back.status());
  EXPECT_EQ(read_back->payload, Bytes{static_cast<uint8_t>(0x33 ^ 0x0F)});

  // Promoting a primary again is a no-op acknowledgment, not a new epoch.
  auto again = (*fchannel)->Call(ReplPromote{}.ToMessage());
  SSE_ASSERT_OK(again.status());
  auto again_ack = ReplAck::FromMessage(*again);
  SSE_ASSERT_OK(again_ack.status());
  EXPECT_EQ(again_ack->epoch, promote_ack->epoch);
  EXPECT_EQ(follower.node->promotions(), 1u);

  primary.StopAll();
  follower.StopAll();
}

TEST(ReplNodeTest, RoleAndEpochSurviveRestartViaMarkerFile) {
  TempDir dir;
  uint64_t promoted_epoch = 0;
  {
    auto node_or = ReplNode::Open(dir.path(), XorFactory(), FollowerOptions());
    SSE_ASSERT_OK(node_or.status());
    auto node = std::move(node_or).value();
    ReplPromote promote;
    promote.min_epoch = 7;
    auto reply = node->Handle(promote.ToMessage());
    SSE_ASSERT_OK(reply.status());
    EXPECT_EQ(node->role(), ReplNode::Role::kPrimary);
    promoted_epoch = node->epoch();
    EXPECT_GT(promoted_epoch, 7u);
  }
  // Reopening with a *follower* initial_role keeps the persisted primary
  // role and epoch: the marker wins over the default.
  auto reopened_or = ReplNode::Open(dir.path(), XorFactory(), FollowerOptions());
  SSE_ASSERT_OK(reopened_or.status());
  auto reopened = std::move(reopened_or).value();
  EXPECT_EQ(reopened->role(), ReplNode::Role::kPrimary);
  EXPECT_EQ(reopened->epoch(), promoted_epoch);
  EXPECT_EQ(reopened->promotions(), 1u);
}

TEST(ReplNodeTest, WaitOneBlocksForFollowerAckAndDegradesWhenAlone) {
  TestNode follower;
  follower.Start(FollowerOptions());
  TestNode primary;
  {
    ReplNode::Options opts = PrimaryOptions({{"127.0.0.1", follower.port()}});
    opts.sender.ack_mode = ReplSender::AckMode::kWaitOne;
    opts.sender.ack_timeout_ms = 500;
    primary.Start(std::move(opts));
  }
  // The first write must not race the sender's dial to the follower.
  ASSERT_TRUE(WaitFor(
      [&] {
        const auto statuses = primary.node->sender()->followers();
        return statuses.size() == 1 && statuses[0].connected;
      },
      5000));

  auto channel = net::TcpChannel::Connect(primary.port());
  SSE_ASSERT_OK(channel.status());
  SSE_ASSERT_OK((*channel)->Call(SetOp(1, 1)).status());
  // The reply was withheld until at least one follower held the record
  // durable, so by now the ack cursor covers the write.
  EXPECT_GE(primary.node->sender()->max_acked_seq(), 1u);
  EXPECT_EQ(primary.node->sender()->ack_timeouts(), 0u);

  // With the follower gone, kWaitOne degrades to async after the bounded
  // timeout instead of wedging the primary.
  follower.StopAll();
  const auto t0 = std::chrono::steady_clock::now();
  SSE_ASSERT_OK((*channel)->Call(SetOp(1, 2)).status());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
  EXPECT_TRUE(WaitFor(
      [&] { return primary.node->sender()->ack_timeouts() >= 1u; }, 1000));

  primary.StopAll();
}

TEST(FailoverChannelTest, RoutesMutationsToPrimaryAndReadsAnywhere) {
  TestNode follower;
  follower.Start(FollowerOptions());
  TestNode primary;
  primary.Start(PrimaryOptions({{"127.0.0.1", follower.port()}}));

  // Follower listed FIRST: the router must discover the primary by role,
  // not by list order.
  std::vector<ReplSender::Endpoint> endpoints = {
      {"127.0.0.1", follower.port()}, {"127.0.0.1", primary.port()}};

  FailoverChannel mutate_channel(endpoints);
  auto reply = mutate_channel.Call(SetOp(5, 0x5A));
  SSE_ASSERT_OK(reply.status());
  EXPECT_EQ(reply->type, kOpSetAck);
  EXPECT_EQ(mutate_channel.primary_index(), 1);
  // Reads follow the primary too while read_from_followers is off.
  auto read = mutate_channel.Call(GetOp(5));
  SSE_ASSERT_OK(read.status());
  EXPECT_EQ(read->payload, Bytes{0x5A});
  EXPECT_EQ(primary.reads.load(), 1);
  EXPECT_EQ(follower.reads.load(), 0);

  ASSERT_TRUE(WaitFor(
      [&] {
        return follower.node->receiver()->next_seq() ==
               primary.node->durable()->wal_next_seq();
      },
      5000));

  // With stale reads opted in, reads succeed from whichever endpoint the
  // round-robin lands on — including the follower.
  FailoverChannel::Options stale_opts;
  stale_opts.read_from_followers = true;
  FailoverChannel stale_channel(endpoints, stale_opts);
  for (int i = 0; i < 4; ++i) {
    auto stale_read = stale_channel.Call(GetOp(5));
    SSE_ASSERT_OK(stale_read.status());
    EXPECT_EQ(stale_read->payload, Bytes{0x5A});
  }
  EXPECT_GE(follower.reads.load(), 1);
  EXPECT_EQ(follower.reads.load() + primary.reads.load(), 5);
  // A type with no search row goes to the primary even with stale reads
  // on: the follower would refuse it.
  SSE_ASSERT_OK(stale_channel.Call(SetOp(6, 0x01)).status());

  primary.StopAll();
  follower.StopAll();
}

// ---------------------------------------------------------------------------
// Satellite: a MultiCall window that is mid-flight when its endpoint dies
// must fail over without losing or double-applying any op. The handler
// below plays both "replicas" (two servers, one shared state) and dedups
// on the session stamp exactly like DurableServer's ReplyCache — so the
// test fails if RetryingChannel ever re-stamps an op on the failover path.

class DedupXorHandler : public net::MessageHandler {
 public:
  Result<net::Message> Handle(const net::Message& request) override {
    if (request.type == net::kMsgStats) {
      // Both servers claim primary; the router just needs *a* primary.
      obs::StatsReply stats;
      stats.prometheus_text = "sse_repl_is_primary 1\n";
      net::Message reply = stats.ToMessage();
      reply.EchoSession(request);
      return reply;
    }
    if (request.type != kOpSet) {
      return Status::InvalidArgument("unexpected op");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (request.has_session) {
      const auto key = std::make_pair(request.client_id, request.seq);
      auto it = replies_.find(key);
      if (it != replies_.end()) {
        ++dedup_hits_;
        net::Message reply = it->second;
        reply.EchoSession(request);
        return reply;
      }
    }
    // Slow enough that a 200-op window is still in flight when the test
    // kills the first server.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (request.payload.size() != 2) {
      return Status::InvalidArgument("set wants key,value");
    }
    cells_[request.payload[0]] ^= request.payload[1];
    ++applies_;
    net::Message reply{kOpSetAck, {}};
    if (request.has_session) {
      replies_.emplace(std::make_pair(request.client_id, request.seq), reply);
    }
    reply.EchoSession(request);
    return reply;
  }

  uint64_t applies() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return applies_;
  }
  uint64_t dedup_hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return dedup_hits_;
  }
  std::map<uint8_t, uint8_t> cells() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return cells_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<uint8_t, uint8_t> cells_;
  std::map<std::pair<uint64_t, uint64_t>, net::Message> replies_;
  uint64_t applies_ = 0;
  uint64_t dedup_hits_ = 0;
};

TEST(FailoverChannelTest, MultiCallWindowSurvivesMidFlightEndpointFailover) {
  DedupXorHandler handler;  // internally locked: shared by both servers
  net::TcpServer::Options sopts = NodeServerOptions();
  sopts.serialize_handler = false;
  // The "killed" endpoint goes down hard: no drain, queued replies drop.
  net::TcpServer::Options abrupt = sopts;
  abrupt.drain_timeout_ms = 0.0;
  auto server_a = TcpServer::Start(&handler, 0, abrupt);
  SSE_ASSERT_OK(server_a.status());
  auto server_b = TcpServer::Start(&handler, 0, sopts);
  SSE_ASSERT_OK(server_b.status());

  // Endpoint A first, so the router starts there deterministically.
  FailoverChannel::Options fopts;
  fopts.backoff_initial_ms = 5;
  FailoverChannel failover(
      {{"127.0.0.1", (*server_a)->port()}, {"127.0.0.1", (*server_b)->port()}},
      fopts);

  net::RetryOptions ropts;
  ropts.max_attempts = 10;
  ropts.initial_backoff_ms = 2.0;
  ropts.max_backoff_ms = 50.0;
  ropts.batch_size = 1;   // each op is its own stamped, pipelined frame
  ropts.max_inflight = 8;
  net::RetryingChannel client(&failover, ropts);

  constexpr int kOps = 200;
  std::vector<net::Message> ops;
  ops.reserve(kOps);
  for (int i = 0; i < kOps; ++i) {
    ops.push_back(SetOp(static_cast<uint8_t>(i % 7),
                        static_cast<uint8_t>(1 + i % 5)));
  }

  std::vector<Result<net::Message>> results;
  std::thread window([&] { results = client.MultiCall(ops); });
  // Kill endpoint A while the window is demonstrably mid-flight.
  ASSERT_TRUE(WaitFor([&] { return handler.applies() >= 20; }, 10000));
  (*server_a)->Stop();
  window.join();

  ASSERT_EQ(results.size(), static_cast<size_t>(kOps));
  for (int i = 0; i < kOps; ++i) {
    SSE_ASSERT_OK_RESULT(results[i]) << " (op " << i << ")";
    EXPECT_EQ(results[i]->type, kOpSetAck);
  }
  // Exactly-once: every op applied once despite retries crossing the
  // endpoint switch. XOR makes any double-apply visible in the cells too.
  EXPECT_EQ(handler.applies(), static_cast<uint64_t>(kOps));
  std::map<uint8_t, uint8_t> expected;
  for (const auto& op : ops) expected[op.payload[0]] ^= op.payload[1];
  EXPECT_EQ(handler.cells(), expected);
  EXPECT_GE(failover.failovers(), 1u);

  (*server_b)->Stop();
}

}  // namespace
}  // namespace sse::repl
