// The message-type table (net/message_types.h) against what the servers
// do. Each system's real client drives its classic server, and the three
// engine-capable schemes also drive a 4-shard engine; decorators record,
// per request type, whether handling a request changed the server's
// serialized state. A type must have a row, and the row must say mutation
// exactly when some request of that type changed the state.

#include "sse/net/message_types.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/engine/scheme_shard.h"
#include "sse/engine/server_engine.h"
#include "sse/net/channel.h"
#include "sse/net/retry.h"
#include "test_util.h"

namespace sse {
namespace {

using net::MessageKind;
using sse::testing::FastTestConfig;
using sse::testing::TestMasterKey;

/// Request type → whether some request of that type changed the state.
using ChangeLog = std::map<uint16_t, bool>;

template <typename Handler>
Result<net::Message> HandleAndRecord(Handler& inner,
                                     const net::Message& request,
                                     ChangeLog& log) {
  const Result<Bytes> before = inner.SerializeState();
  Result<net::Message> reply = inner.Handle(request);
  const Result<Bytes> after = inner.SerializeState();
  bool& changed = log[request.type];
  changed = changed || !before.ok() || !after.ok() || *before != *after;
  return reply;
}

class RecordingServer : public core::PersistableHandler {
 public:
  RecordingServer(std::unique_ptr<core::PersistableHandler> inner,
                  ChangeLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Result<net::Message> Handle(const net::Message& request) override {
    return HandleAndRecord(*inner_, request, *log_);
  }
  Result<Bytes> SerializeState() const override {
    return inner_->SerializeState();
  }
  Status RestoreState(BytesView data) override {
    return inner_->RestoreState(data);
  }

 private:
  std::unique_ptr<core::PersistableHandler> inner_;
  ChangeLog* log_;
};

class RecordingShard : public engine::SchemeShard {
 public:
  RecordingShard(std::unique_ptr<engine::SchemeShard> inner, ChangeLog* log)
      : inner_(std::move(inner)), log_(log) {}

  Result<net::Message> Handle(const net::Message& request) override {
    return HandleAndRecord(*inner_, request, *log_);
  }
  Result<Bytes> SerializeState() const override {
    return inner_->SerializeState();
  }
  Status RestoreState(BytesView data) override {
    return inner_->RestoreState(data);
  }
  size_t unique_keywords() const override {
    return inner_->unique_keywords();
  }
  uint64_t stored_index_bytes() const override {
    return inner_->stored_index_bytes();
  }

 private:
  std::unique_ptr<engine::SchemeShard> inner_;
  ChangeLog* log_;
};

/// Hands the engine shards wrapped in a RecordingShard.
class RecordingAdapter : public engine::SchemeAdapter {
 public:
  RecordingAdapter(std::unique_ptr<engine::SchemeAdapter> inner,
                   ChangeLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<engine::SchemeShard> CreateShard() const override {
    return std::make_unique<RecordingShard>(inner_->CreateShard(), log_);
  }
  Result<engine::RequestPlan> Route(const net::Message& request,
                                    size_t num_shards) const override {
    return inner_->Route(request, num_shards);
  }
  Result<net::Message> Merge(
      const net::Message& request, const engine::RequestPlan& plan,
      std::vector<net::Message> replies,
      const engine::DocumentFetcher& fetch_docs) const override {
    return inner_->Merge(request, plan, std::move(replies), fetch_docs);
  }
  void OnStateRestored() override { inner_->OnStateRestored(); }

 private:
  std::unique_ptr<engine::SchemeAdapter> inner_;
  ChangeLog* log_;
};

/// Every operation a client offers: Store, Search, MultiSearch, a fake
/// update where the system has one, Scheme 1's RemoveDocument and Scheme
/// 2's Reinitialize.
void Drive(core::SseClientInterface& client) {
  SSE_ASSERT_OK(client.Store({
      core::Document::Make(1, "one", {"alpha", "beta"}),
      core::Document::Make(2, "two", {"beta", "gamma"}),
      core::Document::Make(3, "three", {"alpha"}),
  }));
  SSE_ASSERT_OK(client.Search("alpha").status());
  SSE_ASSERT_OK(client.MultiSearch({"alpha", "beta", "absent"}).status());
  const Status fake = client.FakeUpdate({"alpha", "delta"});
  if (fake.code() != StatusCode::kUnimplemented) SSE_ASSERT_OK(fake);
  if (auto* s1 = dynamic_cast<core::Scheme1Client*>(&client)) {
    SSE_ASSERT_OK(s1->RemoveDocument(3, {"alpha"}));
  }
  if (auto* s2 = dynamic_cast<core::Scheme2Client*>(&client)) {
    SSE_ASSERT_OK(s2->Reinitialize());
  }
  SSE_ASSERT_OK(client.Store({core::Document::Make(4, "four", {"beta"})}));
  SSE_ASSERT_OK(client.MultiSearch({"beta", "gamma"}).status());
}

TEST(MessageTypesTest, NamesComeFromTheTable) {
  uint16_t previous = 0;
  for (const net::MessageTypeInfo& row : net::kMessageTypes) {
    EXPECT_GT(row.type, previous) << row.name << ": one row per type, in order";
    previous = row.type;
    EXPECT_EQ(net::FindMessageType(row.type), &row);
    EXPECT_EQ(net::MessageTypeName(row.type), row.name);
  }
  EXPECT_EQ(net::MessageTypeName(0x0317), "Baseline.CgkoSearch");
  // A type with no row is named by its range and low byte.
  EXPECT_EQ(net::FindMessageType(0x0305), nullptr);
  EXPECT_EQ(net::MessageTypeName(0x0305), "Baseline.5");
}

TEST(MessageTypesTest, MutationRowsAreTheRequestsThatChangeState) {
  core::SystemConfig config = FastTestConfig();
  config.scheme.batch_ops = true;
  ChangeLog log;
  for (const core::SchemeDescriptor& scheme : core::AllSchemes()) {
    SCOPED_TRACE(std::string(scheme.name));
    DeterministicRandom rng(7);
    {
      // Classic server: MultiCall over the bare channel sends one frame
      // per op, since a classic server does not open batch envelopes.
      auto made = scheme.make_server(config);
      SSE_ASSERT_OK_RESULT(made);
      RecordingServer server(std::move(made).value(), &log);
      net::InProcessChannel channel(&server, config.channel);
      auto client =
          scheme.make_client(TestMasterKey(), config, &channel, &rng);
      SSE_ASSERT_OK_RESULT(client);
      Drive(**client);
    }
    if (!scheme.traits.engine_capable) continue;
    // Engine: a RetryingChannel packs MultiCall rounds into batch
    // envelopes; the shards see the sub-requests the adapter routes.
    engine::EngineOptions options;
    options.num_shards = 4;
    options.enable_reply_cache = false;
    auto made = engine::ServerEngine::Create(
        std::make_unique<RecordingAdapter>(scheme.make_adapter(config), &log),
        options);
    SSE_ASSERT_OK_RESULT(made);
    RecordingServer server(std::move(made).value(), &log);
    net::InProcessChannel channel(&server, config.channel);
    net::RetryingChannel retry(&channel, config.retry, &rng);
    auto client = scheme.make_client(TestMasterKey(), config, &retry, &rng);
    SSE_ASSERT_OK_RESULT(client);
    Drive(**client);
  }

  for (const auto& [type, changed] : log) {
    SCOPED_TRACE(net::MessageTypeName(type));
    const net::MessageTypeInfo* row = net::FindMessageType(type);
    ASSERT_NE(row, nullptr) << "a request type with no row";
    EXPECT_TRUE(row->kind == MessageKind::kSearch ||
                row->kind == MessageKind::kMutation);
    EXPECT_EQ(row->kind == MessageKind::kMutation, changed);
  }
  // The drive reaches every request row, so no row goes unchecked.
  for (const net::MessageTypeInfo& row : net::kMessageTypes) {
    if (row.kind == MessageKind::kSearch ||
        row.kind == MessageKind::kMutation) {
      EXPECT_EQ(log.count(row.type), 1u) << row.name << " never sent";
    }
  }
}

}  // namespace
}  // namespace sse
