// Configuration matrix: every full-featured scheme (engine-capable in the
// descriptor table — the paper schemes plus forward-private Scheme 3) must
// pass the same store/search cases.
// The kinds under test come from the descriptor table, so a newly
// registered engine-capable scheme enrolls here with no test changes.

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_messages.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::MakeTestSystem;

class ConfigMatrixTest : public ::testing::TestWithParam<SystemKind> {
 protected:
  ConfigMatrixTest() : rng_(12345) {
    sys_ = MakeTestSystem(GetParam(), &rng_, FastTestConfig());
  }

  DeterministicRandom rng_;
  SseSystem sys_;
};

TEST_P(ConfigMatrixTest, StoreSearchInterleave) {
  for (uint64_t i = 0; i < 12; ++i) {
    SSE_ASSERT_OK(sys_.client->Store({Document::Make(
        i, "content-" + std::to_string(i),
        {"all", "mod" + std::to_string(i % 3)})}));
    if (i % 4 == 3) {
      auto outcome = sys_.client->Search("all");
      SSE_ASSERT_OK_RESULT(outcome);
      EXPECT_EQ(outcome->ids.size(), i + 1);
    }
  }
  auto mod1 = sys_.client->Search("mod1");
  SSE_ASSERT_OK_RESULT(mod1);
  EXPECT_EQ(mod1->ids, (std::vector<uint64_t>{1, 4, 7, 10}));
  ASSERT_EQ(mod1->documents.size(), 4u);
  EXPECT_EQ(BytesToString(mod1->documents[2].second), "content-7");
}

TEST_P(ConfigMatrixTest, FakeUpdateAndMiss) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->FakeUpdate({"kw", "ghost"}));
  EXPECT_EQ(sys_.client->Search("kw")->ids, std::vector<uint64_t>{0});
  EXPECT_TRUE(sys_.client->Search("never")->ids.empty());
}

std::vector<SystemKind> EngineCapableKinds() {
  std::vector<SystemKind> kinds;
  for (const SchemeDescriptor& desc : AllSchemes()) {
    if (desc.traits.engine_capable) kinds.push_back(desc.kind);
  }
  return kinds;
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ConfigMatrixTest, ::testing::ValuesIn(EngineCapableKinds()),
    [](const ::testing::TestParamInfo<SystemKind>& info) {
      return std::string(SystemKindName(info.param));
    });

TEST(ParameterMismatchTest, Scheme1BitmapCapacityMismatchRejected) {
  // Client and server disagreeing on max_documents is a deployment error;
  // the server must reject the wrong-width bitmap, not corrupt state.
  DeterministicRandom rng(9);
  SystemConfig server_config = FastTestConfig();
  server_config.scheme.max_documents = 256;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme1, &rng, server_config);

  SystemConfig client_config = server_config;
  client_config.scheme.max_documents = 512;  // different bitmap width
  auto client = Scheme1Client::Create(sse::testing::TestMasterKey(),
                                      client_config.scheme, sys.channel.get(),
                                      &rng);
  ASSERT_TRUE(client.ok());
  Status s = (*client)->Store({Document::Make(0, "a", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kProtocolError);
}

TEST(ParameterMismatchTest, Scheme2GarbageChainElementFailsCleanly) {
  DeterministicRandom rng(10);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme2, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  // Hand-craft a search with a bogus chain element for the real token.
  auto* client = static_cast<Scheme2Client*>(sys.client.get());
  auto trapdoor = client->MakeTrapdoor("kw");
  ASSERT_TRUE(trapdoor.ok());
  S2SearchRequest req;
  req.token = trapdoor->token;
  req.chain_element = Bytes(32, 0xee);  // not on the chain
  auto reply = sys.channel->Call(req.ToMessage());
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNotFound);
  // And the genuine trapdoor still works afterwards.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

}  // namespace
}  // namespace sse::core
