#include "sse/core/registry.h"

#include <gtest/gtest.h>

#include "sse/core/scheme1_client.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::TestMasterKey;

TEST(RegistryTest, NamesRoundTrip) {
  for (SystemKind kind : AllSystemKinds()) {
    auto parsed = SystemKindFromName(SystemKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(SystemKindFromName("no-such-system").ok());
  EXPECT_FALSE(SystemKindFromName("").ok());
}

TEST(RegistryTest, AllKindsEnumerated) {
  EXPECT_EQ(AllSystemKinds().size(), 6u);
  EXPECT_EQ(AllSchemes().size(), AllSystemKinds().size());
}

TEST(RegistryTest, DescriptorTableConsistent) {
  for (const SchemeDescriptor& desc : AllSchemes()) {
    EXPECT_EQ(FindScheme(desc.kind), &desc);
    EXPECT_EQ(FindScheme(desc.name), &desc);
    EXPECT_EQ(SystemKindName(desc.kind), desc.name);
    EXPECT_FALSE(desc.summary.empty()) << desc.name;
    EXPECT_NE(desc.make_server, nullptr) << desc.name;
    EXPECT_NE(desc.make_client, nullptr) << desc.name;
    // Engine capability and the adapter factory must agree.
    EXPECT_EQ(desc.traits.engine_capable, desc.make_adapter != nullptr)
        << desc.name;
  }
  EXPECT_EQ(FindScheme("no-such-scheme"), nullptr);
}

TEST(RegistryTest, CreateEverySystem) {
  DeterministicRandom rng(1);
  for (SystemKind kind : AllSystemKinds()) {
    auto sys = CreateSystem(kind, TestMasterKey(), FastTestConfig(), &rng);
    ASSERT_TRUE(sys.ok()) << SystemKindName(kind) << ": "
                          << sys.status().ToString();
    EXPECT_NE(sys->server, nullptr);
    EXPECT_NE(sys->channel, nullptr);
    EXPECT_NE(sys->client, nullptr);
    EXPECT_EQ(sys->client->name(), SystemKindName(kind));
  }
}

TEST(RegistryTest, NullRngRejected) {
  auto sys = CreateSystem(SystemKind::kScheme1, TestMasterKey(),
                          FastTestConfig(), nullptr);
  EXPECT_FALSE(sys.ok());
}

TEST(RegistryTest, InvalidSchemeOptionsSurface) {
  DeterministicRandom rng(3);
  SystemConfig config = FastTestConfig();
  config.scheme.chain_length = 0;  // invalid for scheme 2
  EXPECT_FALSE(
      CreateSystem(SystemKind::kScheme2, TestMasterKey(), config, &rng).ok());
}

TEST(RegistryTest, DistinctKeysDistinctTokens) {
  // Two clients with different master keys produce disjoint server state
  // for the same keyword — no cross-tenant token collisions.
  DeterministicRandom rng(4);
  auto sys = CreateSystem(SystemKind::kScheme1, TestMasterKey(),
                          FastTestConfig(), &rng);
  ASSERT_TRUE(sys.ok());
  SSE_ASSERT_OK(sys->client->Store({Document::Make(0, "a", {"kw"})}));

  // A second client with another key, pointed at the SAME server.
  DeterministicRandom rng2(5);
  DeterministicRandom key_rng(999);
  auto other_key = crypto::MasterKey::Generate(key_rng);
  ASSERT_TRUE(other_key.ok());
  auto client2 = Scheme1Client::Create(*other_key, FastTestConfig().scheme,
                                       sys->channel.get(), &rng2);
  ASSERT_TRUE(client2.ok());
  auto outcome = (*client2)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());  // token differs, nothing found
}

}  // namespace
}  // namespace sse::core
