// Tests for the sharded server engine: routing equivalence against the
// plain single-threaded servers, snapshot round-trips, registry counters,
// and shard balance. Concurrency is exercised separately in
// engine_concurrency_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/engine/scheme1_adapter.h"
#include "sse/engine/scheme2_adapter.h"
#include "sse/engine/server_engine.h"
#include "sse/engine/shard_router.h"
#include "sse/obs/metrics_registry.h"
#include "sse/repl/failover_channel.h"
#include "test_util.h"

namespace sse {
namespace {

using ::sse::testing::EngineCounter;
using ::sse::testing::FastTestConfig;
using ::sse::testing::MakeTestSystem;
using ::sse::testing::TestMasterKey;

core::SystemConfig EngineConfig(size_t shards) {
  core::SystemConfig config = FastTestConfig();
  config.engine_shards = shards;
  return config;
}

std::vector<core::Document> CorpusDocs() {
  std::vector<core::Document> docs;
  docs.push_back(core::Document::Make(1, "alpha text", {"alpha", "common"}));
  docs.push_back(core::Document::Make(2, "beta text", {"beta", "common"}));
  docs.push_back(core::Document::Make(3, "gamma text", {"gamma"}));
  docs.push_back(core::Document::Make(4, "delta text", {"delta", "alpha"}));
  docs.push_back(
      core::Document::Make(5, "epsilon text", {"epsilon", "common"}));
  return docs;
}

void ExpectSameOutcome(const core::SearchOutcome& plain,
                       const core::SearchOutcome& engine,
                       const std::string& keyword) {
  EXPECT_EQ(plain.ids, engine.ids) << "keyword: " << keyword;
  ASSERT_EQ(plain.documents.size(), engine.documents.size())
      << "keyword: " << keyword;
  for (size_t i = 0; i < plain.documents.size(); ++i) {
    EXPECT_EQ(plain.documents[i].first, engine.documents[i].first);
    EXPECT_EQ(plain.documents[i].second, engine.documents[i].second);
  }
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<core::SystemKind> {};

// The engine-backed system must be observably identical to the plain
// server: same ids, same decrypted documents, for hits and misses.
TEST_P(EngineEquivalenceTest, MatchesPlainServer) {
  DeterministicRandom plain_rng(7);
  DeterministicRandom engine_rng(7);
  core::SseSystem plain = MakeTestSystem(GetParam(), &plain_rng);
  core::SseSystem sharded =
      MakeTestSystem(GetParam(), &engine_rng, EngineConfig(4));

  const auto docs = CorpusDocs();
  SSE_ASSERT_OK(plain.client->Store(docs));
  SSE_ASSERT_OK(sharded.client->Store(docs));

  for (const std::string keyword :
       {"alpha", "beta", "gamma", "delta", "epsilon", "common", "missing"}) {
    auto plain_result = plain.client->Search(keyword);
    auto engine_result = sharded.client->Search(keyword);
    SSE_ASSERT_OK_RESULT(plain_result);
    SSE_ASSERT_OK_RESULT(engine_result);
    ExpectSameOutcome(*plain_result, *engine_result, keyword);
  }

  // Incremental updates after the initial load route correctly too.
  const auto extra =
      core::Document::Make(9, "late arrival", {"common", "late"});
  SSE_ASSERT_OK(plain.client->Store({extra}));
  SSE_ASSERT_OK(sharded.client->Store({extra}));
  for (const std::string keyword : {"common", "late"}) {
    auto plain_result = plain.client->Search(keyword);
    auto engine_result = sharded.client->Search(keyword);
    SSE_ASSERT_OK_RESULT(plain_result);
    SSE_ASSERT_OK_RESULT(engine_result);
    ExpectSameOutcome(*plain_result, *engine_result, keyword);
  }

  auto* eng = static_cast<engine::ServerEngine*>(sharded.server.get());
  EXPECT_EQ(eng->document_count(), 6u);
  EXPECT_GT(eng->unique_keywords(), 0u);
  EXPECT_GT(eng->stored_index_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, EngineEquivalenceTest,
                         ::testing::Values(core::SystemKind::kScheme1,
                                           core::SystemKind::kScheme2),
                         [](const auto& info) {
                           return std::string(
                               core::SystemKindName(info.param));
                         });

// Scheme 2 re-initializes its hash chains when the counter nears the chain
// length; through the engine this is a FetchAll broadcast + a Reinit that
// must clear and re-seed every shard.
TEST(EngineScheme2Test, ReinitBroadcastsThroughAllShards) {
  core::SystemConfig config = EngineConfig(4);
  config.scheme.chain_length = 8;
  config.scheme.counter_after_search_only = false;  // burn chain fast
  core::SystemConfig plain_config = config;
  plain_config.engine_shards = 0;

  DeterministicRandom engine_rng(11);
  DeterministicRandom plain_rng(11);
  const uint64_t broadcasts_before = EngineCounter("broadcasts");
  core::SseSystem sharded =
      MakeTestSystem(core::SystemKind::kScheme2, &engine_rng, config);
  core::SseSystem plain =
      MakeTestSystem(core::SystemKind::kScheme2, &plain_rng, plain_config);

  // Far more counted updates than chain elements: the chain exhausts and
  // the client must rebuild the index under a fresh epoch — through the
  // engine that is a FetchAll broadcast plus a Reinit to every shard.
  auto* sharded_client = static_cast<core::Scheme2Client*>(sharded.client.get());
  auto* plain_client = static_cast<core::Scheme2Client*>(plain.client.get());
  auto store_with_reinit = [](core::Scheme2Client* client,
                              const core::Document& doc) {
    Status s = client->Store({doc});
    if (!s.ok()) {
      SSE_ASSERT_OK(client->Reinitialize());
      SSE_ASSERT_OK(client->Store({doc}));
    }
  };
  for (uint64_t i = 0; i < 24; ++i) {
    const auto doc = core::Document::Make(
        i, "doc " + std::to_string(i),
        {"kw" + std::to_string(i % 6), "shared"});
    store_with_reinit(sharded_client, doc);
    store_with_reinit(plain_client, doc);
    if (i % 5 == 0) {
      SSE_ASSERT_OK_RESULT(sharded.client->Search("shared"));
      SSE_ASSERT_OK_RESULT(plain.client->Search("shared"));
    }
  }
  for (const std::string keyword :
       {"kw0", "kw1", "kw2", "kw3", "kw4", "kw5", "shared"}) {
    auto plain_result = plain.client->Search(keyword);
    auto engine_result = sharded.client->Search(keyword);
    SSE_ASSERT_OK_RESULT(plain_result);
    SSE_ASSERT_OK_RESULT(engine_result);
    ExpectSameOutcome(*plain_result, *engine_result, keyword);
  }
  EXPECT_GT(EngineCounter("broadcasts"), broadcasts_before)
      << "reinit never broadcast";
}

TEST(EngineSnapshotTest, SerializeRestoreRoundTrip) {
  DeterministicRandom rng(13);
  core::SseSystem sharded =
      MakeTestSystem(core::SystemKind::kScheme1, &rng, EngineConfig(4));
  SSE_ASSERT_OK(sharded.client->Store(CorpusDocs()));
  auto* eng = static_cast<engine::ServerEngine*>(sharded.server.get());

  auto state = eng->SerializeState();
  SSE_ASSERT_OK_RESULT(state);

  // Restore into a fresh engine with the same shard count; a fresh client
  // with the same master key must see the same database.
  engine::EngineOptions same_shards;
  same_shards.num_shards = 4;
  auto restored = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(FastTestConfig().scheme),
      same_shards);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(*state));
  EXPECT_EQ((*restored)->document_count(), eng->document_count());
  EXPECT_EQ((*restored)->unique_keywords(), eng->unique_keywords());

  net::InProcessChannel channel(restored->get());
  DeterministicRandom client_rng(14);
  auto client = core::Scheme1Client::Create(
      TestMasterKey(), FastTestConfig().scheme, &channel, &client_rng);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("common");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{1, 2, 5}));
  ASSERT_EQ(outcome->documents.size(), 3u);

  // Shard states are partition-dependent: restoring into a differently
  // sharded engine must be rejected, not silently misrouted.
  engine::EngineOptions fewer_shards;
  fewer_shards.num_shards = 3;
  auto wrong = engine::ServerEngine::Create(
      std::make_unique<engine::Scheme1Adapter>(FastTestConfig().scheme),
      fewer_shards);
  SSE_ASSERT_OK_RESULT(wrong);
  EXPECT_FALSE((*wrong)->RestoreState(*state).ok());
}

// The engine counts into the process-wide registry, the series the stats
// RPC serves. The workload is deterministic, so the deltas are exact: the
// Store is a nonce round (shared locks) and an update round (exclusive
// locks), each split over the three shards its six keywords land on; each
// search is two single-shard rounds, the second of which fetches the
// matching documents (2 + 1 + 3 of them).
TEST(EngineCountersTest, CountsRequestsAndShardTraffic) {
  const std::map<std::string, uint64_t> expected = {
      {"requests", 8},    {"scatters", 2},    {"broadcasts", 0},
      {"batches", 0},     {"batch_ops", 0},   {"doc_puts", 5},
      {"doc_fetches", 6}, {"shard_reads", 9}, {"shard_writes", 3},
      {"shard_errors", 0}};
  std::map<std::string, uint64_t> before;
  for (const auto& [name, count] : expected) before[name] = EngineCounter(name);

  DeterministicRandom rng(19);
  core::SseSystem sharded =
      MakeTestSystem(core::SystemKind::kScheme1, &rng, EngineConfig(4));
  SSE_ASSERT_OK(sharded.client->Store(CorpusDocs()));
  for (const std::string keyword : {"alpha", "beta", "common"}) {
    SSE_ASSERT_OK_RESULT(sharded.client->Search(keyword));
  }
  std::map<std::string, uint64_t> delta;
  for (const auto& [name, count] : before) {
    delta[name] = EngineCounter(name) - count;
  }
  EXPECT_EQ(delta, expected);

  // The latency histogram stays per engine; this test's engine is the only
  // one alive, so the scraped count is its own.
  const std::string text = obs::MetricsRegistry::Global().RenderPrometheus();
  double handled = 0;
  ASSERT_TRUE(
      repl::FindMetricValue(text, "sse_engine_handle_seconds_count", &handled));
  EXPECT_EQ(handled, 8.0);
  EXPECT_NE(text.find("\nsse_engine_requests_total "), std::string::npos);
}

TEST(ShardRouterTest, StableAndBalanced) {
  const size_t shards = 8;
  std::vector<size_t> hits(shards, 0);
  DeterministicRandom rng(23);
  for (int i = 0; i < 2000; ++i) {
    Bytes token(32);
    for (auto& b : token) b = static_cast<uint8_t>(rng.Next());
    const size_t s = engine::ShardForToken(token, shards);
    ASSERT_LT(s, shards);
    EXPECT_EQ(s, engine::ShardForToken(token, shards));  // deterministic
    ++hits[s];
  }
  // Uniform tokens should land everywhere; with 2000 draws over 8 shards a
  // starved shard means the router is broken, not unlucky.
  for (size_t s = 0; s < shards; ++s) {
    EXPECT_GT(hits[s], 100u) << "shard " << s << " starved";
  }
  // Short tokens still route in range.
  Bytes tiny{0x42};
  EXPECT_LT(engine::ShardForToken(tiny, shards), shards);
  EXPECT_LT(engine::ShardForToken(Bytes{}, shards), shards);
}

// Baselines have no sharding policy; asking for one must fail loudly.
TEST(EngineRegistryTest, BaselinesRejectEngineMode) {
  DeterministicRandom rng(29);
  auto result = core::CreateSystem(core::SystemKind::kSwp, TestMasterKey(),
                                   EngineConfig(4), &rng);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace sse
