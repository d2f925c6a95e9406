// Scheme 3 (forward-private dynamic SSE) specifics that the shared
// conformance suite cannot express: the forward-privacy guarantee itself,
// per-keyword counter state round-trips, chain exhaustion, idempotent
// update replay, and the sharded-engine broadcast search.

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_messages.h"
#include "sse/core/scheme3_server.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::FromHex;
using sse::testing::MakeTestSystem;
using sse::testing::TestMasterKey;

Scheme3Client* ClientOf(SseSystem& sys) {
  return static_cast<Scheme3Client*>(sys.client.get());
}

TEST(Scheme3Test, ForwardPrivacy) {
  // THE property this scheme exists for: a trapdoor released at counter c
  // must not match updates made after it — the server walks the chain only
  // toward older keys.
  DeterministicRandom rng(41);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "old", {"kw"})}));

  auto trapdoor = ClientOf(sys)->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  EXPECT_EQ(trapdoor->counter, 1u);

  // The update AFTER the trapdoor was released.
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "new", {"kw"})}));

  // Replay the stale trapdoor straight at the server: it opens exactly the
  // pre-update state, nothing newer.
  S3SearchRequest req;
  req.chain_element = trapdoor->chain_element;
  req.counter = trapdoor->counter;
  auto reply = sys.channel->Call(req.ToMessage());
  SSE_ASSERT_OK_RESULT(reply);
  auto stale = S3SearchResult::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(stale);
  EXPECT_EQ(stale->ids, std::vector<uint64_t>{0});
  EXPECT_EQ(stale->entries_decrypted, 1u);

  // A fresh trapdoor sees everything.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
}

TEST(Scheme3Test, VirginKeywordResolvesLocally) {
  // A keyword with no updates has nothing searchable and releases no
  // trapdoor — the search must not even touch the wire.
  DeterministicRandom rng(42);
  SystemConfig config = FastTestConfig();
  config.channel.record_transcript = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);

  auto outcome = sys.client->Search("never-stored");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());
  EXPECT_TRUE(sys.channel->transcript().empty());

  auto trapdoor = ClientOf(sys)->MakeTrapdoor("never-stored");
  EXPECT_EQ(trapdoor.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Scheme3Test, CountersAdvancePerKeyword) {
  DeterministicRandom rng(43);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"x", "y"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "b", {"x"})}));
  Scheme3Client* client = ClientOf(sys);
  EXPECT_EQ(client->counter("x").value(), 2u);
  EXPECT_EQ(client->counter("y").value(), 1u);
  EXPECT_EQ(client->counter("z").value(), 0u);
}

TEST(Scheme3Test, ClientStateRoundTrip) {
  // A second client restored from serialized state continues the counter
  // sequence instead of shadowing earlier updates.
  DeterministicRandom rng(44);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "b", {"kw"})}));
  const Bytes state = sys.client->SerializeState();

  DeterministicRandom rng2(45);
  auto restored = Scheme3Client::Create(TestMasterKey(), FastTestConfig().scheme,
                                        sys.channel.get(), &rng2);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(state));
  EXPECT_EQ((*restored)->counter("kw").value(), 2u);

  // Continues where the first client stopped: the old postings survive.
  SSE_ASSERT_OK((*restored)->Store({Document::Make(2, "c", {"kw"})}));
  auto outcome = (*restored)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));

  // The used-id set restores too.
  Status dup = (*restored)->Store({Document::Make(0, "dup", {"kw"})});
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(Scheme3Test, CorruptStateRejected) {
  DeterministicRandom rng(46);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng);
  EXPECT_FALSE(sys.client->RestoreState(Bytes{0xff, 0xff, 0xff}).ok());
}

TEST(Scheme3Test, ChainExhaustion) {
  DeterministicRandom rng(47);
  SystemConfig config = FastTestConfig();
  config.scheme.chain_length = 3;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  for (uint64_t i = 0; i < 3; ++i) {
    SSE_ASSERT_OK(sys.client->Store(
        {Document::Make(i, "doc" + std::to_string(i), {"kw"})}));
  }
  Status s = sys.client->Store({Document::Make(3, "one too many", {"kw"})});
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  // Existing postings still searchable after the refusal.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(Scheme3Test, ReplayedUpdateIsIdempotent) {
  // A chain key is burned per logical update, so a re-delivered update
  // message carries the same address and delta; applying it twice must
  // not change what a search sees.
  DeterministicRandom rng(48);
  SystemConfig config = FastTestConfig();
  config.channel.record_transcript = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  const net::Message update = sys.channel->transcript().back().request;
  ASSERT_EQ(update.type, kMsgS3UpdateRequest);
  ASSERT_TRUE(sys.channel->Call(update).ok());
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST(Scheme3Test, BatchedUpdatesAndMultiSearch) {
  DeterministicRandom rng(49);
  SystemConfig config = FastTestConfig();
  config.scheme.batch_ops = true;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({
      Document::Make(0, "d0", {"x", "shared"}),
      Document::Make(1, "d1", {"y", "shared"}),
  }));
  auto outcomes = sys.client->MultiSearch({"x", "virgin", "shared", "y"});
  SSE_ASSERT_OK_RESULT(outcomes);
  ASSERT_EQ(outcomes->size(), 4u);
  EXPECT_EQ((*outcomes)[0].ids, std::vector<uint64_t>{0});
  EXPECT_TRUE((*outcomes)[1].ids.empty());
  EXPECT_EQ((*outcomes)[2].ids, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ((*outcomes)[3].ids, std::vector<uint64_t>{1});
}

TEST(Scheme3Test, ShardedEngineBroadcastSearch) {
  // With engine shards the per-update addresses scatter across shards and
  // a search must union every shard's walk.
  DeterministicRandom rng(50);
  SystemConfig config = FastTestConfig();
  config.engine_shards = 4;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < 16; ++i) {
    SSE_ASSERT_OK(sys.client->Store({Document::Make(
        i, "doc" + std::to_string(i),
        {"all", "mod" + std::to_string(i % 3)})}));
    expected.push_back(i);
  }
  auto outcome = sys.client->Search("all");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, expected);
  ASSERT_EQ(outcome->documents.size(), 16u);
  auto mod1 = sys.client->Search("mod1");
  SSE_ASSERT_OK_RESULT(mod1);
  EXPECT_EQ(mod1->ids, (std::vector<uint64_t>{1, 4, 7, 10, 13}));
}

TEST(Scheme3Test, StaleTrapdoorIsForwardPrivateUnderEngine) {
  // Forward privacy holds through the sharded engine too: the broadcast
  // search merges per-shard walks that each stop at the trapdoor counter.
  DeterministicRandom rng(51);
  SystemConfig config = FastTestConfig();
  config.engine_shards = 2;
  SseSystem sys = MakeTestSystem(SystemKind::kScheme3, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "old", {"kw"})}));
  auto trapdoor = ClientOf(sys)->MakeTrapdoor("kw");
  SSE_ASSERT_OK_RESULT(trapdoor);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "new", {"kw"})}));

  S3SearchRequest req;
  req.chain_element = trapdoor->chain_element;
  req.counter = trapdoor->counter;
  auto reply = sys.channel->Call(req.ToMessage());
  SSE_ASSERT_OK_RESULT(reply);
  auto stale = S3SearchResult::FromMessage(*reply);
  SSE_ASSERT_OK_RESULT(stale);
  EXPECT_EQ(stale->ids, std::vector<uint64_t>{0});
}

// Known-answer vectors. Never regenerate them: they pin the chain
// elements, update addresses and ciphertexts earlier builds produced, so
// existing client state files, WALs and snapshots stay readable.

TEST(Scheme3KnownAnswerTest, TrapdoorsAndAddresses) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(&server, record);
  DeterministicRandom rng(7);
  auto created =
      Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(created);
  Scheme3Client& client = **created;

  SSE_ASSERT_OK(client.Store({Document::Make(0, "doc zero", {"alpha", "beta"}),
                              Document::Make(1, "doc one", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("alpha"));
  SSE_ASSERT_OK(client.Store({Document::Make(2, "doc two", {"beta", "gamma"})}));
  SSE_ASSERT_OK(client.Store({Document::Make(3, "doc three", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("zeta"));
  SSE_ASSERT_OK(client.FakeUpdate({"gamma", "delta", "gamma"}));

  struct TrapdoorVector {
    const char* keyword;
    uint32_t counter;
    const char* element;
  };
  const TrapdoorVector trapdoors[] = {
      {"alpha", 2,
       "35250457f3ac5a7a3abcadc279382ba053951c2aec1050c8af86d387ce71e68c"},
      {"gamma", 2,
       "33b26c5e3a3f91c88372957969bc6a79d2a080ec332dde36b08c85cdb8d207a8"},
  };
  for (const TrapdoorVector& v : trapdoors) {
    auto trapdoor = client.MakeTrapdoor(v.keyword);
    SSE_ASSERT_OK_RESULT(trapdoor);
    EXPECT_EQ(trapdoor->counter, v.counter) << v.keyword;
    EXPECT_EQ(HexEncode(trapdoor->chain_element), v.element) << v.keyword;
  }

  std::vector<std::string> addresses;
  for (const net::Exchange& exchange : channel.transcript()) {
    if (exchange.request.type != kMsgS3UpdateRequest) continue;
    auto req = S3UpdateRequest::FromMessage(exchange.request);
    SSE_ASSERT_OK_RESULT(req);
    for (const S3UpdateEntry& e : req->entries) {
      addresses.push_back(HexEncode(e.address));
    }
  }
  // alpha@1, beta@1 | beta@2, gamma@1 | alpha@2 | delta@1, gamma@2.
  EXPECT_EQ(addresses,
            (std::vector<std::string>{
                "3b5ee4d59b8587fa64b490b55423c15d13853e0c0c8496b69c5ea6b2c0d73624",
                "55d0103d126e7c79e49f679a8bb2f15955633966b6f8db296d13db5d7985ae75",
                "1a116f429a2a63f803beb5ee40eea564fd48025b2e9bc16819476543672ccff6",
                "e5e42d1d00cfc3d03d52e36227681a0a2c2945e2262a013a5a8973a2bc761323",
                "faf43626dbccd9be29497d0c19166b274295fda68257c06af4aa45816f066b3f",
                "e66357386a36869d20ba93569a4d95f72c62adf5ee6023d317f93a9abe27d9ba",
                "1b6e9826a25fc915be8fb720d43a240198e0aed84be47643cc8ccb27079d4cde",
            }));
}

TEST(Scheme3KnownAnswerTest, EarlierCiphertextsStillOpen) {
  // An index entry and a data item an earlier build sealed for document 5
  // under keyword "kat" at counter 1, plus the client state that update
  // left behind.
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  S3UpdateRequest update;
  S3UpdateEntry entry;
  entry.address = FromHex(
      "79fcee295bacb9e814a9cfe63c78aafa0737fbdc8a1f3c6685d81621933b3003");
  entry.ciphertext = FromHex(
      "dfa73969c27f283981a0555c5ffe5416d356b61f42df90a51363fe6a4eb669130043ed"
      "3517ca69dd4a0ca560583395b65123");
  update.entries.push_back(std::move(entry));
  update.documents.push_back(WireDocument{
      5, FromHex("ad1436462868c93e384e49cef01ddcbddb85d4e9b28a86680649f8ba1b89"
                 "1ec15577730074b0fe1b3d")});
  SSE_ASSERT_OK_RESULT(server.Handle(update.ToMessage()));

  net::InProcessChannel channel(&server);
  DeterministicRandom rng(1);
  auto client = Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->RestoreState(FromHex(
      "0120849b6971f8996a286a4d0f400ef3002fb5da8e64c33b92c270068aac6b77b48501"
      "000000" "0105")));
  auto outcome = (*client)->Search("kat");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{5});
  ASSERT_EQ(outcome->documents.size(), 1u);
  EXPECT_EQ(outcome->documents[0].first, 5u);
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "kat plaintext");
}

}  // namespace
}  // namespace sse::core
