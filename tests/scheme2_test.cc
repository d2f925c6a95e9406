#include "sse/core/scheme2_client.h"
#include "sse/core/scheme2_server.h"

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/core/scheme2_messages.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::FromHex;
using sse::testing::MakeTestSystem;
using sse::testing::TestMasterKey;

class Scheme2Test : public ::testing::Test {
 protected:
  explicit Scheme2Test(core::SystemConfig config)
      : config_(config),
        rng_(99),
        sys_(MakeTestSystem(SystemKind::kScheme2, &rng_, config)) {}
  Scheme2Test() : Scheme2Test(FastTestConfig()) {}

  Scheme2Client* client() {
    return static_cast<Scheme2Client*>(sys_.client.get());
  }
  Scheme2Server* server() {
    return static_cast<Scheme2Server*>(sys_.server.get());
  }

  core::SystemConfig config_;
  DeterministicRandom rng_;
  SseSystem sys_;
};

TEST_F(Scheme2Test, StoreAndSearchSingleDocument) {
  SSE_ASSERT_OK(sys_.client->Store(
      {Document::Make(0, "record body", {"asthma", "gp2"})}));
  auto outcome = sys_.client->Search("asthma");
  SSE_ASSERT_OK_RESULT(outcome);
  ASSERT_EQ(outcome->ids, std::vector<uint64_t>{0});
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "record body");
}

TEST_F(Scheme2Test, SearchIsOneRound) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  sys_.channel->ResetStats();
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw"));
  EXPECT_EQ(sys_.channel->stats().rounds, 1u);  // Table 1: one round
}

TEST_F(Scheme2Test, UpdateIsOneRound) {
  sys_.channel->ResetStats();
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"k1", "k2"})}));
  EXPECT_EQ(sys_.channel->stats().rounds, 1u);  // Fig. 3: one message + ack
}

TEST_F(Scheme2Test, SearchUnknownKeywordIsEmpty) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  auto outcome = sys_.client->Search("other");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());
}

TEST_F(Scheme2Test, SearchBeforeAnyStoreIsEmpty) {
  auto outcome = sys_.client->Search("anything");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());
}

TEST_F(Scheme2Test, MultipleUpdatesAccumulateSegments) {
  // Interleave searches so each update takes a fresh chain element.
  for (uint64_t i = 0; i < 5; ++i) {
    SSE_ASSERT_OK(sys_.client->Store({Document::Make(i, "d", {"kw"})}));
    auto outcome = sys_.client->Search("kw");
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids.size(), i + 1);
  }
  EXPECT_EQ(client()->counter(), 5u);
}

TEST_F(Scheme2Test, CounterReuseWithoutInterveningSearch) {
  // Optimization 2: consecutive updates share a chain element.
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(1, "b", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(2, "c", {"kw"})}));
  EXPECT_EQ(client()->counter(), 1u);  // one element spent, not three
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
  // Next update after the search must advance the counter.
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(3, "d", {"kw"})}));
  EXPECT_EQ(client()->counter(), 2u);
  auto again = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(again);
  EXPECT_EQ(again->ids.size(), 4u);
}

TEST_F(Scheme2Test, StaleKeywordSearchWalksChainForward) {
  // Update keyword A early, then advance the counter with other keywords;
  // searching A later must still work (server walks forward).
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"early"})}));
  for (uint64_t i = 1; i <= 6; ++i) {
    SSE_ASSERT_OK_RESULT(sys_.client->Search("early"));
    SSE_ASSERT_OK(sys_.client->Store(
        {Document::Make(i, "x", {"filler" + std::to_string(i)})}));
  }
  EXPECT_GT(client()->counter(), 3u);
  auto outcome = sys_.client->Search("early");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST_F(Scheme2Test, ChainExhaustionSurfacesCleanly) {
  core::SystemConfig tiny = FastTestConfig();
  tiny.scheme.chain_length = 3;
  DeterministicRandom rng(5);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme2, &rng, tiny);
  auto* cl = static_cast<Scheme2Client*>(sys.client.get());

  for (uint64_t i = 0; i < 3; ++i) {
    SSE_ASSERT_OK(sys.client->Store(
        {Document::Make(i, "d", {"kw" + std::to_string(i)})}));
    SSE_ASSERT_OK_RESULT(sys.client->Search("kw0"));
  }
  EXPECT_EQ(cl->remaining_updates(), 0u);
  Status s = sys.client->Store({Document::Make(10, "d", {"overflow"})});
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
}

TEST_F(Scheme2Test, ReinitializeRestoresCapacityAndData) {
  core::SystemConfig tiny = FastTestConfig();
  tiny.scheme.chain_length = 4;
  DeterministicRandom rng(6);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme2, &rng, tiny);
  auto* cl = static_cast<Scheme2Client*>(sys.client.get());

  for (uint64_t i = 0; i < 4; ++i) {
    SSE_ASSERT_OK(sys.client->Store(
        {Document::Make(i, "doc" + std::to_string(i), {"kw", "u" + std::to_string(i)})}));
    SSE_ASSERT_OK_RESULT(sys.client->Search("kw"));
  }
  ASSERT_EQ(sys.client->Store({Document::Make(99, "x", {"kw"})}).code(),
            StatusCode::kResourceExhausted);

  SSE_ASSERT_OK(cl->Reinitialize());
  EXPECT_EQ(cl->epoch(), 1u);
  EXPECT_GT(cl->remaining_updates(), 0u);

  // Old data is still searchable under the new epoch.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2, 3}));
  auto unique = sys.client->Search("u2");
  SSE_ASSERT_OK_RESULT(unique);
  EXPECT_EQ(unique->ids, std::vector<uint64_t>{2});

  // And new updates fit again.
  SSE_ASSERT_OK(sys.client->Store({Document::Make(99, "x", {"kw"})}));
  auto grown = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(grown);
  EXPECT_EQ(grown->ids.size(), 5u);
}

TEST_F(Scheme2Test, ServerCacheReducesDecryptionWork) {
  // With the Optimization 1 cache, a repeat search decrypts nothing new.
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw"));
  const uint64_t after_first = server()->total_segments_decrypted();
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw"));
  EXPECT_EQ(server()->total_segments_decrypted(), after_first);
}

TEST_F(Scheme2Test, CacheDisabledDecryptsEveryTime) {
  core::SystemConfig config = FastTestConfig();
  config.scheme.server_plaintext_cache = false;
  DeterministicRandom rng(7);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme2, &rng, config);
  auto* srv = static_cast<Scheme2Server*>(sys.server.get());

  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK_RESULT(sys.client->Search("kw"));
  const uint64_t after_first = srv->total_segments_decrypted();
  SSE_ASSERT_OK_RESULT(sys.client->Search("kw"));
  EXPECT_EQ(srv->total_segments_decrypted(), 2 * after_first);
  // Results stay correct either way.
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST_F(Scheme2Test, CounterAlwaysIncrementsWithoutOptimization2) {
  core::SystemConfig config = FastTestConfig();
  config.scheme.counter_after_search_only = false;
  DeterministicRandom rng(8);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme2, &rng, config);
  auto* cl = static_cast<Scheme2Client*>(sys.client.get());

  SSE_ASSERT_OK(sys.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "b", {"kw"})}));
  SSE_ASSERT_OK(sys.client->Store({Document::Make(2, "c", {"kw"})}));
  EXPECT_EQ(cl->counter(), 3u);  // every update spends an element
  auto outcome = sys.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
}

TEST_F(Scheme2Test, FakeUpdateAddsDecoySegments) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->FakeUpdate({"kw", "ghost"}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  auto ghost = sys_.client->Search("ghost");
  SSE_ASSERT_OK_RESULT(ghost);
  EXPECT_TRUE(ghost->ids.empty());
}

TEST_F(Scheme2Test, DuplicateIdRejected) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"x"})}));
  EXPECT_EQ(sys_.client->Store({Document::Make(0, "b", {"x"})}).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(Scheme2Test, TrapdoorDeterministicPerCounter) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"w"})}));
  auto t1 = client()->MakeTrapdoor("w");
  auto t2 = client()->MakeTrapdoor("w");
  SSE_ASSERT_OK_RESULT(t1);
  SSE_ASSERT_OK_RESULT(t2);
  EXPECT_EQ(t1->token, t2->token);
  EXPECT_EQ(t1->chain_element, t2->chain_element);
}

TEST_F(Scheme2Test, ServerStateSerializationRoundTrip) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "alpha", {"k1"}),
                                    Document::Make(1, "beta", {"k1", "k2"})}));
  SSE_ASSERT_OK_RESULT(sys_.client->Search("k1"));
  auto state = server()->SerializeState();
  SSE_ASSERT_OK_RESULT(state);

  Scheme2Server restored(FastTestConfig().scheme);
  SSE_ASSERT_OK(restored.RestoreState(*state));
  EXPECT_EQ(restored.unique_keywords(), 2u);
  EXPECT_EQ(restored.document_count(), 2u);

  // Important: the client state (counter) lives client-side. A fresh client
  // would be out of sync; reuse the existing one by pointing its channel at
  // the restored server — instead, simply verify the serialized bytes are
  // stable under a second round trip.
  auto state2 = restored.SerializeState();
  SSE_ASSERT_OK_RESULT(state2);
  EXPECT_EQ(*state, *state2);
}

TEST_F(Scheme2Test, MalformedMessagesRejected) {
  for (uint16_t type : {kMsgS2UpdateRequest, kMsgS2SearchRequest,
                        kMsgS2ReinitRequest}) {
    auto reply = sys_.channel->Call(net::Message{type, Bytes{0xde, 0xad}});
    EXPECT_FALSE(reply.ok()) << "type " << type;
  }
  EXPECT_FALSE(sys_.channel->Call(net::Message{0x02f0, {}}).ok());
}

TEST_F(Scheme2Test, TamperedSegmentFailsSearchLoudly) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  // Corrupt the stored segment through the persistence interface.
  auto state = server()->SerializeState();
  SSE_ASSERT_OK_RESULT(state);
  // Flip a byte near the end (inside the segment ciphertext/tag region).
  Bytes corrupted = *state;
  corrupted[corrupted.size() / 2] ^= 0x01;
  // Restoring may fail outright (structure damage) or succeed with a
  // corrupted segment; in the latter case the search must fail with a
  // crypto error, never return wrong ids silently.
  Scheme2Server victim(FastTestConfig().scheme);
  Status restore = victim.RestoreState(corrupted);
  if (restore.ok()) {
    net::InProcessChannel channel(&victim);
    DeterministicRandom rng(11);
    auto client = Scheme2Client::Create(TestMasterKey(),
                                        FastTestConfig().scheme, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    // Mirror the original client's counter so the trapdoor matches.
    SSE_ASSERT_OK((*client)->Store({Document::Make(50, "x", {"other"})}));
    auto outcome = (*client)->Search("kw");
    if (outcome.ok()) {
      EXPECT_TRUE(outcome->ids.empty() ||
                  outcome->ids == std::vector<uint64_t>{0});
    }
  }
}

TEST_F(Scheme2Test, ManyKeywordsPerDocument) {
  std::vector<std::string> keywords;
  for (int i = 0; i < 50; ++i) keywords.push_back("kw" + std::to_string(i));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "fat doc", keywords)}));
  EXPECT_EQ(server()->unique_keywords(), 50u);
  for (int i = 0; i < 50; i += 7) {
    auto outcome = sys_.client->Search("kw" + std::to_string(i));
    SSE_ASSERT_OK_RESULT(outcome);
    EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  }
}

// Known-answer vectors. Never regenerate them: they pin the chain
// elements, segment tags and ciphertexts earlier builds produced, so
// existing client state files, WALs and snapshots stay readable.

/// Tags of every segment the requests of type `type` in `transcript` carry.
template <typename Request>
std::vector<std::string> SegmentTags(const std::vector<net::Exchange>& transcript,
                                     uint16_t type) {
  std::vector<std::string> tags;
  for (const net::Exchange& exchange : transcript) {
    if (exchange.request.type != type) continue;
    Result<Request> req = Request::FromMessage(exchange.request);
    EXPECT_TRUE(req.ok());
    if (!req.ok()) continue;
    for (const S2UpdateEntry& e : req->entries) {
      tags.push_back(HexEncode(e.segment.tag));
    }
  }
  return tags;
}

TEST(Scheme2KnownAnswerTest, TrapdoorsTagsAndReinitialize) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  net::InProcessChannel::Options record;
  record.record_transcript = true;
  net::InProcessChannel channel(&server, record);
  DeterministicRandom rng(7);
  auto created =
      Scheme2Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(created);
  Scheme2Client& client = **created;

  SSE_ASSERT_OK(client.Store({Document::Make(0, "doc zero", {"alpha", "beta"}),
                              Document::Make(1, "doc one", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("alpha"));
  SSE_ASSERT_OK(client.Store({Document::Make(2, "doc two", {"beta", "gamma"})}));
  SSE_ASSERT_OK(client.Store({Document::Make(3, "doc three", {"alpha"})}));
  SSE_ASSERT_OK_RESULT(client.Search("beta"));
  SSE_ASSERT_OK(client.FakeUpdate({"gamma", "delta", "gamma"}));
  EXPECT_EQ(client.counter(), 3u);

  struct TrapdoorVector {
    const char* keyword;
    const char* token;
    const char* element;
  };
  const TrapdoorVector trapdoors[] = {
      {"alpha",
       "c2f6b40b38c7fed7ec622d13d7c9bd6ae5a00f52aff63f33bf16eb3ba1d518e3",
       "3216c1e975a2a3a76083bcc59259d2b6932c12992a9e3f004635b2945f99b45f"},
      {"delta",
       "6a157f403b909b1a9ec6c0de2e08e762d49935f36ae4a95e73f520eab734f513",
       "d1d2e4c8bed378e6845ee7baa76bf39d9ad9f3a0a21253c5b6f6d3e3e583f4f6"},
      {"omega",
       "1c93154cbcf9f8d017eb3a6e3b87c26b473a3d36fe796e89ea336f4c87e8b510",
       "c9e67c923b97a4c376adcc728cb14d13d8df3aeee08d784297c62286a27c6a26"},
  };
  for (const TrapdoorVector& v : trapdoors) {
    auto trapdoor = client.MakeTrapdoor(v.keyword);
    SSE_ASSERT_OK_RESULT(trapdoor);
    EXPECT_EQ(HexEncode(trapdoor->token), v.token) << v.keyword;
    EXPECT_EQ(HexEncode(trapdoor->chain_element), v.element) << v.keyword;
  }

  // alpha@1, beta@1 | beta@2, gamma@2 | alpha@2 | delta@3, gamma@3.
  EXPECT_EQ(
      SegmentTags<S2UpdateRequest>(channel.transcript(), kMsgS2UpdateRequest),
      (std::vector<std::string>{
          "edd5b851a89cca8103d346f47e61b18dc4d387e48965cf3ad4e73b53204c19d1",
          "98e3117056ed5618726040c0e4953ec0a62931af7c254cfe6f7e3408f02b2584",
          "c5cbab33acf6328849c3510d00e704d1c9fe1247bdf23352733d94ea89189117",
          "a9afdfb32d027518f90f0c809fca67ae9c097f4a29afcb3c2962677b4fd86618",
          "f59a17fb01637b3a151ef112a7c905d254bf4ddceae48f7f4aca17574c0fe92b",
          "91b91c0596af5e32e7d4b3c475452e8460d27ed3d0cc724e07e06c428c399d93",
          "c2ed80b598f0b5849553368753c094a03e023b3c837ca9a48fc2d0a84efe769b",
      }));

  // Reinitialize walks and opens every segment client-side, then seals one
  // fresh segment per keyword at epoch 1, counter 1.
  channel.ClearTranscript();
  SSE_ASSERT_OK(client.Reinitialize());
  EXPECT_EQ(
      SegmentTags<S2ReinitRequest>(channel.transcript(), kMsgS2ReinitRequest),
      (std::vector<std::string>{
          "09928ed94b94762b72574249bb1226a29dae4b45476325ada754cd744a5bd881",
          "e0e55a0774f0610e922062343b6022306b47cf4dc8a66a6e98720f0f53e89a17",
          "ad675074a2d68e4577b7ddc6c6a3fffd0e53328b11032fc7ffa5102db239d06e",
          "cab82176c164a92eed710243b47078abe16113aba0c1fbe76a86927af33e71ab",
      }));
  auto trapdoor = client.MakeTrapdoor("alpha");
  SSE_ASSERT_OK_RESULT(trapdoor);
  EXPECT_EQ(HexEncode(trapdoor->chain_element),
            "00027d903e1b5ae7ddda3d082e3d1ef59010acfb0972c2933d888dbb93c927da");
  auto outcome = client.Search("alpha");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 3}));
}

TEST(Scheme2KnownAnswerTest, EarlierCiphertextsStillOpen) {
  // A segment and a data item an earlier build sealed for document 5 under
  // keyword "kat" at counter 1: the server must still walk to and open the
  // segment, and the client must still open the data item.
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  S2UpdateRequest update;
  S2UpdateEntry entry;
  entry.token = FromHex(
      "8fdc375c50c6909f188a53530dc3f78ad8bff0ffaa74839a2d595a53f850cfe7");
  entry.segment.ciphertext = FromHex(
      "dfa73969c27f283981a0555c5ffe5416b281a20915bb454d153813655cadbaacfc59ee"
      "149024553ccb24bd8c9cef197e040a");
  entry.segment.tag = FromHex(
      "1f5ee004db3c8c12ea3058943c33cc47aba1f6ceef1dda1e550c759997e96b87");
  update.entries.push_back(std::move(entry));
  update.documents.push_back(WireDocument{
      5, FromHex("ad1436462868c93e384e49cef01ddcbddb85d4e9b28a86680649f8ba1b89"
                 "1ec15577730074b0fe1b3d")});
  SSE_ASSERT_OK_RESULT(server.Handle(update.ToMessage()));

  // A fresh client's trapdoor carries the counter-1 element.
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(1);
  auto client = Scheme2Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("kat");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{5});
  ASSERT_EQ(outcome->documents.size(), 1u);
  EXPECT_EQ(outcome->documents[0].first, 5u);
  EXPECT_EQ(BytesToString(outcome->documents[0].second), "kat plaintext");
}

}  // namespace
}  // namespace sse::core
