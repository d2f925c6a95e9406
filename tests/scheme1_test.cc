#include "sse/core/scheme1_client.h"
#include "sse/core/scheme1_server.h"

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::MakeTestSystem;

class Scheme1Test : public ::testing::Test {
 protected:
  Scheme1Test()
      : rng_(1234), sys_(MakeTestSystem(SystemKind::kScheme1, &rng_)) {}

  Scheme1Client* client() {
    return static_cast<Scheme1Client*>(sys_.client.get());
  }
  Scheme1Server* server() {
    return static_cast<Scheme1Server*>(sys_.server.get());
  }

  DeterministicRandom rng_;
  SseSystem sys_;
};

TEST_F(Scheme1Test, StoreAndSearchSingleDocument) {
  Document doc = Document::Make(0, "medical record body", {"diabetes", "gp1"});
  SSE_ASSERT_OK(sys_.client->Store({doc}));
  auto outcome = sys_.client->Search("diabetes");
  SSE_ASSERT_OK_RESULT(outcome);
  ASSERT_EQ(outcome->ids, std::vector<uint64_t>{0});
  ASSERT_EQ(outcome->documents.size(), 1u);
  EXPECT_EQ(BytesToString(outcome->documents[0].second),
            "medical record body");
}

TEST_F(Scheme1Test, SearchUnknownKeywordIsEmpty) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "x", {"a"})}));
  auto outcome = sys_.client->Search("never-stored");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_TRUE(outcome->ids.empty());
  EXPECT_TRUE(outcome->documents.empty());
}

TEST_F(Scheme1Test, MultiDocumentPostings) {
  std::vector<Document> docs;
  for (uint64_t i = 0; i < 20; ++i) {
    std::vector<std::string> kws = {"common"};
    if (i % 2 == 0) kws.push_back("even");
    if (i % 5 == 0) kws.push_back("fifth");
    docs.push_back(Document::Make(i, "doc" + std::to_string(i), kws));
  }
  SSE_ASSERT_OK(sys_.client->Store(docs));

  auto common = sys_.client->Search("common");
  SSE_ASSERT_OK_RESULT(common);
  EXPECT_EQ(common->ids.size(), 20u);

  auto even = sys_.client->Search("even");
  SSE_ASSERT_OK_RESULT(even);
  EXPECT_EQ(even->ids, (std::vector<uint64_t>{0, 2, 4, 6, 8, 10, 12, 14, 16, 18}));

  auto fifth = sys_.client->Search("fifth");
  SSE_ASSERT_OK_RESULT(fifth);
  EXPECT_EQ(fifth->ids, (std::vector<uint64_t>{0, 5, 10, 15}));
}

TEST_F(Scheme1Test, IncrementalUpdatesExtendPostings) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"flu"})}));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(1, "b", {"flu"})}));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(2, "c", {"flu", "new"})}));
  auto outcome = sys_.client->Search("flu");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
  auto fresh = sys_.client->Search("new");
  SSE_ASSERT_OK_RESULT(fresh);
  EXPECT_EQ(fresh->ids, std::vector<uint64_t>{2});
}

TEST_F(Scheme1Test, UpdateAfterSearchStillCorrect) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw"));
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(1, "b", {"kw"})}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
}

TEST_F(Scheme1Test, SearchTakesExactlyTwoRounds) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  sys_.channel->ResetStats();
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw"));
  EXPECT_EQ(sys_.channel->stats().rounds, 2u);  // Table 1: two rounds
}

TEST_F(Scheme1Test, MissSearchTakesOneRound) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  sys_.channel->ResetStats();
  SSE_ASSERT_OK_RESULT(sys_.client->Search("absent"));
  EXPECT_EQ(sys_.channel->stats().rounds, 1u);
}

TEST_F(Scheme1Test, UpdateTakesTwoRounds) {
  sys_.channel->ResetStats();
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"k1", "k2"})}));
  EXPECT_EQ(sys_.channel->stats().rounds, 2u);  // Fig. 1: fetch F(r), apply
}

TEST_F(Scheme1Test, DuplicateIdRejectedBeforeNetwork) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(3, "a", {"x"})}));
  sys_.channel->ResetStats();
  Status s = sys_.client->Store({Document::Make(3, "b", {"x"})});
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(sys_.channel->stats().rounds, 0u);
}

TEST_F(Scheme1Test, IdBeyondCapacityRejected) {
  Status s = sys_.client->Store(
      {Document::Make(FastTestConfig().scheme.max_documents, "a", {"x"})});
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST_F(Scheme1Test, EmptyStoreIsNoOp) {
  sys_.channel->ResetStats();
  SSE_ASSERT_OK(sys_.client->Store({}));
  EXPECT_EQ(sys_.channel->stats().rounds, 0u);
}

TEST_F(Scheme1Test, RemoveDocumentTogglesPosting) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"}),
                                    Document::Make(1, "b", {"kw"})}));
  SSE_ASSERT_OK(client()->RemoveDocument(0, {"kw"}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{1});
  // Unknown id rejected.
  EXPECT_EQ(client()->RemoveDocument(17, {"kw"}).code(),
            StatusCode::kNotFound);
}

TEST_F(Scheme1Test, FakeUpdateKeepsResultsIdentical) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->FakeUpdate({"kw", "decoy1", "decoy2"}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
  // A decoy keyword now exists but matches nothing.
  auto decoy = sys_.client->Search("decoy1");
  SSE_ASSERT_OK_RESULT(decoy);
  EXPECT_TRUE(decoy->ids.empty());
}

TEST_F(Scheme1Test, FakeUpdateRerandomizesServerState) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  Bytes before;
  {
    auto state = server()->SerializeState();
    SSE_ASSERT_OK_RESULT(state);
    before = *state;
  }
  SSE_ASSERT_OK(sys_.client->FakeUpdate({"kw"}));
  auto after = server()->SerializeState();
  SSE_ASSERT_OK_RESULT(after);
  EXPECT_NE(before, *after);  // new mask + new F(r')
}

TEST_F(Scheme1Test, DuplicateKeywordsInFakeUpdateAreHarmless) {
  // Regression: two entries for one keyword inside a single protocol run
  // would both derive from the same stale nonce and corrupt the mask.
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"})}));
  SSE_ASSERT_OK(sys_.client->FakeUpdate({"kw", "kw", "kw"}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{0});
}

TEST_F(Scheme1Test, DuplicateKeywordsInRemoveAreHarmless) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"kw"}),
                                    Document::Make(1, "b", {"kw"})}));
  SSE_ASSERT_OK(client()->RemoveDocument(0, {"kw", "kw"}));
  auto outcome = sys_.client->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{1});  // removed exactly once
}

TEST_F(Scheme1Test, TrapdoorIsDeterministic) {
  auto t1 = client()->Trapdoor("word");
  auto t2 = client()->Trapdoor("word");
  auto t3 = client()->Trapdoor("other");
  SSE_ASSERT_OK_RESULT(t1);
  SSE_ASSERT_OK_RESULT(t2);
  SSE_ASSERT_OK_RESULT(t3);
  EXPECT_EQ(*t1, *t2);
  EXPECT_NE(*t1, *t3);
}

TEST_F(Scheme1Test, ServerCountsUniqueKeywords) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"k1", "k2"}),
                                    Document::Make(1, "b", {"k2", "k3"})}));
  EXPECT_EQ(server()->unique_keywords(), 3u);
  EXPECT_EQ(server()->document_count(), 2u);
}

TEST_F(Scheme1Test, ServerStateSerializationRoundTrip) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "alpha", {"k1"}),
                                    Document::Make(1, "beta", {"k1", "k2"})}));
  auto state = server()->SerializeState();
  SSE_ASSERT_OK_RESULT(state);

  Scheme1Server restored(FastTestConfig().scheme);
  SSE_ASSERT_OK(restored.RestoreState(*state));
  EXPECT_EQ(restored.unique_keywords(), 2u);
  EXPECT_EQ(restored.document_count(), 2u);

  // A fresh client (same master key) can search the restored server.
  net::InProcessChannel channel(&restored);
  DeterministicRandom rng(77);
  auto client = Scheme1Client::Create(sse::testing::TestMasterKey(),
                                      FastTestConfig().scheme, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  auto outcome = (*client)->Search("k1");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
}

TEST_F(Scheme1Test, MalformedMessagesRejected) {
  // Raw garbage of each scheme-1 type must produce clean protocol errors.
  for (uint16_t type :
       {kMsgS1NonceRequest, kMsgS1UpdateRequest, kMsgS1SearchRequest,
        kMsgS1SearchFinish}) {
    auto reply = sys_.channel->Call(net::Message{type, Bytes{0xff, 0xff}});
    EXPECT_FALSE(reply.ok()) << "type " << type;
  }
  // Unknown type rejected too.
  EXPECT_FALSE(sys_.channel->Call(net::Message{0x0199, {}}).ok());
}

TEST_F(Scheme1Test, UpdateForUnknownTokenRejected) {
  S1UpdateRequest req;
  S1UpdateEntry entry;
  entry.token = Bytes(32, 1);
  entry.masked_delta = Bytes((FastTestConfig().scheme.max_documents + 7) / 8, 0);
  entry.new_enc_nonce = Bytes(10, 0);
  entry.is_new = false;  // claims to update an existing token
  req.entries.push_back(entry);
  auto reply = sys_.channel->Call(req.ToMessage());
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kProtocolError);
}

TEST_F(Scheme1Test, WrongSizeBitmapRejected) {
  S1UpdateRequest req;
  S1UpdateEntry entry;
  entry.token = Bytes(32, 1);
  entry.masked_delta = Bytes(3, 0);  // wrong size
  entry.new_enc_nonce = Bytes(10, 0);
  entry.is_new = true;
  req.entries.push_back(entry);
  auto reply = sys_.channel->Call(req.ToMessage());
  EXPECT_FALSE(reply.ok());
}

// A refused update changes nothing: DurableServer journals only the
// updates that succeed, so a partly applied one would be lost on restart.
S1UpdateEntry TestEntry(uint8_t token, size_t delta_bytes, bool is_new) {
  S1UpdateEntry entry;
  entry.token = Bytes(32, token);
  entry.masked_delta = Bytes(delta_bytes, 0x5a);
  entry.new_enc_nonce = Bytes(10, token);
  entry.is_new = is_new;
  return entry;
}

const size_t kBitmapBytes = (FastTestConfig().scheme.max_documents + 7) / 8;

/// Sends `req`, which the server must refuse, and checks that its state
/// did not change.
void ExpectRefusedUnchanged(SseSystem& sys, const S1UpdateRequest& req) {
  const Result<Bytes> before = sys.server->SerializeState();
  SSE_ASSERT_OK_RESULT(before);
  auto reply = sys.channel->Call(req.ToMessage());
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kProtocolError);
  EXPECT_EQ(sys.server->SerializeState().value(), *before);
}

class Scheme1WholeUpdateTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Scheme1WholeUpdateTest, ShortDeltaInLaterEntryAppliesNothing) {
  SystemConfig config = FastTestConfig();
  config.engine_shards = GetParam();
  DeterministicRandom rng(55);
  SseSystem sys = MakeTestSystem(SystemKind::kScheme1, &rng, config);
  SSE_ASSERT_OK(sys.client->Store({Document::Make(1, "one", {"kept"})}));
  S1UpdateRequest req;
  req.entries = {TestEntry(1, kBitmapBytes, true),
                 TestEntry(2, kBitmapBytes, true),
                 TestEntry(3, kBitmapBytes - 1, true)};
  req.documents = {WireDocument{7, Bytes{1, 2, 3}}};
  ExpectRefusedUnchanged(sys, req);
}

INSTANTIATE_TEST_SUITE_P(ClassicAndEngine, Scheme1WholeUpdateTest,
                         ::testing::Values(size_t{0}, size_t{4}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 0 ? std::string("Classic")
                                                  : std::string("Engine4");
                         });

// On the classic server only: an engine routes the entries to their
// tokens' shards, and a shard that accepts its part keeps it.
TEST_F(Scheme1Test, WrongIsNewInLaterEntryAppliesNothing) {
  SSE_ASSERT_OK(client()->Store({Document::Make(1, "one", {"kept"})}));
  S1UpdateRequest req;
  req.entries = {TestEntry(1, kBitmapBytes, true),
                 TestEntry(2, kBitmapBytes, /*is_new=*/false)};
  ExpectRefusedUnchanged(sys_, req);
  // A token an earlier entry of the same update adds counts as present.
  req.entries = {TestEntry(1, kBitmapBytes, true),
                 TestEntry(1, kBitmapBytes, true)};
  ExpectRefusedUnchanged(sys_, req);
  req.entries = {TestEntry(1, kBitmapBytes, true),
                 TestEntry(1, kBitmapBytes, /*is_new=*/false)};
  SSE_ASSERT_OK_RESULT(sys_.channel->Call(req.ToMessage()));
  EXPECT_EQ(server()->unique_keywords(), 2u);
}

TEST_F(Scheme1Test, LargeBatchRoundTrip) {
  std::vector<Document> docs;
  for (uint64_t i = 0; i < 200; ++i) {
    docs.push_back(Document::Make(
        i, std::string(50, static_cast<char>('a' + i % 26)),
        {"shared", "kw" + std::to_string(i % 10)}));
  }
  SSE_ASSERT_OK(sys_.client->Store(docs));
  auto outcome = sys_.client->Search("kw3");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids.size(), 20u);
  auto shared = sys_.client->Search("shared");
  SSE_ASSERT_OK_RESULT(shared);
  EXPECT_EQ(shared->ids.size(), 200u);
}

}  // namespace
}  // namespace sse::core
