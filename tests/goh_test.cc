#include "sse/baselines/goh_zidx.h"

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/net/wire.h"
#include "test_util.h"

namespace sse::baselines {
namespace {

using core::Document;
using core::SystemKind;
using sse::testing::FastTestConfig;
using sse::testing::MakeTestSystem;

class GohTest : public ::testing::Test {
 protected:
  GohTest() : rng_(66), sys_(MakeTestSystem(SystemKind::kGohZidx, &rng_)) {}
  GohServer* server() { return static_cast<GohServer*>(sys_.server.get()); }

  DeterministicRandom rng_;
  core::SseSystem sys_;
};

TEST_F(GohTest, EverySearchProbesAllFilters) {
  std::vector<Document> docs;
  for (uint64_t i = 0; i < 25; ++i) {
    docs.push_back(Document::Make(i, "d", {"kw" + std::to_string(i % 5)}));
  }
  SSE_ASSERT_OK(sys_.client->Store(docs));
  const uint64_t before = server()->filters_probed();
  SSE_ASSERT_OK_RESULT(sys_.client->Search("kw0"));
  EXPECT_EQ(server()->filters_probed() - before, 25u);  // O(n) scan
}

TEST_F(GohTest, TrapdoorSubkeysAreKeywordSpecific) {
  auto* client = static_cast<GohClient*>(sys_.client.get());
  auto t1 = client->MakeTrapdoor("alpha");
  auto t2 = client->MakeTrapdoor("alpha");
  auto t3 = client->MakeTrapdoor("beta");
  SSE_ASSERT_OK_RESULT(t1);
  SSE_ASSERT_OK_RESULT(t2);
  SSE_ASSERT_OK_RESULT(t3);
  EXPECT_EQ(*t1, *t2);
  EXPECT_NE(*t1, *t3);
  EXPECT_EQ(t1->size(), FastTestConfig().goh.num_keys);
}

TEST_F(GohTest, FalsePositiveRateBounded) {
  // Fill filters close to design load, then measure false positives over
  // many non-member keywords: the scheme's inherent inaccuracy must stay
  // small at these parameters.
  std::vector<Document> docs;
  for (uint64_t i = 0; i < 40; ++i) {
    std::vector<std::string> kws;
    for (int k = 0; k < 10; ++k) {
      kws.push_back("doc" + std::to_string(i) + "kw" + std::to_string(k));
    }
    docs.push_back(Document::Make(i, "d", kws));
  }
  SSE_ASSERT_OK(sys_.client->Store(docs));
  uint64_t false_hits = 0;
  const int probes = 200;
  for (int i = 0; i < probes; ++i) {
    auto outcome = sys_.client->Search("absent" + std::to_string(i));
    SSE_ASSERT_OK_RESULT(outcome);
    false_hits += outcome->ids.size();
  }
  // 80 inserted bits in 2048 -> per-filter fp ~ (0.038)^8 ~ 4e-12.
  EXPECT_EQ(false_hits, 0u);
}

TEST_F(GohTest, WrongTrapdoorSizeRejected) {
  BufferWriter w;
  // Only 1 subkey; the server expects 8.
  net::wire::Put(w, std::vector<Bytes>{Bytes(32, 1)});
  auto reply = sys_.channel->Call(net::Message{kMsgGohSearch, w.TakeData()});
  EXPECT_FALSE(reply.ok());
}

TEST_F(GohTest, FilterSizeValidatedOnStore) {
  // A store is applied whole or not at all: the well-formed first document
  // is not kept when the second one's filter is refused.
  BufferWriter w;
  w.PutVarint(2);
  w.PutVarint(1);
  w.PutBytes(Bytes{1});
  w.PutBytes(Bytes(256, 0));  // 2048 bits
  w.PutVarint(0);          // id
  w.PutBytes(Bytes{1});    // ciphertext
  w.PutBytes(Bytes(10, 0));  // wrong filter size (needs 2048 bits = 256B)
  auto reply = sys_.channel->Call(net::Message{kMsgGohStore, w.TakeData()});
  EXPECT_FALSE(reply.ok());
  EXPECT_EQ(server()->document_count(), 0u);
}

TEST_F(GohTest, StateSerializationRoundTrip) {
  SSE_ASSERT_OK(sys_.client->Store({Document::Make(0, "a", {"x"})}));
  auto state = server()->SerializeState();
  SSE_ASSERT_OK_RESULT(state);
  GohServer restored(FastTestConfig().goh);
  SSE_ASSERT_OK(restored.RestoreState(*state));
  EXPECT_EQ(restored.document_count(), 1u);
}

TEST_F(GohTest, InvalidParametersRejected) {
  DeterministicRandom rng(1);
  net::InProcessChannel channel(nullptr);
  GohOptions bad;
  bad.num_keys = 0;
  EXPECT_FALSE(GohClient::Create(sse::testing::TestMasterKey(), bad, &channel,
                                 &rng)
                   .ok());
}

}  // namespace
}  // namespace sse::baselines
