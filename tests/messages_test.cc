// Exhaustive round-trip and adversarial-decode tests for every protocol
// message of both schemes, and Scheme 3's engine-internal probe request.

#include <gtest/gtest.h>

#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "sse/util/random.h"
#include "sse/util/serde.h"

namespace sse::core {
namespace {

Bytes B(std::initializer_list<uint8_t> bytes) { return Bytes(bytes); }

TEST(Scheme1MessagesTest, NonceRequestRoundTrip) {
  S1NonceRequest msg;
  msg.tokens = {Bytes(32, 1), Bytes(32, 2), Bytes{}};
  auto decoded = S1NonceRequest::FromMessage(msg.ToMessage());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tokens, msg.tokens);
}

TEST(Scheme1MessagesTest, NonceReplyRoundTrip) {
  S1NonceReply msg;
  msg.entries.push_back({true, B({9, 9, 9})});
  msg.entries.push_back({false, Bytes{}});
  auto decoded = S1NonceReply::FromMessage(msg.ToMessage());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 2u);
  EXPECT_TRUE(decoded->entries[0].present);
  EXPECT_EQ(decoded->entries[0].enc_nonce, B({9, 9, 9}));
  EXPECT_FALSE(decoded->entries[1].present);
}

TEST(Scheme1MessagesTest, UpdateRequestRoundTrip) {
  S1UpdateRequest msg;
  S1UpdateEntry entry;
  entry.token = Bytes(32, 3);
  entry.masked_delta = Bytes(64, 0xaa);
  entry.new_enc_nonce = Bytes(100, 0xbb);
  entry.is_new = true;
  msg.entries.push_back(entry);
  msg.documents.push_back(WireDocument{42, B({1, 2, 3})});
  auto decoded = S1UpdateRequest::FromMessage(msg.ToMessage());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->entries.size(), 1u);
  EXPECT_EQ(decoded->entries[0].token, entry.token);
  EXPECT_EQ(decoded->entries[0].masked_delta, entry.masked_delta);
  EXPECT_TRUE(decoded->entries[0].is_new);
  ASSERT_EQ(decoded->documents.size(), 1u);
  EXPECT_EQ(decoded->documents[0].id, 42u);
}

TEST(Scheme1MessagesTest, SearchMessagesRoundTrip) {
  S1SearchRequest req;
  req.token = Bytes(32, 4);
  EXPECT_EQ(S1SearchRequest::FromMessage(req.ToMessage())->token, req.token);

  S1SearchNonceReply nr;
  nr.found = true;
  nr.enc_nonce = B({7});
  auto nr2 = S1SearchNonceReply::FromMessage(nr.ToMessage());
  ASSERT_TRUE(nr2.ok());
  EXPECT_TRUE(nr2->found);

  S1SearchFinish fin;
  fin.token = Bytes(32, 5);
  fin.nonce = Bytes(32, 6);
  auto fin2 = S1SearchFinish::FromMessage(fin.ToMessage());
  ASSERT_TRUE(fin2.ok());
  EXPECT_EQ(fin2->nonce, fin.nonce);

  S1SearchResult res;
  res.ids = {1, 5, 9};
  res.documents.push_back(WireDocument{5, B({0xff})});
  auto res2 = S1SearchResult::FromMessage(res.ToMessage());
  ASSERT_TRUE(res2.ok());
  EXPECT_EQ(res2->ids, res.ids);
  EXPECT_EQ(res2->documents[0].ciphertext, B({0xff}));
}

TEST(Scheme1MessagesTest, WrongTypeRejected) {
  S1SearchRequest req;
  req.token = Bytes(32, 1);
  net::Message msg = req.ToMessage();
  msg.type = kMsgS1NonceRequest;  // lie about the type
  EXPECT_FALSE(S1SearchRequest::FromMessage(msg).ok());
}

TEST(Scheme2MessagesTest, UpdateRoundTrip) {
  S2UpdateRequest msg;
  S2UpdateEntry entry;
  entry.token = Bytes(32, 1);
  entry.segment.ciphertext = Bytes(80, 2);
  entry.segment.tag = Bytes(32, 3);
  msg.entries.push_back(entry);
  msg.documents.push_back(WireDocument{7, B({1})});
  auto decoded = S2UpdateRequest::FromMessage(msg.ToMessage());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->entries[0].segment.tag, entry.segment.tag);
  EXPECT_EQ(decoded->documents[0].id, 7u);
}

TEST(Scheme2MessagesTest, SearchRoundTrip) {
  S2SearchRequest req;
  req.token = Bytes(32, 4);
  req.chain_element = Bytes(32, 5);
  auto req2 = S2SearchRequest::FromMessage(req.ToMessage());
  ASSERT_TRUE(req2.ok());
  EXPECT_EQ(req2->chain_element, req.chain_element);

  S2SearchResult res;
  res.found = true;
  res.ids = {2, 4};
  res.chain_steps = 17;
  res.segments_decrypted = 3;
  auto res2 = S2SearchResult::FromMessage(res.ToMessage());
  ASSERT_TRUE(res2.ok());
  EXPECT_TRUE(res2->found);
  EXPECT_EQ(res2->chain_steps, 17u);
  EXPECT_EQ(res2->segments_decrypted, 3u);
}

TEST(Scheme2MessagesTest, FetchAllAndReinitRoundTrip) {
  auto fa = S2FetchAllRequest::FromMessage(S2FetchAllRequest{}.ToMessage());
  EXPECT_TRUE(fa.ok());

  S2FetchAllReply reply;
  S2KeywordDump dump;
  dump.token = Bytes(32, 6);
  dump.segments.push_back({Bytes(40, 7), Bytes(32, 8)});
  dump.segments.push_back({Bytes(50, 9), Bytes(32, 10)});
  reply.keywords.push_back(dump);
  auto reply2 = S2FetchAllReply::FromMessage(reply.ToMessage());
  ASSERT_TRUE(reply2.ok());
  ASSERT_EQ(reply2->keywords.size(), 1u);
  EXPECT_EQ(reply2->keywords[0].segments.size(), 2u);
  EXPECT_EQ(reply2->keywords[0].segments[1].tag, Bytes(32, 10));

  S2ReinitRequest reinit;
  S2UpdateEntry entry;
  entry.token = Bytes(32, 11);
  entry.segment = {Bytes(20, 12), Bytes(32, 13)};
  reinit.entries.push_back(entry);
  auto reinit2 = S2ReinitRequest::FromMessage(reinit.ToMessage());
  ASSERT_TRUE(reinit2.ok());
  EXPECT_EQ(reinit2->entries[0].token, Bytes(32, 11));

  S2ReinitAck ack;
  ack.keywords = 12;
  EXPECT_EQ(S2ReinitAck::FromMessage(ack.ToMessage())->keywords, 12u);
}

TEST(Scheme2MessagesTest, FetchAllRejectsPayload) {
  net::Message msg{kMsgS2FetchAllRequest, B({1})};
  EXPECT_FALSE(S2FetchAllRequest::FromMessage(msg).ok());
}

S3ProbeRequest TwoProbes() {
  S3ProbeRequest req;
  req.probes.resize(2);
  for (size_t i = 0; i < req.probes.size(); ++i) {
    req.probes[i].address.fill(static_cast<uint8_t>(0x10 + i));
    req.probes[i].key.fill(static_cast<uint8_t>(0x20 + i));
  }
  return req;
}

TEST(Scheme3MessagesTest, ProbeRequestRoundTrip) {
  const S3ProbeRequest req = TwoProbes();
  const net::Message msg = req.ToMessage();
  EXPECT_EQ(msg.type, kMsgS3ProbeRequest);
  EXPECT_EQ(msg.payload.size(), 1u + 2 * 64);  // count, fixed records
  auto decoded = S3ProbeRequest::FromMessage(msg);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->probes.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(decoded->probes[i].address, req.probes[i].address);
    EXPECT_EQ(decoded->probes[i].key, req.probes[i].key);
  }
  EXPECT_TRUE(S3ProbeRequest::FromMessage(S3ProbeRequest{}.ToMessage()).ok());
}

TEST(Scheme3MessagesTest, ProbeRequestRejectsCountBeyondPayload) {
  // A count the payload cannot hold is refused before anything is sized
  // by it.
  for (uint64_t count : {uint64_t{3}, uint64_t{1} << 40, ~uint64_t{0}}) {
    BufferWriter w;
    w.PutVarint(count);
    w.PutRaw(Bytes(2 * 64, 0x5a));
    const net::Message msg{kMsgS3ProbeRequest, w.TakeData()};
    EXPECT_FALSE(S3ProbeRequest::FromMessage(msg).ok()) << count;
  }
}

TEST(Scheme3MessagesTest, ProbeRequestRejectsTruncatedRecord) {
  const net::Message full = TwoProbes().ToMessage();
  for (size_t keep = 0; keep < full.payload.size(); ++keep) {
    net::Message truncated{
        full.type, Bytes(full.payload.begin(), full.payload.begin() + keep)};
    EXPECT_FALSE(S3ProbeRequest::FromMessage(truncated).ok())
        << "prefix " << keep;
  }
  net::Message trailing = full;
  trailing.payload.push_back(0);
  EXPECT_FALSE(S3ProbeRequest::FromMessage(trailing).ok());
}

TEST(MessagesFuzzTest, RandomPayloadsNeverCrashDecoders) {
  DeterministicRandom rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes payload(rng.Next() % 200);
    ASSERT_TRUE(rng.Fill(payload).ok());
    // Feed the same garbage to every decoder under its own type tag.
    (void)S1NonceRequest::FromMessage({kMsgS1NonceRequest, payload});
    (void)S1NonceReply::FromMessage({kMsgS1NonceReply, payload});
    (void)S1UpdateRequest::FromMessage({kMsgS1UpdateRequest, payload});
    (void)S1UpdateAck::FromMessage({kMsgS1UpdateAck, payload});
    (void)S1SearchRequest::FromMessage({kMsgS1SearchRequest, payload});
    (void)S1SearchNonceReply::FromMessage({kMsgS1SearchNonceReply, payload});
    (void)S1SearchFinish::FromMessage({kMsgS1SearchFinish, payload});
    (void)S1SearchResult::FromMessage({kMsgS1SearchResult, payload});
    (void)S2UpdateRequest::FromMessage({kMsgS2UpdateRequest, payload});
    (void)S2UpdateAck::FromMessage({kMsgS2UpdateAck, payload});
    (void)S2SearchRequest::FromMessage({kMsgS2SearchRequest, payload});
    (void)S2SearchResult::FromMessage({kMsgS2SearchResult, payload});
    (void)S2FetchAllReply::FromMessage({kMsgS2FetchAllReply, payload});
    (void)S2ReinitRequest::FromMessage({kMsgS2ReinitRequest, payload});
    (void)S3ProbeRequest::FromMessage({kMsgS3ProbeRequest, payload});
  }
  SUCCEED();
}

TEST(MessagesFuzzTest, TruncationsOfValidMessagesRejected) {
  S2UpdateRequest msg;
  S2UpdateEntry entry;
  entry.token = Bytes(32, 1);
  entry.segment = {Bytes(60, 2), Bytes(32, 3)};
  msg.entries.push_back(entry);
  msg.documents.push_back(WireDocument{1, Bytes(20, 4)});
  const net::Message full = msg.ToMessage();
  for (size_t keep = 0; keep < full.payload.size(); ++keep) {
    net::Message truncated{
        full.type, Bytes(full.payload.begin(), full.payload.begin() + keep)};
    EXPECT_FALSE(S2UpdateRequest::FromMessage(truncated).ok())
        << "prefix " << keep;
  }
}

}  // namespace
}  // namespace sse::core
