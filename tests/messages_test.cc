// Exhaustive round-trip and adversarial-decode tests for every protocol
// message of Schemes 1-3 (Scheme 3's engine-internal probe request
// included), replication and the batch envelope, plus golden encodings
// that pin each type's bytes on the wire.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <type_traits>

#include "sse/baselines/goh_zidx.h"
#include "sse/baselines/search_reply.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "sse/net/batch.h"
#include "sse/repl/messages.h"
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

// Golden encodings: one populated instance of every message type, as
// "type:payload" hex. The strings were captured from the hand-written
// codecs each message had before they were declared once in sse/net/wire.h,
// so a layout change on the wire, in the WAL or in snapshots fails here.

std::string GoldenHex(const net::Message& msg) {
  char type[8];
  std::snprintf(type, sizeof(type), "%04x:", msg.type);
  return type + HexEncode(msg.payload);
}

template <typename M>
struct Golden {
  M value;
  std::string hex;
};

S3ProbeRequest GoldenProbes() {
  S3ProbeRequest probes;
  probes.probes.resize(2);
  for (size_t j = 0; j < 32; ++j) {
    probes.probes[0].address[j] = static_cast<uint8_t>(j);
    probes.probes[0].key[j] = static_cast<uint8_t>(0x80 + j);
  }
  probes.probes[1].address.fill(0xaa);
  probes.probes[1].key.fill(0xbb);
  return probes;
}

/// Every field set, lists of several elements, varints of several bytes.
auto GoldenMessages() {
  return std::tuple{
      Golden<S1NonceRequest>{{{B({1, 2}), Bytes{}, B({3})}},
                             "0101:03020102000103"},
      Golden<S1NonceReply>{{{{true, B({4, 5})}, {false, Bytes{}}}},
                           "0102:02010204050000"},
      Golden<S1UpdateRequest>{
          {{{B({6}), B({7, 8}), B({9}), true},
            {B({0x0a}), B({0x0b}), Bytes{}, false}},
           {{300, B({0x0c, 0x0d})}, {1, Bytes{}}}},
          "0103:020106020708010901010a010b000002ac02020c0d0100"},
      Golden<S1UpdateAck>{{300}, "0104:ac02"},
      Golden<S1SearchRequest>{{B({0x0e, 0x0f})}, "0105:020e0f"},
      Golden<S1SearchNonceReply>{{true, B({0x10})}, "0106:010110"},
      Golden<S1SearchFinish>{{B({0x11}), B({0x12, 0x13})}, "0107:0111021213"},
      Golden<S1SearchResult>{{{1, 300, 70000}, {{300, B({0x14})}}},
                             "0108:0301ac02f0a20401ac020114"},
      Golden<S2UpdateRequest>{{{{B({0x15}), {B({0x16, 0x17}), B({0x18})}}},
                               {{2, B({0x19})}}},
                              "0201:010115021617011801020119"},
      Golden<S2UpdateAck>{{129}, "0202:8101"},
      Golden<S2SearchRequest>{{B({0x1a}), B({0x1b, 0x1c})}, "0203:011a021b1c"},
      Golden<S2SearchResult>{{true, {5, 200}, {{200, B({0x1d})}}, 1000, 3},
                             "0204:010205c80101c801011de80703"},
      Golden<S2FetchAllRequest>{{}, "0205:"},
      Golden<S2FetchAllReply>{
          {{{B({0x1e}), {{B({0x1f}), B({0x20})}, {B({0x21, 0x22}), Bytes{}}}},
            {B({0x23}), {}}}},
          "0206:02011e02011f012002212200012300"},
      Golden<S2ReinitRequest>{{{{B({0x24}), {B({0x25}), B({0x26})}},
                                {B({0x27}), {Bytes{}, B({0x28})}}}},
                              "0207:020124012501260127000128"},
      Golden<S2ReinitAck>{{77}, "0208:4d"},
      Golden<S3UpdateRequest>{{{{B({0x29, 0x2a}), B({0x2b})}},
                               {{9, B({0x2c})}}},
                              "0401:0102292a012b0109012c"},
      Golden<S3UpdateAck>{{500}, "0402:f403"},
      Golden<S3SearchRequest>{{B({0x2d}), 0x01020304}, "0403:012d04030201"},
      Golden<S3ProbeRequest>{
          GoldenProbes(),
          "0405:02"
          "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
          "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f"
          "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
          "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"},
      Golden<S3SearchResult>{{true, {7}, {{7, B({0x2e, 0x2f})}}, 2, 3},
                             "0404:0101070107022e2f0203"},
      Golden<repl::ReplAppend>{
          {5, 0x0102030405060708, {B({0x31}), Bytes{}, B({0x32, 0x33})}},
          "000a:0500000000000000080706050403020103013100023233"},
      Golden<repl::ReplAck>{{6, 42, false},
                            "000b:06000000000000002a0000000000000000"},
      Golden<repl::ReplSnapshot>{
          {7, 1000, B({0x34, 0x35, 0x36})},
          "000c:0700000000000000e80300000000000003343536"},
      Golden<repl::ReplPromote>{{0x1122334455667788}, "000d:8877665544332211"},
      Golden<net::BatchRequest>{
          {{{300, kMsgS2SearchRequest, B({0x37})},
            {1, kMsgS1SearchRequest, Bytes{}}}},
          "0006:02ac020302013701050100"},
      Golden<net::BatchReply>{{{{kMsgS2SearchResult, B({0x38, 0x39})},
                                {net::kMsgError, Bytes{}}}},
                              "0007:020402023839010000"},
  };
}

TEST(MessagesGoldenTest, EveryTypeEncodesAsCaptured) {
  std::apply(
      [](const auto&... golden) {
        auto check = [](const auto& g) {
          using M = std::decay_t<decltype(g.value)>;
          const net::Message msg = g.value.ToMessage();
          EXPECT_EQ(GoldenHex(msg), g.hex);
          // The golden bytes decode, and re-encode to themselves.
          auto decoded = M::FromMessage(msg);
          ASSERT_TRUE(decoded.ok()) << g.hex << ": " << decoded.status();
          EXPECT_EQ(GoldenHex(decoded->ToMessage()), g.hex);
        };
        (check(golden), ...);
      },
      GoldenMessages());
}

TEST(MessagesGoldenTest, BaselineSearchReply) {
  // The three baselines share one search reply layout (ids, then the
  // documents). Goh's server is driven with all-ones filters so that every
  // stored document matches any trapdoor.
  baselines::GohServer server(baselines::GohOptions{8, 1});
  BufferWriter store;
  store.PutVarint(2);
  store.PutVarint(300);
  store.PutBytes(B({0xe0}));
  store.PutBytes(B({0xff}));
  store.PutVarint(3);
  store.PutBytes(B({0xd0, 0xd1}));
  store.PutBytes(B({0xff}));
  ASSERT_TRUE(
      server.Handle({baselines::kMsgGohStore, store.TakeData()}).ok());
  BufferWriter search;
  search.PutVarint(1);
  search.PutBytes(Bytes(32, 0x42));
  auto reply = server.Handle({baselines::kMsgGohSearch, search.TakeData()});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(GoldenHex(*reply), "030e:0203ac02020302d0d1ac0201e0");
}

/// The golden instances plus the baselines' shared search reply: one valid
/// message of every type the codec decodes.
auto EveryDecoder() {
  using GohReply = baselines::SearchReply<baselines::kMsgGohSearchResult>;
  return std::tuple_cat(
      GoldenMessages(),
      std::tuple{Golden<GohReply>{
          {{3, 300}, {{3, B({0xd0, 0xd1})}, {300, B({0xe0})}}},
          "030e:0203ac02020302d0d1ac0201e0"}});
}

TEST(MessagesFuzzTest, RandomPayloadsNeverCrashDecoders) {
  DeterministicRandom rng(101);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes payload(rng.Next() % 200);
    ASSERT_TRUE(rng.Fill(payload).ok());
    // Feed the same garbage to every decoder under its own type tag.
    std::apply(
        [&](const auto&... golden) {
          auto feed = [&](const auto& g) {
            using M = std::decay_t<decltype(g.value)>;
            (void)M::FromMessage({M::kType, payload});
          };
          (feed(golden), ...);
        },
        EveryDecoder());
  }
  SUCCEED();
}

TEST(MessagesFuzzTest, TruncationsOfValidMessagesRejected) {
  std::apply(
      [](const auto&... golden) {
        auto check = [](const auto& g) {
          using M = std::decay_t<decltype(g.value)>;
          const net::Message full = g.value.ToMessage();
          for (size_t keep = 0; keep < full.payload.size(); ++keep) {
            net::Message truncated{full.type,
                                   Bytes(full.payload.begin(),
                                         full.payload.begin() + keep)};
            EXPECT_FALSE(M::FromMessage(truncated).ok())
                << net::MessageTypeName(full.type) << " prefix " << keep;
          }
        };
        (check(golden), ...);
      },
      EveryDecoder());
}

}  // namespace
}  // namespace sse::core
