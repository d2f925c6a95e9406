// Exhaustive round-trip and adversarial-decode tests for every protocol
// message of Schemes 1-3 (Scheme 3's engine-internal probe request
// included), replication, the batch envelope and the baselines, plus
// golden encodings that pin each type's bytes on the wire.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <type_traits>

#include "sse/baselines/cgko_sse1.h"
#include "sse/baselines/goh_zidx.h"
#include "sse/baselines/search_reply.h"
#include "sse/baselines/swp.h"
#include "sse/core/registry.h"
#include "sse/core/scheme1_messages.h"
#include "sse/core/scheme2_messages.h"
#include "sse/core/scheme3_messages.h"
#include "sse/net/batch.h"
#include "sse/repl/messages.h"
#include "sse/util/random.h"
#include "sse/util/serde.h"
#include "test_util.h"

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

// The baselines' store (CGKO: build), ack and search messages, pinned
// through their real clients and servers: one Store of two documents whose
// ids take a two- and a one-byte varint, then one Search of their keyword.
// The master key and the random source are fixed, so every byte of the
// transcript is too. Requests are decoded by the server, acks by the
// client.

struct BaselineTypes {
  SystemKind kind;
  uint16_t store;
  uint16_t ack;
  uint16_t search;
};

constexpr BaselineTypes kBaselines[] = {
    {SystemKind::kSwp, baselines::kMsgSwpStore, baselines::kMsgSwpStoreAck,
     baselines::kMsgSwpSearch},
    {SystemKind::kGohZidx, baselines::kMsgGohStore,
     baselines::kMsgGohStoreAck, baselines::kMsgGohSearch},
    {SystemKind::kCgkoSse1, baselines::kMsgCgkoBuild,
     baselines::kMsgCgkoBuildAck, baselines::kMsgCgkoSearch},
};

SystemConfig BaselineConfig() {
  SystemConfig config = sse::testing::FastTestConfig();
  config.goh = baselines::GohOptions{8, 1};  // one-byte filters, one subkey
  config.channel.record_transcript = true;
  return config;
}

std::vector<net::Exchange> BaselineTranscript(SystemKind kind) {
  DeterministicRandom rng(9);
  auto sys = CreateSystem(kind, sse::testing::TestMasterKey(),
                          BaselineConfig(), &rng);
  EXPECT_TRUE(sys.ok()) << sys.status();
  if (!sys.ok()) return {};
  EXPECT_TRUE(sys->client
                  ->Store({Document::Make(300, "", {"kw"}),
                           Document::Make(3, "", {"kw"})})
                  .ok());
  EXPECT_TRUE(sys->client->Search("kw").ok());
  return sys->channel->transcript();
}

/// Answers every call with `reply`.
class CannedChannel : public net::Channel {
 public:
  explicit CannedChannel(net::Message reply) : reply_(std::move(reply)) {}
  Result<net::Message> Call(const net::Message&) override { return reply_; }
  const net::ChannelStats& stats() const override { return stats_; }
  void ResetStats() override {}

 private:
  net::Message reply_;
  net::ChannelStats stats_;
};

/// A fresh server of `kind` handles `request`.
Status ServerHandles(SystemKind kind, const net::Message& request) {
  auto server = FindScheme(kind)->make_server(BaselineConfig());
  if (!server.ok()) return server.status();
  return (*server)->Handle(request).status();
}

/// A fresh client of `kind` stores document `id` and is answered `reply`.
Status ClientTakesReply(SystemKind kind, const net::Message& reply,
                        uint64_t id) {
  CannedChannel channel(reply);
  DeterministicRandom rng(id);
  auto client = FindScheme(kind)->make_client(
      sse::testing::TestMasterKey(), BaselineConfig(), &channel, &rng);
  if (!client.ok()) return client.status();
  return (*client)->Store({Document::Make(id, "", {"kw"})});
}

TEST(MessagesGoldenTest, BaselineMessagesEncodeAsCaptured) {
  // Per baseline: store (CGKO: build), its ack, search, its reply.
  // Captured from the hand-written codecs the baselines had before their
  // messages were declared in sse/net/wire.h.
  const std::vector<std::string> golden[] = {
      {"0301:"
          "02ac021c60a019f6ec4ea900f9fb52d1e5e5883e6d7b0ac1c45544ceaa8d3690"
          "2030cbe0d6720270bbaaa4d6b76688487bc068ecf3b9ab159acfe97d1efe0775"
          "ef031c65096c76b275abeba0d2ffe26e399508e944b663831808ecf73c385320"
          "7405e1bef8e5493489cea52f21e1dc4126df40a5d0908542a8d8a2f3ce629e02",
       "0302:02",
       "0303:"
          "20279060e6ba09999ae6e8385ac454d9c01f0564e4a56e629d95ba694576db22"
          "f920c9c400e244ff1100f982cf92d94b327241b6d9b0ab11c1386266048e8502"
          "c8a8",
       "0304:"
          "0203ac0202031c65096c76b275abeba0d2ffe26e399508e944b663831808ecf7"
          "3c3853ac021c60a019f6ec4ea900f9fb52d1e5e5883e6d7b0ac1c45544ceaa8d"
          "3690"},
      {"030b:"
          "02ac021c60a019f6ec4ea900f9fb52d1e5e5883e6d7b0ac1c45544ceaa8d3690"
          "0101031c175b8030c80be9214c4ceeed66ac1639c2c2a164b1cdcb9e249e48bc"
          "0104",
       "030c:02",
       "030d:"
          "01206952c983f72179b9d54b9a82fd1b898af299a732682474c7ee6c80ebfcb9"
          "5cfb",
       "030e:"
          "0203ac0202031c175b8030c80be9214c4ceeed66ac1639c2c2a164b1cdcb9e24"
          "9e48bcac021c60a019f6ec4ea900f9fb52d1e5e5883e6d7b0ac1c45544ceaa8d"
          "3690"},
      {"0315:"
          "025ca0d2ffe2bb9191be5395815842ecd0aecae04fce4305fc40937ce5d9c5af"
          "7a5803de4cfd1edf53cefedfb8bf0a2ac1634e17278644089adfff75d892a059"
          "bf1b5f98a9e068065e67b32d5ed2ac004dedb4b93e25c743950dca8506c85ce1"
          "81d73c1a9a3afd2c425617d3adeb2b1c02e159bd6869013153001201b1a59265"
          "91a4767bc903167c2b71f54cb457088352c00eae4c17202f43761b8a452aa6f7"
          "f453b5bb83be7ace2889570a3bea4b930cdc1093948ecf7041ab550120871268"
          "0d3484821a7e0683f99391c268dd9d0ac5bb73bfe25739fdccf6d0cb6b24765b"
          "7f1502100d2c6ae2d59016fd79fa903aa3ee9c26167bd91ba1e25ef3d32d4dd9"
          "59c802ac021c49f0cb52347db0c2139e6608e8d7263b4339d091fd905b39f682"
          "0156031c74a8ada6b8dca2f2485174a1c3556ddf24f507c958083ffe134c3936",
       "0316:02",
       "0317:"
          "208712680d3484821a7e0683f99391c268dd9d0ac5bb73bfe25739fdccf6d0cb"
          "6b24775b7f156d3690598f57d01113d976510cf0e2c8b9b5caf10a468c9658f9"
          "3cc3c0f5d108",
       "0318:"
          "0203ac0202031c74a8ada6b8dca2f2485174a1c3556ddf24f507c958083ffe13"
          "4c3936ac021c49f0cb52347db0c2139e6608e8d7263b4339d091fd905b39f682"
          "0156"},
  };
  for (size_t i = 0; i < std::size(kBaselines); ++i) {
    SCOPED_TRACE(std::string(SystemKindName(kBaselines[i].kind)));
    std::vector<std::string> got;
    for (const net::Exchange& exchange :
         BaselineTranscript(kBaselines[i].kind)) {
      got.push_back(GoldenHex(exchange.request));
      got.push_back(GoldenHex(exchange.reply));
    }
    EXPECT_EQ(got, golden[i]);
  }
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
    for (const BaselineTypes& b : kBaselines) {
      (void)ServerHandles(b.kind, {b.store, payload});
      (void)ServerHandles(b.kind, {b.search, payload});
      (void)ClientTakesReply(b.kind, {b.ack, payload}, trial);
    }
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

  for (const BaselineTypes& b : kBaselines) {
    SCOPED_TRACE(std::string(SystemKindName(b.kind)));
    const std::vector<net::Exchange> transcript = BaselineTranscript(b.kind);
    ASSERT_EQ(transcript.size(), 2u);
    const net::Message& store = transcript[0].request;
    const net::Message& ack = transcript[0].reply;
    const net::Message& search = transcript[1].request;
    SSE_ASSERT_OK(ServerHandles(b.kind, store));
    SSE_ASSERT_OK(ClientTakesReply(b.kind, ack, 1));
    SSE_ASSERT_OK(ServerHandles(b.kind, search));
    auto prefix = [](const net::Message& msg, size_t keep) {
      return net::Message{
          msg.type, Bytes(msg.payload.begin(), msg.payload.begin() + keep)};
    };
    for (size_t keep = 0; keep < store.payload.size(); ++keep) {
      EXPECT_FALSE(ServerHandles(b.kind, prefix(store, keep)).ok())
          << "store prefix " << keep;
    }
    for (size_t keep = 0; keep < ack.payload.size(); ++keep) {
      EXPECT_FALSE(ClientTakesReply(b.kind, prefix(ack, keep), 1).ok())
          << "ack prefix " << keep;
    }
    for (size_t keep = 0; keep < search.payload.size(); ++keep) {
      EXPECT_FALSE(ServerHandles(b.kind, prefix(search, keep)).ok())
          << "search prefix " << keep;
    }
  }
}

}  // namespace
}  // namespace sse::core
