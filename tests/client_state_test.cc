// Client protocol-state persistence: a Scheme 2 client that restores its
// serialized state behaves exactly like the original across sessions; a
// rolled-back or corrupted state is rejected or detected.

#include <gtest/gtest.h>

#include "sse/core/registry.h"
#include "sse/core/scheme1_client.h"
#include "sse/core/scheme2_client.h"
#include "sse/core/scheme1_server.h"
#include "sse/core/scheme2_server.h"
#include "sse/core/scheme3_client.h"
#include "sse/core/scheme3_server.h"
#include "test_util.h"

namespace sse::core {
namespace {

using sse::testing::FastTestConfig;
using sse::testing::FromHex;
using sse::testing::TestMasterKey;

TEST(ClientStateTest, Scheme2RoundTripAcrossSessions) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(1);

  Bytes saved_state;
  {
    auto client = Scheme2Client::Create(TestMasterKey(), options, &channel, &rng);
    SSE_ASSERT_OK_RESULT(client);
    SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"kw"})}));
    SSE_ASSERT_OK_RESULT((*client)->Search("kw"));
    SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"kw"})}));
    saved_state = (*client)->SerializeState();
    EXPECT_EQ((*client)->counter(), 2u);
  }

  // New session: restore and keep operating seamlessly.
  auto client = Scheme2Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->RestoreState(saved_state));
  EXPECT_EQ((*client)->counter(), 2u);

  auto outcome = (*client)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1}));
  // Duplicate-id protection restored too.
  EXPECT_EQ((*client)->Store({Document::Make(0, "dup", {"kw"})}).code(),
            StatusCode::kAlreadyExists);
  // And new stores still work.
  SSE_ASSERT_OK((*client)->Store({Document::Make(2, "c", {"kw"})}));
  auto grown = (*client)->Search("kw");
  SSE_ASSERT_OK_RESULT(grown);
  EXPECT_EQ(grown->ids.size(), 3u);
}

TEST(ClientStateTest, Scheme2RejectsCorruptState) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(2);
  auto client = Scheme2Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);

  EXPECT_FALSE((*client)->RestoreState(Bytes{}).ok());
  EXPECT_FALSE((*client)->RestoreState(Bytes{1, 2, 3}).ok());

  // Counter beyond the chain length is inconsistent with the options.
  Bytes state = (*client)->SerializeState();
  // ctr is the first u32 (little endian); set it past chain_length.
  state[0] = 0xff;
  state[1] = 0xff;
  state[2] = 0xff;
  state[3] = 0x7f;
  EXPECT_FALSE((*client)->RestoreState(state).ok());

  // Trailing garbage rejected.
  Bytes padded = (*client)->SerializeState();
  padded.push_back(0);
  EXPECT_FALSE((*client)->RestoreState(padded).ok());
}

TEST(ClientStateTest, Scheme2RollbackSemanticsPinned) {
  // Documents the danger the API comment warns about: restoring an OLD
  // state rolls the counter back, so (a) the rolled-back client's
  // trapdoors can no longer open segments written at higher counters —
  // that is forward security doing its job against a stale trapdoor — and
  // (b) a new update reuses an already-released chain element. Searches
  // recover as soon as an up-to-date state is restored; the server's
  // trapdoor-restart walk keeps the out-of-order segment reachable.
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(3);
  auto client = Scheme2Client::Create(TestMasterKey(), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);

  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "a", {"kw"})}));
  Bytes old_state = (*client)->SerializeState();  // ctr = 1
  SSE_ASSERT_OK_RESULT((*client)->Search("kw"));
  SSE_ASSERT_OK((*client)->Store({Document::Make(1, "b", {"kw"})}));
  Bytes new_state = (*client)->SerializeState();  // ctr = 2

  // Roll back and store again: the update reuses chain element 1.
  SSE_ASSERT_OK((*client)->RestoreState(old_state));
  SSE_ASSERT_OK((*client)->Store({Document::Make(2, "c", {"kw"})}));

  // The rolled-back trapdoor (ctr=1) cannot open the ctr=2 segment.
  auto stale = (*client)->Search("kw");
  EXPECT_FALSE(stale.ok());

  // With the current state restored, everything is reachable again —
  // including the out-of-order segment written after the rollback.
  SSE_ASSERT_OK((*client)->RestoreState(new_state));
  auto outcome = (*client)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(ClientStateTest, Scheme1RoundTrip) {
  DeterministicRandom rng(4);
  auto sys = sse::testing::MakeTestSystem(SystemKind::kScheme1, &rng);
  auto* client = static_cast<Scheme1Client*>(sys.client.get());
  SSE_ASSERT_OK(client->Store({Document::Make(0, "a", {"kw"}),
                               Document::Make(3, "b", {"kw"})}));
  Bytes state = client->SerializeState();

  DeterministicRandom rng2(5);
  auto client2 = Scheme1Client::Create(TestMasterKey(),
                                       FastTestConfig().scheme,
                                       sys.channel.get(), &rng2);
  SSE_ASSERT_OK_RESULT(client2);
  SSE_ASSERT_OK((*client2)->RestoreState(state));
  EXPECT_EQ((*client2)->Store({Document::Make(3, "dup", {"kw"})}).code(),
            StatusCode::kAlreadyExists);
  SSE_ASSERT_OK((*client2)->Store({Document::Make(4, "c", {"kw"})}));
  auto outcome = (*client2)->Search("kw");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 3, 4}));
}

TEST(ClientStateTest, Scheme1RejectsGarbage) {
  DeterministicRandom rng(6);
  auto sys = sse::testing::MakeTestSystem(SystemKind::kScheme1, &rng);
  auto* client = static_cast<Scheme1Client*>(sys.client.get());
  EXPECT_FALSE(client->RestoreState(Bytes{0xff, 0xff}).ok());
}

// Known-answer state bytes. Never regenerate them: client.state files
// written by earlier builds must restore, and new builds must keep writing
// the same bytes.

/// Every proper prefix of the known-answer state `hex` is refused, and
/// `client` keeps the state it had restored from it.
void ExpectEveryPrefixRefused(SseClientInterface& client, const char* hex) {
  const Bytes state = FromHex(hex);
  for (size_t cut = 0; cut < state.size(); ++cut) {
    SCOPED_TRACE("state cut at byte " + std::to_string(cut));
    EXPECT_FALSE(
        client.RestoreState(Bytes(state.begin(), state.begin() + cut)).ok());
    EXPECT_EQ(HexEncode(client.SerializeState()), hex);
  }
}

/// Runs the fixed op sequence of the Scheme 2/3 known-answer tests and
/// returns the client, still connected to `channel`.
template <typename Client>
std::unique_ptr<Client> RunFixedOps(net::Channel* channel, RandomSource* rng,
                                    const char* unseen_search) {
  auto created =
      Client::Create(TestMasterKey(1), FastTestConfig().scheme, channel, rng);
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return nullptr;
  std::unique_ptr<Client> client = std::move(created).value();
  EXPECT_TRUE(client
                  ->Store({Document::Make(0, "doc zero", {"alpha", "beta"}),
                           Document::Make(1, "doc one", {"alpha"})})
                  .ok());
  EXPECT_TRUE(client->Search("alpha").ok());
  EXPECT_TRUE(
      client->Store({Document::Make(2, "doc two", {"beta", "gamma"})}).ok());
  EXPECT_TRUE(client->Store({Document::Make(3, "doc three", {"alpha"})}).ok());
  EXPECT_TRUE(client->Search(unseen_search).ok());
  EXPECT_TRUE(client->FakeUpdate({"gamma", "delta", "gamma"}).ok());
  return client;
}

TEST(ClientStateKnownAnswerTest, Scheme1StateBytes) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme1Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(7);
  auto client = Scheme1Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  SSE_ASSERT_OK((*client)->Store({Document::Make(0, "doc zero", {"alpha", "beta"}),
                                  Document::Make(1, "doc one", {"alpha"})}));
  SSE_ASSERT_OK((*client)->Store({Document::Make(200, "doc two", {"beta"})}));
  SSE_ASSERT_OK((*client)->RemoveDocument(1, {"alpha"}));
  const char kState[] = "0200c801";  // used ids {0, 200}
  EXPECT_EQ(HexEncode((*client)->SerializeState()), kState);

  auto restored = Scheme1Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(FromHex(kState)));
  EXPECT_EQ(HexEncode((*restored)->SerializeState()), kState);
  ExpectEveryPrefixRefused(**restored, kState);
  EXPECT_EQ((*restored)->Store({Document::Make(200, "dup", {"beta"})}).code(),
            StatusCode::kAlreadyExists);
}

TEST(ClientStateKnownAnswerTest, Scheme2StateBytes) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme2Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(7);
  auto client = RunFixedOps<Scheme2Client>(&channel, &rng, "beta");
  ASSERT_NE(client, nullptr);
  // ctr 3, epoch 0, searched flag clear, used ids {0, 1, 2, 3}.
  const char kState[] = "0300000000000000000400010203";
  EXPECT_EQ(HexEncode(client->SerializeState()), kState);
  SSE_ASSERT_OK(client->Reinitialize());
  // ctr 1, epoch 1, searched flag set.
  const char kReinitState[] = "0100000001000000010400010203";
  EXPECT_EQ(HexEncode(client->SerializeState()), kReinitState);

  auto restored = Scheme2Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(FromHex(kReinitState)));
  EXPECT_EQ(HexEncode((*restored)->SerializeState()), kReinitState);
  ExpectEveryPrefixRefused(**restored, kReinitState);
  auto outcome = (*restored)->Search("gamma");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, std::vector<uint64_t>{2});
}

TEST(ClientStateKnownAnswerTest, Scheme3StateBytes) {
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(7);
  auto client = RunFixedOps<Scheme3Client>(&channel, &rng, "zeta");
  ASSERT_NE(client, nullptr);
  // Five keyword slots in token order (token, ctr), "zeta" among them with
  // ctr 0 because searching it created its slot, then used ids {0..3}.
  const char kState[] =
      "05"
      "202958b25940cef3450c3aead565969d55e48348c303d5678035f27497e8b0c79a"
      "01000000"
      "205e8dc897daae1c3ce58bf1df9a51a00809c81ec8a1abcf6e090e2e0ab1aeaf9f"
      "02000000"
      "2098f8387535745d9f2f34f382f4a60e1c4388033b6c3e5c2e00c935b9c8d547eb"
      "02000000"
      "20ae3fed6bf78a6372100600287c1da4d7620bc234b471397c69e22cce7ccff150"
      "00000000"
      "20e3084e2f40f628d87e77191cef7b477279c7aa1ebde51d561d0e539279652b53"
      "02000000"
      "0400010203";
  EXPECT_EQ(HexEncode(client->SerializeState()), kState);

  auto restored = Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(restored);
  SSE_ASSERT_OK((*restored)->RestoreState(FromHex(kState)));
  EXPECT_EQ(HexEncode((*restored)->SerializeState()), kState);
  ExpectEveryPrefixRefused(**restored, kState);
  auto outcome = (*restored)->Search("alpha");
  SSE_ASSERT_OK_RESULT(outcome);
  EXPECT_EQ(outcome->ids, (std::vector<uint64_t>{0, 1, 3}));
}

TEST(ClientStateTest, Scheme3RefusesRepeatedKeyword) {
  // A state that lists one keyword's token twice is corrupt. Keeping the
  // later entry could roll that keyword's counter back, and the next
  // update would then reuse a chain key the server has already seen.
  const SchemeOptions options = FastTestConfig().scheme;
  Scheme3Server server(options);
  net::InProcessChannel channel(&server);
  DeterministicRandom rng(8);
  auto client = Scheme3Client::Create(TestMasterKey(1), options, &channel, &rng);
  SSE_ASSERT_OK_RESULT(client);
  const std::string token(64, 'a');
  const std::string good = "02"
                           "20" + token + "05000000"
                           "20" + std::string(64, 'b') + "01000000"
                           "00";
  const std::string repeated = "02"
                               "20" + token + "05000000"
                               "20" + token + "01000000"
                               "00";
  SSE_ASSERT_OK((*client)->RestoreState(FromHex(good)));
  const Status status = (*client)->RestoreState(FromHex(repeated));
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  EXPECT_EQ(HexEncode((*client)->SerializeState()), good);
}

}  // namespace
}  // namespace sse::core
