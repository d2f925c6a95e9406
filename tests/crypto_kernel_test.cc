// The fetch-once crypto kernel keeps one context of each kind per thread
// and re-initialises it on every call. These tests check that no call sees
// another call's key, label or stream state: on one thread across
// interleaved primitives and keys, and on eight threads at once, where
// every result must equal the one the main thread computed.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sse/crypto/aead.h"
#include "sse/crypto/hash_chain.h"
#include "sse/crypto/hkdf.h"
#include "sse/crypto/prf.h"
#include "sse/crypto/prg.h"
#include "sse/crypto/stream_cipher.h"
#include "sse/util/random.h"

namespace sse::crypto {
namespace {

constexpr int kThreads = 8;
constexpr int kRounds = 1000;

/// Everything one round computes; the inputs vary with the round so that
/// consecutive calls on a thread's contexts use different keys and sizes.
struct Outputs {
  Bytes step;
  Bytes tag;
  Bytes hmac;
  Bytes hkdf;
  Bytes stream_ct;
  Bytes stream_pt;
  Bytes aead_ct;
  Bytes aead_pt;
  Bytes prg;

  bool operator==(const Outputs&) const = default;
};

Bytes RoundData(int round) {
  return Bytes(static_cast<size_t>(round % 97),
               static_cast<uint8_t>(static_cast<uint8_t>(round) ^ 0x5a));
}

Result<Outputs> RunRound(int round) {
  const Bytes key(32, static_cast<uint8_t>(round));
  const Bytes data = RoundData(round);
  Outputs out;
  Sha256Digest digest;
  SSE_ASSIGN_OR_RETURN(digest, HashChain::Step(key));
  out.step = ToBytes(digest);
  SSE_ASSIGN_OR_RETURN(digest, HashChain::Tag(out.step));
  out.tag = ToBytes(digest);
  SSE_ASSIGN_OR_RETURN(out.hmac, HmacSha256(key, data));
  SSE_ASSIGN_OR_RETURN(out.hkdf, HkdfSha256(data, key, "sse.kernel.test",
                                            64 + round % 64));

  DeterministicRandom rng(static_cast<uint64_t>(round) + 1);
  Result<StreamCipher> cipher = StreamCipher::Create(out.hmac);
  if (!cipher.ok()) return cipher.status();
  SSE_ASSIGN_OR_RETURN(out.stream_ct, cipher->Encrypt(data, rng));
  SSE_ASSIGN_OR_RETURN(out.stream_pt, cipher->Decrypt(out.stream_ct));

  Result<Aead> aead =
      Aead::Create(BytesView(out.hkdf).subspan(0, kAeadKeySize));
  if (!aead.ok()) return aead.status();
  SSE_ASSIGN_OR_RETURN(out.aead_ct, aead->Seal(data, out.tag, rng));
  SSE_ASSIGN_OR_RETURN(out.aead_pt, aead->Open(out.aead_ct, out.tag));

  SSE_ASSIGN_OR_RETURN(
      out.prg, PrgExpand(out.step, 1 + static_cast<size_t>(round % 300)));
  return out;
}

TEST(CryptoKernelTest, RoundTripsOnOneThread) {
  for (int round = 0; round < 64; ++round) {
    auto out = RunRound(round);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(out->stream_pt, RoundData(round)) << "round " << round;
    EXPECT_EQ(out->aead_pt, RoundData(round)) << "round " << round;
  }
}

TEST(CryptoKernelTest, HmacKeysDoNotLeakBetweenCalls) {
  // RFC 4231 test case 6 (a key longer than the block, hashed first), then
  // an empty key, then test case 2 again: the per-thread MAC context must
  // take each call's key, never the previous one.
  const Bytes long_key(131, 0xaa);
  auto long_mac = HmacSha256(
      long_key,
      StringToBytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  ASSERT_TRUE(long_mac.ok());
  EXPECT_EQ(HexEncode(*long_mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  auto empty = HmacSha256(Bytes{}, Bytes{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(HexEncode(*empty),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
  auto jefe = HmacSha256(StringToBytes("Jefe"),
                         StringToBytes("what do ya want for nothing?"));
  ASSERT_TRUE(jefe.ok());
  EXPECT_EQ(HexEncode(*jefe),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(CryptoKernelTest, TamperedInputsFailWithoutPoisoningTheThread) {
  DeterministicRandom rng(9);
  auto aead = Aead::Create(Bytes(32, 1));
  ASSERT_TRUE(aead.ok());
  auto ct = aead->Seal(StringToBytes("payload"), {}, rng);
  ASSERT_TRUE(ct.ok());
  ct->back() ^= 1;
  EXPECT_FALSE(aead->Open(*ct, {}).ok());
  auto cipher = StreamCipher::Create(Bytes(32, 2));
  ASSERT_TRUE(cipher.ok());
  auto sct = cipher->Encrypt(StringToBytes("segment"), rng);
  ASSERT_TRUE(sct.ok());
  (*sct)[kStreamIvSize] ^= 1;
  EXPECT_FALSE(cipher->Decrypt(*sct).ok());
  // The same thread's contexts still produce correct results afterwards.
  auto out = RunRound(5);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->aead_pt, RoundData(5));
  EXPECT_EQ(out->stream_pt, RoundData(5));
}

TEST(CryptoKernelTest, EightThreadsAgreeWithTheMainThread) {
  std::vector<Outputs> expected;
  expected.reserve(kRounds);
  for (int round = 0; round < kRounds; ++round) {
    auto out = RunRound(round);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    expected.push_back(std::move(out).value());
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&expected, &mismatches, t] {
      // Each thread starts at a different round so that the threads' calls
      // interleave different keys at any moment.
      for (int i = 0; i < kRounds; ++i) {
        const int round = (i + t * 97) % kRounds;
        auto out = RunRound(round);
        if (!out.ok() || !(*out == expected[round])) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sse::crypto
