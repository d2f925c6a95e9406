#include "sse/crypto/sha256.h"

#include <gtest/gtest.h>

#include "sse/crypto/hash_chain.h"

namespace sse::crypto {
namespace {

TEST(Sha256Test, EmptyStringVector) {
  auto digest = Sha256(Bytes{});
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(HexEncode(*digest),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcVector) {
  auto digest = Sha256(StringToBytes("abc"));
  ASSERT_TRUE(digest.ok());
  EXPECT_EQ(HexEncode(*digest),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, ConcatMatchesDirect) {
  auto direct = Sha256(StringToBytes("hello world"));
  auto concat = Sha256Concat(StringToBytes("hello "), StringToBytes("world"));
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(concat.ok());
  EXPECT_EQ(*direct, *concat);
}

TEST(Sha256Test, ChainStepIsLabeledSha256) {
  // f(x) = SHA-256("sse.chain.step" || x), whose label the kernel absorbs
  // once per thread; repeated and differently sized inputs must not see
  // earlier calls' state.
  for (const Bytes& x : {Bytes(32, 0x3c), Bytes(32, 0x3d), Bytes{},
                         StringToBytes("a longer, odd-sized element"),
                         Bytes(32, 0x3c)}) {
    auto step = HashChain::Step(x);
    ASSERT_TRUE(step.ok());
    EXPECT_EQ(ToBytes(*step),
              *Sha256Concat(StringToBytes("sse.chain.step"), x));
  }
}

TEST(Sha256Test, ChainTagIsLabeledSha256) {
  for (const Bytes& x : {Bytes(32, 0x3c), Bytes(32, 0x3d), Bytes{},
                         StringToBytes("a longer, odd-sized element"),
                         Bytes(32, 0x3c)}) {
    auto tag = HashChain::Tag(x);
    ASSERT_TRUE(tag.ok());
    EXPECT_EQ(ToBytes(*tag),
              *Sha256(Concat(StringToBytes("sse.chain.tag"), x)));
  }
}

TEST(Sha256Test, AvalancheOnOneBit) {
  Bytes a(32, 0);
  Bytes b(32, 0);
  b[0] = 1;
  auto da = Sha256(a);
  auto db = Sha256(b);
  ASSERT_TRUE(da.ok());
  ASSERT_TRUE(db.ok());
  size_t differing_bits = 0;
  for (size_t i = 0; i < 32; ++i) {
    uint8_t x = (*da)[i] ^ (*db)[i];
    while (x != 0) {
      differing_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_GT(differing_bits, 80u);  // ~128 expected
}

}  // namespace
}  // namespace sse::crypto
