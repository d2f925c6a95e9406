#include "sse/crypto/hash_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace sse::crypto {
namespace {

Bytes Seed() { return Bytes(32, 0x3c); }

TEST(HashChainTest, CreateValidation) {
  EXPECT_FALSE(HashChain::Create(Bytes(8, 1), 10).ok());  // short seed
  EXPECT_FALSE(HashChain::Create(Seed(), 0).ok());        // zero length
  EXPECT_TRUE(HashChain::Create(Seed(), 1).ok());
}

TEST(HashChainTest, ElementAtMatchesIteratedStep) {
  auto chain = HashChain::Create(Seed(), 16);
  ASSERT_TRUE(chain.ok());
  Bytes manual = Seed();
  for (uint32_t i = 0; i < 16; ++i) {
    auto direct = chain->ElementAt(i);
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(*direct, manual) << "index " << i;
    manual = *HashChain::Step(manual);
  }
}

TEST(HashChainTest, ElementAtOutOfRange) {
  auto chain = HashChain::Create(Seed(), 4);
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(chain->ElementAt(3).ok());
  EXPECT_FALSE(chain->ElementAt(4).ok());
}

TEST(HashChainTest, KeyForCounterWalksBackwards) {
  // ctr=1 must give the deepest usable element (index l-1); ctr=l the seed.
  const uint32_t l = 8;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ(*chain->KeyForCounter(1), *chain->ElementAt(l - 1));
  EXPECT_EQ(*chain->KeyForCounter(l), *chain->ElementAt(0));
  EXPECT_EQ(*chain->KeyForCounter(3), *chain->ElementAt(l - 3));
}

TEST(HashChainTest, KeyForCounterBoundaries) {
  auto chain = HashChain::Create(Seed(), 4);
  ASSERT_TRUE(chain.ok());
  EXPECT_FALSE(chain->KeyForCounter(0).ok());  // counters start at 1
  EXPECT_TRUE(chain->KeyForCounter(4).ok());
  auto exhausted = chain->KeyForCounter(5);
  ASSERT_FALSE(exhausted.ok());
  EXPECT_EQ(exhausted.status().code(), StatusCode::kResourceExhausted);
}

TEST(HashChainTest, ForwardOnlyProperty) {
  // Holding element i, one can compute element i+1 but elements are all
  // distinct (no cycles in practice).
  auto chain = HashChain::Create(Seed(), 32);
  ASSERT_TRUE(chain.ok());
  std::set<std::string> seen;
  for (uint32_t i = 0; i < 32; ++i) {
    seen.insert(HexEncode(*chain->ElementAt(i)));
  }
  EXPECT_EQ(seen.size(), 32u);
}

TEST(HashChainTest, TagDiffersFromElementAndStep) {
  Bytes element = Seed();
  auto tag = HashChain::Tag(element);
  auto step = HashChain::Step(element);
  ASSERT_TRUE(tag.ok());
  ASSERT_TRUE(step.ok());
  EXPECT_NE(*tag, element);
  EXPECT_NE(*tag, *step);  // domain separation between f and f'
}

TEST(HashChainTest, WalkForwardFindsDeeperElement) {
  const uint32_t l = 20;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  // Server holds the element for ctr=9 (index l-9=11) and looks for the
  // key of an update at ctr=4 (index 16): 5 forward steps.
  Bytes start = *chain->KeyForCounter(9);
  Bytes target = *chain->KeyForCounter(4);
  Bytes target_tag = *HashChain::Tag(target);
  auto walk = HashChain::WalkForwardToTag(start, target_tag, l);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->element, target);
  EXPECT_EQ(walk->steps, 5u);
}

TEST(HashChainTest, WalkForwardZeroSteps) {
  auto chain = HashChain::Create(Seed(), 8);
  ASSERT_TRUE(chain.ok());
  Bytes element = *chain->KeyForCounter(3);
  auto walk = HashChain::WalkForwardToTag(element, *HashChain::Tag(element), 8);
  ASSERT_TRUE(walk.ok());
  EXPECT_EQ(walk->steps, 0u);
}

TEST(HashChainTest, WalkForwardCannotReachNewerKeys) {
  // Keys of *future* updates (higher ctr = smaller index) are not reachable
  // walking forward — the core one-wayness the scheme relies on.
  const uint32_t l = 16;
  auto chain = HashChain::Create(Seed(), l);
  ASSERT_TRUE(chain.ok());
  Bytes old_key = *chain->KeyForCounter(3);   // index 13
  Bytes newer_key = *chain->KeyForCounter(7); // index 9 (deeper)
  auto walk =
      HashChain::WalkForwardToTag(old_key, *HashChain::Tag(newer_key), l);
  EXPECT_FALSE(walk.ok());
  EXPECT_EQ(walk.status().code(), StatusCode::kNotFound);
}

TEST(HashChainTest, DifferentSeedsGiveDisjointChains) {
  auto a = HashChain::Create(Bytes(32, 1), 16);
  auto b = HashChain::Create(Bytes(32, 2), 16);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_NE(*a->ElementAt(i), *b->ElementAt(i));
  }
}

TEST(ChainCursorTest, MatchesKeyForCounterInEveryOrder) {
  // The memo has three paths (exact hit, step forward from a newer memo,
  // recompute from the seed); every request order mixes them differently
  // and must agree with the unmemoized reference at every counter.
  const uint32_t l = 64;
  auto reference = HashChain::Create(Seed(), l);
  ASSERT_TRUE(reference.ok());
  std::vector<uint32_t> ascending(l);
  std::iota(ascending.begin(), ascending.end(), 1u);
  std::vector<uint32_t> descending(ascending.rbegin(), ascending.rend());
  std::vector<uint32_t> shuffled = ascending;
  std::mt19937 gen(7);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);
  // Each counter asked twice in a row also covers the exact-hit path.
  std::vector<uint32_t> repeated;
  for (uint32_t ctr : shuffled) {
    repeated.push_back(ctr);
    repeated.push_back(ctr);
  }

  for (const std::vector<uint32_t>* order :
       {&ascending, &descending, &shuffled, &repeated}) {
    auto cursor = ChainCursor::Create(Seed(), l);
    ASSERT_TRUE(cursor.ok());
    for (uint32_t ctr : *order) {
      auto key = cursor->KeyAt(ctr);
      ASSERT_TRUE(key.ok()) << "counter " << ctr;
      EXPECT_EQ(*key, *reference->KeyForCounter(ctr)) << "counter " << ctr;
    }
  }
}

TEST(ChainCursorTest, CountersOutsideTheChainAreExhausted) {
  const uint32_t l = 64;
  auto cursor = ChainCursor::Create(Seed(), l);
  ASSERT_TRUE(cursor.ok());
  auto zero = cursor->KeyAt(0);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kResourceExhausted);
  auto past_end = cursor->KeyAt(l + 1);
  ASSERT_FALSE(past_end.ok());
  EXPECT_EQ(past_end.status().code(), StatusCode::kResourceExhausted);
  // A failed request leaves the cursor usable.
  EXPECT_TRUE(cursor->KeyAt(l).ok());
  EXPECT_FALSE(ChainCursor::Create(Bytes(8, 1), l).ok());  // short seed
  EXPECT_FALSE(ChainCursor::Create(Seed(), 0).ok());       // zero length
}

}  // namespace
}  // namespace sse::crypto
