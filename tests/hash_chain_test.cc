#include "sse/crypto/hash_chain.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
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
    manual = ToBytes(*HashChain::Step(manual));
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
  EXPECT_NE(ToBytes(*tag), element);
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
  Bytes target_tag = ToBytes(*HashChain::Tag(target));
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

/// Every element of a length-`l` chain over Seed(), from one forward pass:
/// element i at index i, so the key at counter ctr is table[l - ctr]. Spot
/// checked against the unmemoized reference.
std::vector<Bytes> ElementTable(uint32_t l) {
  std::vector<Bytes> table;
  table.reserve(l);
  table.push_back(Seed());
  while (table.size() < l) {
    table.push_back(ToBytes(*HashChain::Step(table.back())));
  }
  auto reference = HashChain::Create(Seed(), l);
  for (uint32_t ctr : {1u, 2u, l / 3, l / 2, l - 1, l}) {
    EXPECT_EQ(table[l - ctr], *reference->KeyForCounter(ctr))
        << "counter " << ctr;
  }
  return table;
}

/// Ascending counters from 1 with random gaps of 1..20, up to `l`.
std::vector<uint32_t> AscendingWithGaps(uint32_t l, uint32_t seed) {
  std::mt19937 gen(seed);
  std::uniform_int_distribution<uint32_t> gap(1, 20);
  std::vector<uint32_t> counters;
  for (uint32_t ctr = gap(gen); ctr <= l; ctr += gap(gen)) {
    counters.push_back(ctr);
  }
  return counters;
}

std::vector<uint32_t> AscendingCounters(uint32_t l) {
  std::vector<uint32_t> ascending(l);
  std::iota(ascending.begin(), ascending.end(), 1u);
  return ascending;
}

/// Each counter asked twice in a row, which also covers the exact hit.
std::vector<uint32_t> Repeated(const std::vector<uint32_t>& order) {
  std::vector<uint32_t> repeated;
  for (uint32_t ctr : order) {
    repeated.push_back(ctr);
    repeated.push_back(ctr);
  }
  return repeated;
}

TEST(ChainCursorTest, MatchesKeyForCounterInEveryOrder) {
  // The cursor answers from a pebble, walks forward from one (dropping new
  // pebbles or, for a smaller counter than the last, none), or walks from
  // the seed; every request order mixes these paths differently and must
  // agree with the reference at every counter. The orders clients use run
  // at a production chain length; descending and shuffled orders, which
  // only exercise the walk forward and cost O(l^2) steps, stay short.
  struct Case {
    uint32_t l;
    std::vector<uint32_t> order;
  };
  std::vector<uint32_t> shuffled = AscendingCounters(64);
  std::mt19937 gen(7);
  std::shuffle(shuffled.begin(), shuffled.end(), gen);
  const std::vector<uint32_t> ascending_64 = AscendingCounters(64);
  const std::vector<Case> cases = {
      {4096, AscendingCounters(4096)},
      {4096, AscendingWithGaps(4096, 11)},
      {4096, Repeated(AscendingCounters(4096))},
      {64, std::vector<uint32_t>(ascending_64.rbegin(), ascending_64.rend())},
      {64, shuffled},
      {64, Repeated(shuffled)},
  };
  for (const Case& c : cases) {
    const std::vector<Bytes> table = ElementTable(c.l);
    auto cursor = ChainCursor::Create(Seed(), c.l);
    ASSERT_TRUE(cursor.ok());
    for (uint32_t ctr : c.order) {
      auto key = cursor->KeyAt(ctr);
      ASSERT_TRUE(key.ok()) << "counter " << ctr;
      ASSERT_EQ(*key, table[c.l - ctr]) << "l " << c.l << " counter " << ctr;
    }
  }
}

TEST(ChainCursorTest, PebblesBoundStackAndSteps) {
  // Ascending counters, with and without gaps, are what Scheme 3 (ctr+1 per
  // update) and Scheme 2 (the global counter) ask for. The pebble stack
  // stays within ceil(log2 l) + 1 entries, and the whole ascent costs at
  // most l * (ceil(log2 l) + 1) steps: amortized O(log l) per counter
  // instead of l - ctr.
  for (uint32_t l : {4096u, 16384u}) {
    const uint32_t log2_l =
        static_cast<uint32_t>(std::ceil(std::log2(static_cast<double>(l))));
    for (const std::vector<uint32_t>& order :
         {AscendingCounters(l), AscendingWithGaps(l, 3)}) {
      auto cursor = ChainCursor::Create(Seed(), l);
      ASSERT_TRUE(cursor.ok());
      for (uint32_t ctr : order) {
        ASSERT_TRUE(cursor->KeyAt(ctr).ok()) << "counter " << ctr;
        ASSERT_LE(cursor->pebble_count(), log2_l + 1)
            << "l " << l << " counter " << ctr;
      }
      EXPECT_LE(cursor->steps(), uint64_t{l} * (log2_l + 1)) << "l " << l;
      // The last key is still the reference's.
      auto reference = HashChain::Create(Seed(), l);
      EXPECT_EQ(*cursor->KeyAt(order.back()),
                *reference->KeyForCounter(order.back()));
    }
  }
}

TEST(ChainCursorTest, SmallerCounterWalksForwardWithoutPebbling) {
  const uint32_t l = 256;
  auto reference = HashChain::Create(Seed(), l);
  auto cursor = ChainCursor::Create(Seed(), l);
  ASSERT_TRUE(cursor.ok());
  ASSERT_TRUE(cursor->KeyAt(100).ok());
  const size_t pebbles = cursor->pebble_count();
  const uint64_t steps = cursor->steps();
  // Counter 90 sits 10 steps past the top pebble (counter 100).
  EXPECT_EQ(*cursor->KeyAt(90), *reference->KeyForCounter(90));
  EXPECT_EQ(cursor->steps(), steps + 10);
  EXPECT_EQ(cursor->pebble_count(), pebbles);
  // The top pebble still answers its own counter for free.
  EXPECT_EQ(*cursor->KeyAt(100), *reference->KeyForCounter(100));
  EXPECT_EQ(cursor->steps(), steps + 10);
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
