// Tests for hermes::KeyBitset, the ordered dense-key set behind the lease
// tables' leased and grantable keys: set, clear and count, ascending walks
// across word boundaries, early stops, clearing the visited key mid-walk,
// and a seeded differential run against std::set.

#include "common/key_bitset.h"

#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hermes {
namespace {

std::vector<Key> Walk(const KeyBitset& set) {
  std::vector<Key> out;
  set.ForEach([&](Key key) { out.push_back(key); });
  return out;
}

TEST(KeyBitsetTest, EmptySetHasNothing) {
  KeyBitset set;
  EXPECT_EQ(set.count(), 0u);
  set.Clear(5);  // past the end: absent, nothing to drop
  set.Clear(1u << 20);
  EXPECT_EQ(set.count(), 0u);
  EXPECT_TRUE(Walk(set).empty());
}

TEST(KeyBitsetTest, SetAndClearAreIdempotentAndCount) {
  KeyBitset set;
  set.Set(7);
  set.Set(7);  // already present: counted once
  set.Set(63);
  set.Set(64);
  EXPECT_EQ(set.count(), 3u);
  set.Clear(62);  // absent: nothing dropped
  EXPECT_EQ(set.count(), 3u);
  set.Clear(63);
  set.Clear(63);
  EXPECT_EQ(set.count(), 2u);
  EXPECT_EQ(Walk(set), (std::vector<Key>{7, 64}));
  set.clear();
  EXPECT_EQ(set.count(), 0u);
  set.Clear(7);
  EXPECT_EQ(set.count(), 0u);
  EXPECT_TRUE(Walk(set).empty());
  set.Set(3);  // usable again after clear()
  EXPECT_EQ(set.count(), 1u);
  EXPECT_EQ(Walk(set), std::vector<Key>{3});
}

TEST(KeyBitsetTest, Bit63IsTheLastBitOfItsWord) {
  KeyBitset set;
  set.Set(63);
  EXPECT_EQ(Walk(set), std::vector<Key>{63});
  set.Set(127);
  set.Set(0);
  EXPECT_EQ(Walk(set), (std::vector<Key>{0, 63, 127}));
}

TEST(KeyBitsetTest, WalksAscendingAcrossWordBoundaries) {
  KeyBitset set;
  // Inserted out of order, on both sides of several word boundaries and
  // past a run of empty words.
  for (Key k : {4098u, 64u, 0u, 1u, 127u, 128u, 63u, 65u, 1000u}) set.Set(k);
  EXPECT_EQ(Walk(set),
            (std::vector<Key>{0, 1, 63, 64, 65, 127, 128, 1000, 4098}));
  EXPECT_EQ(set.count(), 9u);
}

TEST(KeyBitsetTest, WalkStopsWhenTheVisitorReturnsFalse) {
  KeyBitset set;
  for (Key k : {2u, 70u, 140u, 300u}) set.Set(k);
  std::vector<Key> seen;
  set.ForEach([&](Key key) {
    seen.push_back(key);
    return key < 140;
  });
  EXPECT_EQ(seen, (std::vector<Key>{2, 70, 140}));
}

TEST(KeyBitsetTest, VisitorMayClearTheVisitedKey) {
  KeyBitset set;
  for (Key k = 60; k < 200; ++k) set.Set(k);
  std::vector<Key> seen;
  set.ForEach([&](Key key) {
    seen.push_back(key);
    if (key % 3 != 0) set.Clear(key);
  });
  EXPECT_EQ(seen.size(), 140u);
  std::vector<Key> kept;
  for (Key k = 60; k < 200; ++k) {
    if (k % 3 == 0) kept.push_back(k);
  }
  EXPECT_EQ(Walk(set), kept);
  EXPECT_EQ(set.count(), kept.size());
}

TEST(KeyBitsetTest, MatchesStdSet) {
  Rng rng(20261020);
  KeyBitset set;
  std::set<Key> ref;
  for (int step = 0; step < 20000; ++step) {
    // Mostly a 4,099-key space, sometimes far above it, so storage grows
    // in jumps as well as word by word.
    const Key key = rng.NextBounded(50) == 0
                        ? (Key{1} << 20) + rng.NextBounded(200)
                        : rng.NextBounded(4099);
    switch (rng.NextBounded(3)) {
      case 0:
      case 1:
        set.Set(key);
        ref.insert(key);
        break;
      default:
        set.Clear(key);
        ref.erase(key);
        break;
    }
    ASSERT_EQ(set.count(), ref.size()) << "key=" << key;
    if (step % 100 == 99) {
      ASSERT_EQ(Walk(set), std::vector<Key>(ref.begin(), ref.end()));
    }
    if (step == 10000) {
      set.clear();
      ref.clear();
    }
  }
}

}  // namespace
}  // namespace hermes
