// Tests for hermes::IdRing, the TxnId-indexed ring behind the executor's
// transaction table and the cluster's pending callbacks: holes,
// out-of-order and below-base inserts, front popping, storage bounded by
// the live window, and id-ordered walks, differentially against std::map.

#include "common/id_ring.h"

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace hermes {
namespace {

using Ring = IdRing<std::unique_ptr<int>>;

std::unique_ptr<int> Box(int v) { return std::make_unique<int>(v); }

/// Every (id, value) of the ring, in walk order.
std::vector<std::pair<TxnId, int>> Walk(const Ring& ring) {
  std::vector<std::pair<TxnId, int>> out;
  ring.ForEach([&](TxnId id, const std::unique_ptr<int>& v) {
    out.emplace_back(id, *v);
  });
  return out;
}

std::vector<std::pair<TxnId, int>> Walk(const std::map<TxnId, int>& ref) {
  return {ref.begin(), ref.end()};
}

TEST(IdRingTest, EmptyRingFindsNothing) {
  Ring ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.Find(0), nullptr);
  EXPECT_EQ(ring.Find(12345), nullptr);
  EXPECT_EQ(ring.Take(7), nullptr);
  EXPECT_EQ(ring.span(), 0u);
  EXPECT_EQ(ring.capacity(), 0u);
}

TEST(IdRingTest, HolesAreEmptySlotsInsideTheWindow) {
  Ring ring;
  ring.Insert(100, Box(1));
  ring.Insert(103, Box(4));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.base(), 100u);
  EXPECT_EQ(ring.span(), 4u);
  EXPECT_EQ(ring.Find(101), nullptr);
  EXPECT_EQ(ring.Find(102), nullptr);
  EXPECT_EQ(ring.Find(104), nullptr);
  EXPECT_EQ(ring.Find(99), nullptr);
  ASSERT_NE(ring.Find(103), nullptr);
  EXPECT_EQ(**ring.Find(103), 4);
  // Filling a hole leaves the window alone.
  ring.Insert(102, Box(3));
  EXPECT_EQ(ring.span(), 4u);
  EXPECT_EQ(Walk(ring), (std::vector<std::pair<TxnId, int>>{
                            {100, 1}, {102, 3}, {103, 4}}));
}

TEST(IdRingTest, OutOfOrderInsertionWithinABatch) {
  // Hermes may reorder a batch, so dispatch order is a permutation of a
  // run of ids.
  Ring ring;
  const std::vector<TxnId> order = {57, 52, 55, 50, 58, 51, 54, 53, 56};
  for (TxnId id : order) ring.Insert(id, Box(static_cast<int>(id)));
  EXPECT_EQ(ring.base(), 50u);
  EXPECT_EQ(ring.span(), 9u);
  std::vector<std::pair<TxnId, int>> want;
  for (TxnId id = 50; id <= 58; ++id) want.emplace_back(id, id);
  EXPECT_EQ(Walk(ring), want);
}

TEST(IdRingTest, InsertBelowBasePrependsSlots) {
  // A parked transaction released after an outage re-enters with an id
  // older than every live one, and the buffer may have wrapped.
  Ring ring;
  for (TxnId id = 0; id < 30; ++id) ring.Insert(id, Box(1));
  for (TxnId id = 0; id < 25; ++id) ring.Take(id);  // head moves forward
  for (TxnId id = 30; id < 40; ++id) ring.Insert(id, Box(2));  // wraps
  ASSERT_EQ(ring.base(), 25u);
  ring.Insert(3, Box(3));
  EXPECT_EQ(ring.base(), 3u);
  EXPECT_EQ(ring.span(), 37u);
  ASSERT_NE(ring.Find(3), nullptr);
  EXPECT_EQ(**ring.Find(3), 3);
  EXPECT_EQ(ring.Find(4), nullptr);
  EXPECT_EQ(ring.Find(24), nullptr);
  ASSERT_NE(ring.Find(39), nullptr);
  EXPECT_EQ(**ring.Find(39), 2);
  EXPECT_EQ(ring.size(), 16u);
  // Taking it pops the prepended slots again.
  EXPECT_EQ(*ring.Take(3), 3);
  EXPECT_EQ(ring.base(), 25u);
  EXPECT_EQ(ring.span(), 15u);
}

TEST(IdRingTest, TakingTheEndsPopsEmptySlots) {
  Ring ring;
  for (TxnId id : {10, 11, 14, 15, 18}) ring.Insert(id, Box(0));
  ring.Take(11);  // a hole; the front is still live
  EXPECT_EQ(ring.base(), 10u);
  ring.Take(10);  // pops 10, 11 (hole), 12, 13
  EXPECT_EQ(ring.base(), 14u);
  EXPECT_EQ(ring.span(), 5u);
  ring.Take(18);  // pops back to 15
  EXPECT_EQ(ring.span(), 2u);
  ring.Take(14);
  ring.Take(15);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.span(), 0u);
  // An empty window restarts anywhere (a checkpoint restore).
  ring.Insert(1'000'000, Box(9));
  EXPECT_EQ(ring.base(), 1'000'000u);
  EXPECT_EQ(ring.span(), 1u);
  EXPECT_EQ(**ring.Find(1'000'000), 9);
}

TEST(IdRingTest, MemoryIsBoundedByTheLiveWindow) {
  // A sliding window of 100 live ids over a million: the buffer never
  // outgrows the smallest power of two above the widest window.
  Ring ring;
  constexpr TxnId kWindow = 100;
  for (TxnId id = 0; id < 1'000'000; ++id) {
    ring.Insert(id, Box(0));
    if (id >= kWindow) ring.Take(id - kWindow);
    ASSERT_LE(ring.span(), kWindow + 1);
  }
  EXPECT_EQ(ring.size(), kWindow);
  EXPECT_EQ(ring.capacity(), 128u);
}

TEST(IdRingTest, MatchesAnOrderedMapUnderRandomChurn) {
  // Mostly increasing inserts with stragglers below the base, random takes
  // of live and absent ids; contents and walk order must match std::map.
  Rng rng(20261019);
  Ring ring;
  std::map<TxnId, int> ref;
  TxnId next = 1000;
  for (int step = 0; step < 200'000; ++step) {
    const uint64_t op = rng.NextBounded(10);
    if (op < 5) {
      TxnId id = next;
      if (rng.NextBounded(20) == 0 && next > 64) {
        id = next - 1 - rng.NextBounded(64);  // straggler, maybe below base
      } else {
        next += 1 + rng.NextBounded(3);  // holes between ids
      }
      if (ref.contains(id)) continue;
      const int v = static_cast<int>(rng.NextBounded(1'000'000));
      ring.Insert(id, Box(v));
      ref[id] = v;
    } else {
      const TxnId id = next - 1 - rng.NextBounded(80);
      std::unique_ptr<int> got = ring.Take(id);
      const auto it = ref.find(id);
      if (it == ref.end()) {
        ASSERT_EQ(got, nullptr) << "id " << id;
        continue;
      }
      ASSERT_NE(got, nullptr) << "id " << id;
      ASSERT_EQ(*got, it->second);
      ref.erase(it);
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.base(), ref.begin()->first);
      ASSERT_EQ(ring.span(), ref.rbegin()->first - ref.begin()->first + 1);
    }
    if (step % 997 == 0) {
      ASSERT_EQ(Walk(ring), Walk(ref));
    }
  }
  EXPECT_EQ(Walk(ring), Walk(ref));
  for (const auto& [id, v] : ref) {
    ASSERT_NE(ring.Find(id), nullptr);
    EXPECT_EQ(**ring.Find(id), v);
  }
}

TEST(IdRingTest, HoldsFunctionsAndReferencesSurviveTakes) {
  // The cluster keeps std::function callbacks; an empty one is a hole.
  IdRing<std::function<int()>> ring;
  ring.Insert(5, [] { return 5; });
  std::function<int()>& six = ring.Insert(6, [] { return 6; });
  ring.Insert(7, [] { return 7; });
  ring.Take(5);  // pops the front without moving other slots
  EXPECT_EQ(six(), 6);
  EXPECT_EQ(ring.Take(6)(), 6);
  EXPECT_FALSE(static_cast<bool>(ring.Take(6)));
  EXPECT_EQ(ring.size(), 1u);
}

}  // namespace
}  // namespace hermes
