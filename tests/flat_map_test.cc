#include "common/flat_map.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <ranges>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "digest_oracle.h"

namespace hermes {
namespace {

using Map = FlatMap<uint64_t, uint64_t>;

// Slot order is unreachable from library code: a range-for over a FlatMap
// does not compile.
static_assert(!std::ranges::range<Map>);

/// Home slot of `key` in a table of `capacity` slots — the probe start
/// FlatMap computes (salted hash, masked).
size_t HomeOf(uint64_t key, size_t capacity) {
  return static_cast<size_t>(detail::SaltAndFinalize(
             static_cast<uint64_t>(std::hash<uint64_t>{}(key)))) &
         (capacity - 1);
}

std::vector<std::pair<uint64_t, uint64_t>> Sorted(const Map& m) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (uint64_t k : m.SortedKeys()) out.emplace_back(k, m.at(k));
  return out;
}

std::vector<uint64_t> KeysInSlotOrder(const Map& m) {
  std::vector<uint64_t> keys;
  for (const auto& [k, v] : FlatMapPeer::SlotOrder(m)) keys.push_back(k);
  return keys;
}

void ExpectSameContents(const Map& m, const std::map<uint64_t, uint64_t>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  const std::vector<std::pair<uint64_t, uint64_t>> want(ref.begin(),
                                                        ref.end());
  ASSERT_EQ(Sorted(m), want);
}

// Randomized differential test against std::map: a small key space keeps
// the table at high load with long probe runs, and erases constantly
// backward-shift entries across them.
TEST(FlatMapTest, MatchesStdMapUnderRandomOps) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Map m;
    std::map<uint64_t, uint64_t> ref;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t k = rng.NextBounded(300);
      switch (rng.NextBounded(5)) {
        case 0:
          m[k] = step;
          ref[k] = step;
          break;
        case 1: {
          const auto [it, inserted] = m.try_emplace(k, step);
          const auto [rit, rinserted] = ref.try_emplace(k, step);
          ASSERT_EQ(inserted, rinserted);
          ASSERT_EQ(it->second, rit->second);
          break;
        }
        case 2:
          ASSERT_EQ(m.erase(k), ref.erase(k)) << "step " << step;
          break;
        case 3: {
          auto it = m.find(k);
          if (it != m.end()) m.erase(it);
          ref.erase(k);
          break;
        }
        default: {
          const auto it = m.find(k);
          const auto rit = ref.find(k);
          ASSERT_EQ(it == m.end(), rit == ref.end()) << "step " << step;
          if (rit != ref.end()) {
            ASSERT_EQ(it->second, rit->second);
            ASSERT_EQ(m.at(k), rit->second);
          }
          ASSERT_EQ(m.contains(k), ref.count(k) > 0);
          break;
        }
      }
      ASSERT_LE(m.size() * 4, m.capacity() * 3);
      if (step % 500 == 0) ExpectSameContents(m, ref);
    }
    ExpectSameContents(m, ref);
    // Every surviving key is still reachable by lookup.
    for (const auto& [k, v] : ref) ASSERT_EQ(m.at(k), v);
  }
}

// Probe runs that start at the last slots wrap to slot 0, so in slot order
// the wrapped entries come first. Erasing the run's head must shift the
// wrapped entries back across the boundary.
TEST(FlatMapTest, ProbeRunsWrapPastTheEnd) {
  Map m;
  m.reserve(8);
  const size_t cap = m.capacity();
  std::vector<uint64_t> tail;  // keys whose home is the last slot
  for (uint64_t k = 0; tail.size() < 3; ++k) {
    if (HomeOf(k, cap) == cap - 1) tail.push_back(k);
  }
  for (size_t i = 0; i < tail.size(); ++i) m[tail[i]] = i;
  ASSERT_EQ(m.capacity(), cap);
  // Slots: [0]=tail[1], [1]=tail[2], ..., [cap-1]=tail[0].
  EXPECT_EQ(KeysInSlotOrder(m),
            (std::vector<uint64_t>{tail[1], tail[2], tail[0]}));

  m.erase(tail[0]);
  // tail[1] shifted back into the last slot, tail[2] into slot 0.
  EXPECT_EQ(KeysInSlotOrder(m), (std::vector<uint64_t>{tail[2], tail[1]}));
  EXPECT_EQ(m.at(tail[1]), 1u);
  EXPECT_EQ(m.at(tail[2]), 2u);
  EXPECT_FALSE(m.contains(tail[0]));
}

// The salt permutes slot order but never contents: the property the
// digest oracles rely on to surface order leaks.
TEST(FlatMapTest, SaltsPermuteOrderNotContents) {
  auto build = [](uint64_t salt) {
    oracle::SaltGuard guard(salt);
    Map m;
    for (uint64_t k = 0; k < 1000; ++k) m[k] = k * 7;
    return FlatMapPeer::SlotOrder(m);
  };
  const auto a = build(12345);
  const auto b = build(0xdeadbeef);
  EXPECT_NE(a, b);
  auto sa = a, sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  EXPECT_EQ(sa, sb);
}

// The executor's transaction table: one long-lived id stays while many
// later ids come and go. Backward-shift erase leaves no tombstones, so the
// table neither grows nor loses the old entry.
TEST(FlatMapTest, LongLivedTxnIdSurvivesChurn) {
  FlatMap<TxnId, std::unique_ptr<int>> actives;
  actives[1] = std::make_unique<int>(42);
  int* const pinned = actives.at(1).get();
  size_t max_capacity = 0;
  for (TxnId id = 2; id < 100000; ++id) {
    actives[id] = std::make_unique<int>(static_cast<int>(id));
    if (id >= 66) actives.erase(id - 64);
    max_capacity = std::max(max_capacity, actives.capacity());
    ASSERT_EQ(actives.at(1).get(), pinned);  // boxed value never moves
  }
  EXPECT_EQ(*actives.at(1), 42);
  EXPECT_EQ(actives.size(), 65u);
  EXPECT_LE(max_capacity, 128u);
}

TEST(FlatMapTest, CopyMoveCompareAndClear) {
  Map m = {{99, 3}, {5, 2}, {17, 0}};
  EXPECT_EQ(m.SortedKeys(), (std::vector<uint64_t>{5, 17, 99}));
  Map copy = m;
  EXPECT_EQ(copy, m);
  copy[17] = 1;
  EXPECT_NE(copy, m);
  Map moved = std::move(copy);
  EXPECT_TRUE(copy.empty());  // NOLINT: moved-from is empty by contract
  EXPECT_FALSE(copy.contains(5));
  EXPECT_EQ(moved.at(17), 1u);
  moved.clear();
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.find(5), moved.end());
  moved[5] = 8;
  EXPECT_EQ(moved.at(5), 8u);
  EXPECT_THROW(moved.at(6), std::out_of_range);
}

}  // namespace
}  // namespace hermes
