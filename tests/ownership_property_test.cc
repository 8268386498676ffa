// Property test: OwnershipMap (base + interval overlay + per-key overlay)
// against a brute-force reference model under random operation sequences.

#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "partition/partition_map.h"

namespace hermes::partition {
namespace {

constexpr uint64_t kKeys = 2000;
constexpr int kNodes = 5;

/// Reference model: fully materialized per-key state.
struct Reference {
  std::vector<NodeId> home;
  std::unordered_map<Key, NodeId> overlay;

  explicit Reference(const PartitionMap& base) {
    home.resize(kKeys);
    for (Key k = 0; k < kKeys; ++k) home[k] = base.Owner(k);
  }
  NodeId Owner(Key k) const {
    auto it = overlay.find(k);
    return it != overlay.end() ? it->second : home[k];
  }
};

class OwnershipPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OwnershipPropertyTest, MatchesReferenceModel) {
  Rng rng(GetParam());
  OwnershipMap map(std::make_unique<RangePartitionMap>(kKeys, kNodes));
  Reference ref(map.base());

  for (int step = 0; step < 500; ++step) {
    const int op = static_cast<int>(rng.NextBounded(4));
    if (op == 0) {
      // Re-home a random interval.
      Key lo = rng.NextBounded(kKeys);
      Key hi = std::min<Key>(kKeys - 1, lo + rng.NextBounded(200));
      const NodeId target = static_cast<NodeId>(rng.NextBounded(kNodes));
      map.SetRangeOwner(lo, hi, target);
      for (Key k = lo; k <= hi; ++k) ref.home[k] = target;
    } else if (op == 1) {
      const Key k = rng.NextBounded(kKeys);
      const NodeId target = static_cast<NodeId>(rng.NextBounded(kNodes));
      map.SetKeyOwner(k, target);
      ref.overlay[k] = target;
    } else if (op == 2) {
      const Key k = rng.NextBounded(kKeys);
      map.ClearKeyOwner(k);
      ref.overlay.erase(k);
    } else {
      // Spot-check a batch of random keys.
      for (int i = 0; i < 20; ++i) {
        const Key k = rng.NextBounded(kKeys);
        ASSERT_EQ(map.Owner(k), ref.Owner(k)) << "key " << k;
        ASSERT_EQ(map.Home(k), ref.home[k]) << "key " << k;
      }
    }
  }
  // Full sweep at the end.
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_EQ(map.Owner(k), ref.Owner(k)) << "key " << k;
    ASSERT_EQ(map.Home(k), ref.home[k]) << "key " << k;
  }

  // The key overlay export lists exactly the reference overrides, in
  // ascending key order.
  const std::vector<std::pair<Key, NodeId>> overlay = map.ExportKeyOverlay();
  const std::map<Key, NodeId> ordered(ref.overlay.begin(), ref.overlay.end());
  const std::vector<std::pair<Key, NodeId>> expected(ordered.begin(),
                                                     ordered.end());
  EXPECT_EQ(overlay, expected);
  EXPECT_EQ(map.num_key_overrides(), ref.overlay.size());

  // Export/restore round-trips the interval and key-overlay state.
  OwnershipMap copy(std::make_unique<RangePartitionMap>(kKeys, kNodes));
  copy.RestoreIntervals(map.ExportIntervals());
  copy.RestoreKeyOverlay(overlay);
  for (Key k = 0; k < kKeys; ++k) {
    ASSERT_EQ(copy.Owner(k), map.Owner(k)) << "key " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OwnershipPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace hermes::partition
