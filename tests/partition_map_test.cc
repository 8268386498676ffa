#include "partition/partition_map.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hermes::partition {
namespace {

TEST(RangePartitionMapTest, EqualRanges) {
  RangePartitionMap map(100, 4);
  EXPECT_EQ(map.Owner(0), 0);
  EXPECT_EQ(map.Owner(24), 0);
  EXPECT_EQ(map.Owner(25), 1);
  EXPECT_EQ(map.Owner(99), 3);
  EXPECT_EQ(map.num_partitions(), 4);
}

TEST(RangePartitionMapTest, RoundsUpUnevenRanges) {
  RangePartitionMap map(10, 3);  // ranges of 4
  EXPECT_EQ(map.Owner(0), 0);
  EXPECT_EQ(map.Owner(4), 1);
  EXPECT_EQ(map.Owner(8), 2);
  EXPECT_EQ(map.Owner(9), 2);
}

TEST(RangePartitionMapTest, OutOfRangeKeysClampToLastPartition) {
  RangePartitionMap map(100, 4);
  EXPECT_EQ(map.Owner(1'000'000), 3);
}

TEST(HashPartitionMapTest, CoversAllPartitionsAndIsStable) {
  HashPartitionMap map(1000, 5);
  std::vector<int> counts(5, 0);
  for (Key k = 0; k < 1000; ++k) {
    const NodeId owner = map.Owner(k);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, 5);
    ++counts[owner];
    EXPECT_EQ(map.Owner(k), owner);  // stable
  }
  for (int c : counts) EXPECT_GT(c, 100);  // roughly balanced
}

TEST(CustomRangePartitionMapTest, RespectsBounds) {
  CustomRangePartitionMap map({0, 10, 50, 100});
  EXPECT_EQ(map.num_partitions(), 3);
  EXPECT_EQ(map.Owner(0), 0);
  EXPECT_EQ(map.Owner(9), 0);
  EXPECT_EQ(map.Owner(10), 1);
  EXPECT_EQ(map.Owner(49), 1);
  EXPECT_EQ(map.Owner(50), 2);
  EXPECT_EQ(map.Owner(99), 2);
  EXPECT_EQ(map.Owner(200), 2);  // clamped
}

TEST(MappedRangePartitionMapTest, MapsRangesArbitrarily) {
  MappedRangePartitionMap map(10, {2, 0, 1, 2}, 3);
  EXPECT_EQ(map.Owner(5), 2);
  EXPECT_EQ(map.Owner(15), 0);
  EXPECT_EQ(map.Owner(25), 1);
  EXPECT_EQ(map.Owner(39), 2);
  EXPECT_EQ(map.Owner(1000), 2);  // past the table: last entry
}

TEST(OwnershipMapTest, KeyOverlayWinsOverBase) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  EXPECT_EQ(map.Owner(5), 0);
  map.SetKeyOwner(5, 3);
  EXPECT_EQ(map.Owner(5), 3);
  EXPECT_EQ(map.Home(5), 0);  // home ignores the per-key overlay
  map.ClearKeyOwner(5);
  EXPECT_EQ(map.Owner(5), 0);
}

TEST(OwnershipMapTest, DenseKeyOverlayCountsAndExportsInKeyOrder) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  EXPECT_EQ(map.num_key_overrides(), 0u);
  EXPECT_TRUE(map.ExportKeyOverlay().empty());
  map.SetKeyOwner(90, 1);
  map.SetKeyOwner(3, 2);
  map.SetKeyOwner(40, 3);
  map.SetKeyOwner(3, 1);  // re-placing a key is not a new override
  EXPECT_EQ(map.num_key_overrides(), 3u);
  EXPECT_TRUE(map.HasKeyOverride(40));
  EXPECT_FALSE(map.HasKeyOverride(41));
  EXPECT_FALSE(map.HasKeyOverride(1'000'000));  // beyond the overlay
  EXPECT_EQ(map.Owner(1'000'000), 3);
  const std::vector<std::pair<Key, NodeId>> expected = {
      {3, 1}, {40, 3}, {90, 1}};
  EXPECT_EQ(map.ExportKeyOverlay(), expected);

  map.ClearKeyOwner(40);
  map.ClearKeyOwner(40);  // clearing twice is a no-op
  map.ClearKeyOwner(77);  // never set
  EXPECT_EQ(map.num_key_overrides(), 2u);
  EXPECT_FALSE(map.HasKeyOverride(40));
  EXPECT_EQ(map.Owner(40), 1);  // back to its home range
  const std::vector<std::pair<Key, NodeId>> after = {{3, 1}, {90, 1}};
  EXPECT_EQ(map.ExportKeyOverlay(), after);
}

TEST(OwnershipMapTest, KeyOverlayRestoreRoundTrips) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetKeyOwner(10, 3);
  map.SetKeyOwner(60, 0);
  const auto exported = map.ExportKeyOverlay();

  OwnershipMap other(std::make_unique<RangePartitionMap>(100, 4));
  other.SetKeyOwner(99, 0);  // stale entry the restore must drop
  other.RestoreKeyOverlay(exported);
  EXPECT_EQ(other.num_key_overrides(), 2u);
  EXPECT_EQ(other.ExportKeyOverlay(), exported);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(map.Owner(k), other.Owner(k)) << k;
}

TEST(OwnershipMapTest, IntervalOverlayRehomes) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(10, 19, 2);
  EXPECT_EQ(map.Owner(9), 0);
  EXPECT_EQ(map.Owner(10), 2);
  EXPECT_EQ(map.Owner(19), 2);
  EXPECT_EQ(map.Owner(20), 0);
  EXPECT_EQ(map.Home(15), 2);  // intervals change the home
}

TEST(OwnershipMapTest, KeyOverlayWinsOverInterval) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(10, 19, 2);
  map.SetKeyOwner(15, 1);
  EXPECT_EQ(map.Owner(15), 1);
  EXPECT_EQ(map.Home(15), 2);
}

TEST(OwnershipMapTest, OverlappingIntervalsSplit) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(10, 39, 1);
  map.SetRangeOwner(20, 29, 2);
  EXPECT_EQ(map.Owner(10), 1);
  EXPECT_EQ(map.Owner(19), 1);
  EXPECT_EQ(map.Owner(20), 2);
  EXPECT_EQ(map.Owner(29), 2);
  EXPECT_EQ(map.Owner(30), 1);
  EXPECT_EQ(map.Owner(39), 1);
  EXPECT_EQ(map.num_interval_entries(), 3u);
}

TEST(OwnershipMapTest, EnclosingIntervalReplacesContained) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(20, 29, 2);
  map.SetRangeOwner(10, 39, 1);
  for (Key k = 10; k <= 39; ++k) EXPECT_EQ(map.Owner(k), 1);
}

TEST(OwnershipMapTest, ExportRestoreIntervalsRoundTrips) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(10, 19, 2);
  map.SetRangeOwner(50, 59, 3);
  const auto exported = map.ExportIntervals();

  OwnershipMap other(std::make_unique<RangePartitionMap>(100, 4));
  other.RestoreIntervals(exported);
  for (Key k = 0; k < 100; ++k) EXPECT_EQ(map.Owner(k), other.Owner(k));
}

TEST(OwnershipMapTest, AdjacentIntervalBoundaries) {
  OwnershipMap map(std::make_unique<RangePartitionMap>(100, 4));
  map.SetRangeOwner(10, 19, 1);
  map.SetRangeOwner(20, 29, 2);
  EXPECT_EQ(map.Owner(19), 1);
  EXPECT_EQ(map.Owner(20), 2);
}

}  // namespace
}  // namespace hermes::partition
